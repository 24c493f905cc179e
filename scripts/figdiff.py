"""Compare two prints of ``scripts/figures.py``, label by label.

Prints the label count, how many figures are bit-identical, the largest
difference with its label, and per section (the label up to its first
``/``) how many figures moved.  Exits 1 when the two prints have different
labels or a figure moved by more than ``privacy.FIGURE_TOL``, else 0.

Usage: python scripts/figdiff.py PARENT CHANGE
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qpirlab.privacy import FIGURE_TOL  # noqa: E402


def read(path: str) -> dict[str, str]:
    """label -> ``float.hex`` text, one per line of a figures print."""
    out = {}
    for line in Path(path).read_text().splitlines():
        label, value = line.split(" ")
        out[label] = value
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    parent, change = read(argv[0]), read(argv[1])
    only = {"parent": sorted(set(parent) - set(change)),
            "change": sorted(set(change) - set(parent))}
    for side, labels in only.items():
        if labels:
            print(f"only-in-{side} {len(labels)} {labels[0]}")
    common = [label for label in parent if label in change]
    sections = Counter(label.split("/")[0] for label in common)
    moved = Counter()
    worst, worst_label = 0.0, "-"
    for label in common:
        if parent[label] == change[label]:
            continue
        moved[label.split("/")[0]] += 1
        diff = abs(float.fromhex(parent[label]) - float.fromhex(change[label]))
        # a NaN on either side counts as the worst and stays it
        if not math.isnan(worst) and not diff <= worst:
            worst, worst_label = diff, label
    print(f"labels {len(common)}")
    print(f"bit-identical {len(common) - sum(moved.values())}")
    print(f"largest {worst:.3g} {worst_label}")
    for section, count in sections.items():
        print(f"moved {section} {moved[section]} of {count}")
    return 1 if only["parent"] or only["change"] or not worst <= FIGURE_TOL else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
