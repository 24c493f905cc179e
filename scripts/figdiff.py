"""Compare two prints of ``scripts/figures.py``, label by label.

Prints the label count, how many figures are bit-identical, the largest
difference with its label, and per section (the label up to its first
``/``) how many figures moved and the section's largest difference with
its label.  Exits 1 when the two prints have different labels or a figure
moved by more than ``privacy.FIGURE_TOL``, else 0.

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


def worse(diff: float, worst: float) -> bool:
    """Whether ``diff`` replaces ``worst`` as the largest difference; a NaN
    on either side of a figure counts as the worst and stays it."""
    return not math.isnan(worst) and not diff <= worst


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
    worst = {section: (0.0, "-") for section in sections}  # section -> (difference, label)
    for label in common:
        if parent[label] == change[label]:
            continue
        section = label.split("/")[0]
        moved[section] += 1
        diff = abs(float.fromhex(parent[label]) - float.fromhex(change[label]))
        if worse(diff, worst[section][0]):
            worst[section] = (diff, label)
    largest = (0.0, "-")
    for entry in worst.values():
        if worse(entry[0], largest[0]):
            largest = entry
    print(f"labels {len(common)}")
    print(f"bit-identical {len(common) - sum(moved.values())}")
    print(f"largest {largest[0]:.3g} {largest[1]}")
    for section, count in sections.items():
        diff, label = worst[section]
        print(f"moved {section} {moved[section]} of {count} largest {diff:.3g} {label}")
    return 1 if only["parent"] or only["change"] or not largest[0] <= FIGURE_TOL else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
