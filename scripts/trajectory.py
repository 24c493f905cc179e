"""Print each workload's benchmark trajectory from the committed records.

Reads every ``BENCH_*.json`` in DIR (default: this repository) that holds a
list of ``scripts/pairs.py`` records and prints, per workload in file-name
order, one line per record in the order the records were appended: the
``change`` revision, the number of pairs and the change's median of each
end-to-end metric, then, when the record's claim rule holds, ``claim`` if
a gain was claimed beforehand (``claimed``) and ``rule holds`` if not.  A
record without ``claimed``, written before ``scripts/pairs.py`` recorded
it, reads as claimed, and one without ``claim_rule`` ends at its medians.
A file in another
format (a single object, such as ``BENCH_kernels.json``) is named as
skipped.  The script only reads; no record is edited.

Usage: python scripts/trajectory.py [DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def trajectory(directory: Path) -> tuple[dict[str, list[dict]], list[str]]:
    """``(workloads, skipped)``: per workload, ``{"change", "pairs",
    "medians", "holds", "claimed"}`` for each record in file order, and the
    names of the ``BENCH_*.json`` files that hold no record list."""
    workloads: dict[str, list[dict]] = {}
    skipped = []
    for path in sorted(directory.glob("BENCH_*.json")):
        records = json.loads(path.read_text())
        if not isinstance(records, list):
            skipped.append(path.name)
            continue
        for rec in records:
            workloads.setdefault(rec["workload"], []).append({
                "change": rec["change"],
                "pairs": len(rec["pairs"]),
                "medians": {name: s["change_median"] for name, s in rec["summary"].items()},
                "holds": rec.get("claim_rule", {}).get("holds", False),
                "claimed": rec.get("claimed", True),
            })
    return workloads, skipped


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir", type=Path, nargs="?", default=REPO)
    workloads, skipped = trajectory(ap.parse_args(argv).dir)
    for workload, rows in workloads.items():
        print(workload)
        for row in rows:
            medians = " ".join(f"{name}={value:.4g}" for name, value in row["medians"].items())
            mark = (" claim" if row["claimed"] else " rule holds") if row["holds"] else ""
            print(f"  {row['change']} {row['pairs']} pairs {medians}{mark}")
    for name in skipped:
        print(f"skipped {name}: not a list of pairs records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
