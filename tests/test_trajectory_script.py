import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory.py"


def _record(change, medians, pairs, holds=None, claimed=None):
    """A synthetic ``scripts/pairs.py`` record with ``pairs`` pairs, a
    claim rule that ``holds`` unless it is ``None`` (no ``claim_rule``, as
    in the earliest records) and a ``claimed`` field unless it is ``None``
    (as in the records written before the field)."""
    rec = {"workload": "w", "parent": "p" + change, "change": change, "seeds": list(range(pairs)),
           "summary": {name: {"better": "lower", "parent_median": 2 * value,
                              "change_median": value} for name, value in medians.items()},
           "pairs": [{"seed": s} for s in range(pairs)]}
    if holds is not None:
        rec["claim_rule"] = {"pairs": pairs, "min_pairs": 10, "reused_seeds": [],
                             "all_correct": True, "holds": holds}
    if claimed is not None:
        rec["claimed"] = claimed
    return rec


def test_trajectory_prints_each_records_change_medians_and_edits_nothing(tmp_path):
    first = _record("aaa1111", {"task_s.p50": 0.25, "peak_rss_mb": 70.0}, 4)
    second = _record("bbb2222", {"task_s.p50": 0.125, "peak_rss_mb": 71.5}, 10, holds=True)
    third = _record("ddd4444", {"task_s.p50": 0.12}, 6, holds=False)
    unclaimed = _record("eee5555", {"task_s.p50": 0.11}, 10, holds=True, claimed=False)
    claimed = _record("fff6666", {"task_s.p50": 0.1}, 10, holds=True, claimed=True)
    failed = _record("ggg7777", {"task_s.p50": 0.1}, 4, holds=False, claimed=True)
    other = dict(_record("ccc3333", {"task_s.p50": 1.5}, 2), workload="v")
    files = {"BENCH_w.json": json.dumps([first, second, third, unclaimed, claimed, failed],
                                        indent=1),
             "BENCH_v.json": json.dumps([other]),
             "BENCH_kernels.json": json.dumps({"rows": [1, 2]}),
             "notes.json": json.dumps([{"workload": "x"}])}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    res = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True)
    # workloads in file-name order, records in the order they were appended;
    # where the claim rule holds, "claim" for a claimed record (one without
    # the field reads as claimed) and "rule holds" for the others
    assert res.stdout.splitlines() == [
        "v",
        "  ccc3333 2 pairs task_s.p50=1.5",
        "w",
        "  aaa1111 4 pairs task_s.p50=0.25 peak_rss_mb=70",
        "  bbb2222 10 pairs task_s.p50=0.125 peak_rss_mb=71.5 claim",
        "  ddd4444 6 pairs task_s.p50=0.12",
        "  eee5555 10 pairs task_s.p50=0.11 rule holds",
        "  fff6666 10 pairs task_s.p50=0.1 claim",
        "  ggg7777 4 pairs task_s.p50=0.1",
        "skipped BENCH_kernels.json: not a list of pairs records",
    ]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == files
