"""Run alternating benchmark pairs from two checkouts and record them.

For each seed, runs ``perfbench/run.py --trace 0`` once from each checkout,
the parent first on odd seeds and the change first on even ones, and reads
the last line of each run's output as its JSON result.  The run length, the
end-to-end metrics and the direction in which each is better come from the
change's ``BENCHMARK.json``.

Appends one record to ``BENCH_<workload>.json`` in ``--out`` (default: this
repository), a JSON list of records, one per run of this script: both
checkouts' revisions, the seeds, each pair's end-to-end metrics, and per
metric the two medians, both sides' quartiles and how many pairs the change
won, and a verdict on the metric against its ``bound`` in
``BENCHMARK.json`` (:func:`verdict`).  The printed summary gives each
side's interquartile range as a share of its median and the verdict.  The
record says whether a gain on the workload was stated before the pairs
were run (``--claimed``; ``claimed`` is false without it), and whether the
claim rule holds: at least ``MIN_PAIRS`` pairs, every run correct with no
failed task, and no seed already recorded in any record of a
``BENCH_*.json`` of ``--out``.  Earlier records stay byte for byte (a file
holding one record, as this script once wrote, becomes a list with that
record first), and ``earlier_seeds`` lists the seeds the file held
before.  The script claims nothing itself.

Usage: python scripts/pairs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B
       [--out DIR] [--claimed]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10


def seed_range(text: str) -> list[int]:
    """``A-B`` (inclusive) or a single ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def revision(checkout: Path) -> str:
    """``git describe --always --dirty`` of a checkout, else its path."""
    done = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else str(checkout)


def recorded_seeds(paths) -> set[int]:
    """Every ``seed`` value and ``seeds`` or ``earlier_seeds`` entry in the
    JSON files ``paths``."""
    found: set[int] = set()

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seed" and isinstance(value, int):
                    found.add(value)
                elif key in ("seeds", "earlier_seeds") and isinstance(value, list):
                    found.update(v for v in value if isinstance(v, int))
                else:
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for path in paths:
        walk(json.loads(path.read_text()))
    return found


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run; its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    """The first and third quartiles (inclusive method)."""
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [q[0], q[2]]


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """One end-to-end metric judged against the ``bound`` by which it may
    worsen: ``unresolved`` where the parent's interquartile range is a
    larger share of its median than ``bound`` and not every change run
    beats every parent run; else ``within bound`` or ``worse than bound``,
    by how far the change's median is worse than the parent's, as a share
    of the parent's."""
    sign = 1 if direction == "lower" else -1
    (q1, q3), median = quartiles(parent), statistics.median(parent)
    beats = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not beats:
        return "unresolved"
    worse = sign * (statistics.median(change) - median)
    return "within bound" if worse <= bound * abs(median) else "worse than bound"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        out[name] = {"better": direction,
                     "parent_median": statistics.median(parent),
                     "change_median": statistics.median(change),
                     "parent_quartiles": quartiles(parent),
                     "change_quartiles": quartiles(change),
                     "change_better": f"{wins} of {len(pairs)}",
                     "bound": bounds[name],
                     "verdict": verdict(parent, change, direction, bounds[name])}
    return out


def spread(s: dict, side: str) -> str:
    """One side's quartiles and its interquartile range as a share of its
    median."""
    (q1, q3), median = s[f"{side}_quartiles"], s[f"{side}_median"]
    share = f"{(q3 - q1) / abs(median):.1%}" if median else "n/a"
    return f"{side} quartiles {q1:.4g}-{q3:.4g}, IQR {share} of median"


def record(parent_dir: Path, change_dir: Path, workload: str, seeds: list[int],
           out: Path, claimed: bool = False) -> dict:
    """Run the pairs and append their record to ``out / BENCH_<workload>.json``;
    returns the record."""
    bench = json.loads((change_dir / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    reused = sorted(recorded_seeds(sorted(out.glob("BENCH_*.json"))) & set(seeds))
    target = out / f"BENCH_{workload}.json"
    earlier = sorted(recorded_seeds([target])) if target.exists() else []
    sides = {"parent": parent_dir, "change": change_dir}
    pairs, all_correct = [], True
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        entry = {"seed": seed, "first": order[0]}
        for side in order:
            result = run_once(sides[side], workload, seed, seconds)
            entry[side] = {name: result["metrics"][name]["value"] for name in better}
            entry[f"{side}_run"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            all_correct &= bool(result["correct"]) and result["failed"] == 0
            print(f"seed {seed} {side}: " + " ".join(f"{k}={v:.4g}" for k, v in entry[side].items()),
                  file=sys.stderr)
        pairs.append(entry)
    doc = {
        "command": f"python3 perfbench/run.py --workload {workload} --seed S "
                   f"--seconds {seconds} --trace 0",
        "workload": workload,
        "parent": revision(parent_dir),
        "change": revision(change_dir),
        "seeds": seeds,
        "earlier_seeds": earlier,
        "claimed": claimed,
        "claim_rule": {"pairs": len(pairs), "min_pairs": MIN_PAIRS, "reused_seeds": reused,
                       "all_correct": all_correct,
                       "holds": len(pairs) >= MIN_PAIRS and not reused and all_correct},
        "summary": summarize(pairs, better, bounds),
        "pairs": pairs,
    }
    target.write_text(appended(target.read_text() if target.exists() else None, dump(doc)))
    return doc


def appended(text: str | None, record: str) -> str:
    """The text of a record list with ``record`` added last; ``text`` is the
    list so far, a lone record, or ``None``.  Earlier records keep their
    text."""
    if text is None:
        return "[\n" + record.rstrip("\n") + "\n]\n"
    body = text.rstrip()
    if isinstance(json.loads(body), dict):
        body = "[\n" + body + "\n]"
    return body[:-1].rstrip() + ",\n" + record.rstrip("\n") + "\n]\n"


def dump(doc: dict) -> str:
    """JSON text with one line per top-level key, summary metric and pair."""
    def value(key, v):
        if key == "summary":
            return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(s)}"
                                       for k, s in v.items()) + "\n }"
        if key == "pairs":
            return "[\n" + ",\n".join(f"  {json.dumps(p)}" for p in v) + "\n ]"
        return json.dumps(v)
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {value(k, v)}" for k, v in doc.items()) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range)
    ap.add_argument("--out", type=Path, default=REPO)
    ap.add_argument("--claimed", action="store_true",
                    help="a gain on this workload was stated before the pairs were run")
    args = ap.parse_args(argv)
    doc = record(args.parent.resolve(), args.change.resolve(), args.workload, args.seeds,
                 args.out, args.claimed)
    for name, s in doc["summary"].items():
        print(f"{name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
              f"({spread(s, 'parent')}; {spread(s, 'change')}), "
              f"change better in {s['change_better']}; {s['verdict']} "
              f"(bound {s['bound']:.0%})")
    rule = doc["claim_rule"]
    print(f"claim rule {'holds' if rule['holds'] else 'does not hold'}: {rule['pairs']} pairs "
          f"(at least {MIN_PAIRS}), reused seeds {rule['reused_seeds']}, "
          f"all runs correct: {rule['all_correct']}; a gain was "
          f"{'claimed' if doc['claimed'] else 'not claimed'} beforehand")
    return 0


if __name__ == "__main__":
    sys.exit(main())
