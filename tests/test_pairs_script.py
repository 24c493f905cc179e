import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"

# A stand-in for perfbench/run.py: it logs its side and seed, prints a table
# line and then one JSON result whose metrics depend on the side and seed.
# The change is faster on every seed but 3, and its peak memory ties.
RUNNER = '''
import json, sys
from pathlib import Path
side = Path(__file__).resolve().parents[1].name
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{side} {seed} {args['--workload']} {args['--seconds']} {args['--trace']}\\n")
task = 0.5 + 0.01 * seed if side == "parent" or seed == 3 else 0.4 + 0.01 * seed
metrics = {"setup_s": 0.3, "task_s.p50": task, "task_s.tail": task + 0.1,
           "tasks_per_s": 1 / task, "peak_rss_mb": 100.0}
print("benchmark table")
print(json.dumps({"correct": seed != 99, "attempted": 5, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
'''

BENCHMARK = {"run_seconds": 2,
             "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25},
                            {"name": "task_s.p50", "better": "lower", "bound": 0.25},
                            {"name": "task_s.tail", "better": "lower", "bound": 0.25},
                            {"name": "tasks_per_s", "better": "higher", "bound": 0.25},
                            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}


def _checkouts(tmp_path, runner=RUNNER):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(runner)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = tmp_path / "out"
    out.mkdir()
    return out


def _pairs(tmp_path, out, seeds, workload="w", *flags):
    """Run the script; its output and the record it appended."""
    res = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "parent"),
                          str(tmp_path / "change"), "--workload", workload, "--seeds", seeds,
                          "--out", str(out), *flags],
                         capture_output=True, text=True, check=True)
    return res.stdout, json.loads((out / f"BENCH_{workload}.json").read_text())[-1]


def test_pairs_alternate_and_record_every_metric(tmp_path):
    out = _checkouts(tmp_path)
    stdout, doc = _pairs(tmp_path, out, "1-10")
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert len(order) == 20
    for k, seed in enumerate(range(1, 11)):
        first, second = order[2 * k].split()[:2], order[2 * k + 1].split()[:2]
        assert [first[1], second[1]] == [str(seed), str(seed)]
        assert first[0] == ("parent" if seed % 2 else "change")
        assert second[0] == ("change" if seed % 2 else "parent")
    assert all(line.split()[2:] == ["w", "2", "0"] for line in order)

    assert doc["seeds"] == list(range(1, 11)) and doc["earlier_seeds"] == []
    assert "--seconds 2 " in doc["command"]
    assert [p["seed"] for p in doc["pairs"]] == doc["seeds"]
    assert doc["pairs"][0]["first"] == "parent" and doc["pairs"][1]["first"] == "change"
    assert abs(doc["pairs"][3]["parent"]["task_s.p50"] - 0.54) < 1e-12
    assert abs(doc["pairs"][3]["change"]["task_s.p50"] - 0.44) < 1e-12
    assert doc["pairs"][0]["parent_run"] == {"correct": True, "attempted": 5, "failed": 0}
    summary = doc["summary"]
    assert set(summary) == {"setup_s", "task_s.p50", "task_s.tail", "tasks_per_s",
                            "peak_rss_mb"}
    task = summary["task_s.p50"]
    assert task["change_better"] == "9 of 10"
    assert abs(task["parent_median"] - 0.555) < 1e-12
    assert abs(task["change_median"] - 0.465) < 1e-12
    assert [round(q, 6) for q in task["parent_quartiles"]] == [0.5325, 0.5775]
    assert summary["tasks_per_s"]["change_better"] == "9 of 10"
    assert summary["peak_rss_mb"]["change_better"] == "0 of 10"
    assert doc["claim_rule"] == {"pairs": 10, "min_pairs": 10, "reused_seeds": [],
                                 "all_correct": True, "holds": True}
    assert "claim rule holds" in stdout
    assert doc["claimed"] is False and "a gain was not claimed beforehand" in stdout


def test_the_record_says_whether_a_gain_was_claimed_beforehand(tmp_path):
    out = _checkouts(tmp_path)
    bench = out / "BENCH_w.json"
    _, doc = _pairs(tmp_path, out, "1-10")
    before = bench.read_text()
    stdout, doc = _pairs(tmp_path, out, "21-30", "w", "--claimed")
    assert doc["claimed"] is True and "a gain was claimed beforehand" in stdout
    assert doc["claim_rule"]["holds"]
    # the earlier record keeps its bytes, its field false
    assert bench.read_text().startswith(before.rstrip()[:-1].rstrip() + ",\n")
    assert [r["claimed"] for r in json.loads(bench.read_text())] == [False, True]


def test_claim_rule_needs_ten_pairs_unused_seeds_and_correct_runs(tmp_path):
    out = _checkouts(tmp_path)
    _, doc = _pairs(tmp_path, out, "11-13")
    assert doc["claim_rule"]["pairs"] == 3 and not doc["claim_rule"]["holds"]

    # seeds 11-13 are now recorded in BENCH_w.json, as are the older ones
    (out / "BENCH_old.json").write_text(json.dumps({"w": {"pairs": [{"seed": 20}]}}))
    stdout, doc = _pairs(tmp_path, out, "12-21")
    assert doc["claim_rule"]["reused_seeds"] == [12, 13, 20]
    assert not doc["claim_rule"]["holds"] and "does not hold" in stdout

    _, doc = _pairs(tmp_path, out, "90-99")
    assert doc["claim_rule"]["reused_seeds"] == []
    assert not doc["claim_rule"]["all_correct"] and not doc["claim_rule"]["holds"]
    assert doc["pairs"][-1]["change_run"]["correct"] is False


def test_a_rerun_keeps_every_earlier_record_byte_for_byte(tmp_path):
    out = _checkouts(tmp_path)
    bench = out / "BENCH_w.json"
    _pairs(tmp_path, out, "1-3")
    before = bench.read_text()
    _, doc = _pairs(tmp_path, out, "3-4")
    after = bench.read_text()
    # the list so far, up to its closing bracket, is the start of the new text
    assert after.startswith(before.rstrip()[:-1].rstrip() + ",\n")
    assert [r["seeds"] for r in json.loads(after)] == [[1, 2, 3], [3, 4]]
    assert doc["earlier_seeds"] == [1, 2, 3] and doc["claim_rule"]["reused_seeds"] == [3]
    _, doc = _pairs(tmp_path, out, "1-2")
    assert json.loads(bench.read_text())[:2] == json.loads(after)
    assert doc["earlier_seeds"] == [1, 2, 3, 4] and doc["claim_rule"]["reused_seeds"] == [1, 2]

    # a file holding one record, as the script once wrote, keeps it first
    lone = after[2:after.index("\n}") + 2] + "\n"
    assert json.loads(lone)["seeds"] == [1, 2, 3]
    (out / "BENCH_v.json").write_text(lone)
    _, doc = _pairs(tmp_path, out, "5", workload="v")
    text = (out / "BENCH_v.json").read_text()
    assert text.startswith("[\n" + lone.rstrip() + ",\n")
    assert [r["seeds"] for r in json.loads(text)] == [[1, 2, 3], [5]]
    assert doc["earlier_seeds"] == [1, 2, 3]


def test_a_failing_run_stops_the_pairs(tmp_path):
    out = _checkouts(tmp_path)
    (tmp_path / "change" / "perfbench" / "run.py").write_text("raise SystemExit('broken')")
    res = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / "parent"),
                          str(tmp_path / "change"), "--workload", "w", "--seeds", "1",
                          "--out", str(out)], capture_output=True, text=True)
    assert res.returncode != 0 and "broken" in res.stderr
    assert not (out / "BENCH_w.json").exists()


def test_records_carry_both_sides_quartiles_and_print_their_spreads(tmp_path):
    out = _checkouts(tmp_path)
    # a record of the earlier form, without change quartiles, stays as written
    old = {"seeds": [50], "summary": {"task_s.p50": {"parent_quartiles": [1, 2]}}}
    (out / "BENCH_w.json").write_text(json.dumps([old], indent=2) + "\n")
    before = (out / "BENCH_w.json").read_text()
    stdout, doc = _pairs(tmp_path, out, "1-10")
    after = (out / "BENCH_w.json").read_text()
    assert after.startswith(before.rstrip()[:-1].rstrip() + ",\n")
    assert json.loads(after)[0] == old
    # change task times: 0.41, 0.42, 0.53 (seed 3), 0.44, ..., 0.50
    task = doc["summary"]["task_s.p50"]
    assert [round(q, 6) for q in task["parent_quartiles"]] == [0.5325, 0.5775]
    assert [round(q, 6) for q in task["change_quartiles"]] == [0.4425, 0.4875]
    assert all(len(s["change_quartiles"]) == 2 for s in doc["summary"].values())
    assert ("task_s.p50: 0.555 -> 0.465 (parent quartiles 0.5325-0.5775, IQR 8.1% of median; "
            "change quartiles 0.4425-0.4875, IQR 9.7% of median), change better in 9 of 10"
            in stdout)


# Per metric, one case of each verdict: setup_s and peak_rss_mb worse than
# their bounds on steady parents; task_s.p50 worse on a parent whose spread
# (IQR 29% of its median) exceeds the bound; task_s.tail as spread but every
# change run better; tasks_per_s 10% worse, inside its bound.
VERDICTS = RUNNER.split("task = ")[0] + '''
wide = 1.0 + 0.1 * seed
parent = {"setup_s": 1.0, "task_s.p50": wide, "task_s.tail": wide, "tasks_per_s": 10.0,
          "peak_rss_mb": 100.0}
change = {"setup_s": 1.5, "task_s.p50": 1.3 * wide, "task_s.tail": 0.5, "tasks_per_s": 9.0,
          "peak_rss_mb": 111.0}
metrics = parent if side == "parent" else change
print(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
'''


def test_each_metric_is_judged_against_its_bound(tmp_path):
    out = _checkouts(tmp_path, VERDICTS)
    stdout, doc = _pairs(tmp_path, out, "1-10")
    summary = doc["summary"]
    assert {name: (s["bound"], s["verdict"]) for name, s in summary.items()} == {
        "setup_s": (0.25, "worse than bound"),
        "task_s.p50": (0.25, "unresolved"),
        "task_s.tail": (0.25, "within bound"),
        "tasks_per_s": (0.25, "within bound"),
        "peak_rss_mb": (0.1, "worse than bound")}
    assert "change better in 0 of 10; worse than bound (bound 10%)" in stdout
    assert "change better in 0 of 10; unresolved (bound 25%)" in stdout
    # the spread alone does not decide: with the parent steady, 30% worse is
    # worse than bound
    steady = VERDICTS.replace("wide = 1.0 + 0.1 * seed", "wide = 1.0")
    (tmp_path / "parent" / "perfbench" / "run.py").write_text(steady)
    (tmp_path / "change" / "perfbench" / "run.py").write_text(steady)
    _, doc = _pairs(tmp_path, out, "11-20")
    assert doc["summary"]["task_s.p50"]["verdict"] == "worse than bound"
    assert doc["summary"]["task_s.tail"]["verdict"] == "within bound"
