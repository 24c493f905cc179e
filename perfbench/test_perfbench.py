"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from summary import Tally, tail  # noqa: E402
from workloads import WORKLOADS, Verdict, Workload  # noqa: E402


# -- tail percentile selection ------------------------------------------------


@pytest.mark.parametrize("n, percentile, beyond", [
    (10000, 99.9, 10),
    (1000, 99.0, 10),
    (999, 95.0, 49),
    (47, 75.0, 11),
    (40, 75.0, 10),
    (39, 50.0, 19),
    (20, 50.0, 10),
])
def test_tail_picks_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    t = tail(samples)
    assert (t.percentile, t.beyond, t.samples) == (percentile, beyond, n)
    assert t.value == n - beyond  # the rank's own value, from sorted order
    assert t.resolved


def test_tail_with_too_few_samples_reports_median_rank_unresolved():
    t = tail([5.0, 1.0, 3.0])
    assert (t.percentile, t.value, t.beyond, t.resolved) == (50.0, 3.0, 1, False)
    assert not tail(range(19)).resolved
    with pytest.raises(ValueError):
        tail([])


# -- self time on a span tree -------------------------------------------------


def test_self_times_subtract_child_spans():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 3.5, 4.5, 1),
        ("c", 7.0, 9.0, 0),
        ("b", 7.5, 8.0, 4),
    ]
    got = spans.self_times(tree)
    assert got == {"root": [1, 3.0], "a": [1, 3.0], "b": [3, 2.5], "c": [1, 1.5]}
    assert sum(s for _, s in got.values()) == 10.0  # self times tile the root


def test_tracer_records_nesting_and_unattributed_time():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("runtime.execute", lambda: None)
    outer = tracer.wrap("privacy.privacy_lower_bound", lambda: inner())
    tracer.run_task(outer)
    m = tracer.task_totals[-1]
    # root 0..8, outer 1..5, inner 2..4
    assert m["bench.task_s"] == 8.0
    assert m["bench.unattributed_s"] == 4.0
    assert m["privacy.privacy_lower_bound.self_s"] == 2.0
    assert (m["runtime.execute.calls"], m["runtime.execute.self_s"]) == (1, 2.0)


# -- failure accounting -------------------------------------------------------


def test_tally_counts_false_verdicts_and_raising_tasks():
    tally = Tally()

    def boom():
        raise RuntimeError("task blew up")

    results = [tally.run(lambda: Verdict(True, ())), tally.run(lambda: Verdict(False, ())),
               tally.run(boom), tally.run(lambda: Verdict(True, ()))]
    assert results[2] is None
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5


class _FlakyWorkload(Workload):
    name = "flaky"

    def inputs(self, seed, index):
        return index

    def task(self, ql, index):
        if index == 1:
            raise ValueError("bad input")
        return Verdict(index != 2, (float(index),))


def test_measure_loop_keeps_going_past_failures():
    tally = Tally()
    durations = run._measure(_FlakyWorkload(), None, 0, 0.0, tally, run.Calibration())
    assert len(durations) == run.MIN_TASKS == tally.attempted
    assert tally.failed == 2 and tally.verdicts[1] is None


# -- wrappers at every binding site, exact counts --------------------------------


def test_install_wraps_every_binding_site_and_uninstall_restores():
    import qpirlab

    assert spans.unwrapped_bindings()  # before: originals everywhere
    undo = spans.install(spans.Tracer())
    try:
        assert spans.unwrapped_bindings() == []
        for mod in (qpirlab, qpirlab.privacy, qpirlab.adversaries, qpirlab.bounds,
                    qpirlab.protocols, qpirlab.runtime):
            assert hasattr(mod.execute, "__wrapped__"), mod.__name__
    finally:
        spans.uninstall(undo)
    assert not hasattr(qpirlab.privacy.execute, "__wrapped__")
    assert qpirlab.privacy.execute is qpirlab.runtime.execute


def test_traced_counts_repeat_and_match_untraced_result():
    import qpirlab as ql

    def task():
        return ql.privacy_lower_bound(ql.build_kerenidis(2))

    plain = task()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        first = tracer.run_task(task)
        tracer.run_task(task)
    finally:
        spans.uninstall(undo)
    a, b = tracer.task_totals
    assert first.eps_lower == plain.eps_lower and len(first.rows) == len(plain.rows)
    assert a["privacy.rows"] == len(plain.rows) > 0
    assert a["runtime.execute.calls"] > 0 and a["channels.apply.calls"] > 0
    for name in spans.EXACT_COUNTS:
        assert a[name] == b[name], name


# -- the declared benchmark matches the code -----------------------------------


def test_benchmark_json_matches_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == spans.per_layer_names()
    assert all(m["unit"] == spans.per_layer_unit(m["name"]) for m in declared["per_layer"])


@pytest.mark.parametrize("workload", list(WORKLOADS.values()), ids=list(WORKLOADS))
def test_coverage_names_are_reported_metrics(workload):
    assert set(workload.covers) <= set(spans.per_layer_names())
