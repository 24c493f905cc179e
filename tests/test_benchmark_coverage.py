"""The benchmark's coverage contract, checked in-process.

``perfbench/run.py --trace 1`` fails a workload when one of its ``covers``
metrics reads zero, when an exact count does not repeat on the same task or
when a timed function is still bound unwrapped somewhere.  A kernel or a
path that the spans do not see trips those checks; this runs one task of
each workload twice under ``perfbench.spans.install`` and asserts the same
three conditions, without the benchmark's timed loops.
"""

import sys
from pathlib import Path

import pytest

import qpirlab

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# The executes of one task of each workload.  specious-n2 makes 29: 6 for
# its three lower bounds, 16 for its four meters, 1 for the honest
# certificate, and an adversarial and an honest run for each of the three
# theorem certificates, which also hold the theorem simulators' anchors.
EXECUTES = {"decode-n8": 1, "privacy-n4": 1, "reconstruct-n4": 4, "specious-n2": 29}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_task_covers_its_metrics_and_repeats_its_counts(name):
    workload = WORKLOADS[name]
    inputs = workload.inputs(31999, 0)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert spans.unwrapped_bindings() == []
        verdicts = [tracer.run_task(lambda: workload.task(qpirlab, inputs)) for _ in range(2)]
    finally:
        spans.uninstall(undo)
    assert all(v.ok for v in verdicts)
    first, second = tracer.task_totals
    assert [m for m in workload.covers if not first[m]] == []
    assert {m: (first[m], second[m]) for m in spans.EXACT_COUNTS if first[m] != second[m]} == {}
    assert first["runtime.execute.calls"] == EXECUTES[name]
