"""Layered benchmark for qpirlab.

Usage, from the repository root:

    python3 perfbench/run.py --workload decode-n8 --seed 1 --seconds 15 --trace 0

One process, one caller, closed loop: the next task starts when the previous
one has finished and its verdict has been checked.  A task is the library
work of one CLI command (see ``workloads.py``); a task whose verdict fails or
that raises is counted, never dropped.

``--trace 0`` reports the end-to-end metrics.  Times are scaled to the
speed of a reference machine by a calibration job timed between tasks (see
``Calibration``); the raw wall times are printed beside them and kept in the
manifest.

``--trace 1`` first runs the tasks untraced for half the time, then wraps
every layer's public functions (``spans.py``), runs the same tasks again and
reports the per-layer metrics: per-task means of span self times (raw), and
the call and byte counts of the first traced task, which a second traced run
of that task must repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable table and a JSON run manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import spans
from summary import Tally, median, tail

# BLAS threads, fixed before numpy loads so that every run uses the same count.
BLAS_THREADS = 1

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Set-ups per run; setup_s is their median.
SETUPS = 3
# A run times at least this many tasks, however long they take.
MIN_TASKS = 3
END_TO_END = ("setup_s", "task_s.p50", "task_s.tail", "tasks_per_s", "peak_rss_mb")
# Traced self time outside every layer span may be at most this share.
UNATTRIBUTED_SHARE = 0.05

BYTES_LABEL = ("computed as 16 B x (input + output amplitudes) per channel apply; "
               "in-cache: a 20-qubit vector is 16 MiB against the 300 MiB L3 of the "
               "reference machine, so this is not a DRAM-bandwidth figure")


def _parse(argv):
    from workloads import WORKLOADS  # loads numpy, so only after BLAS_THREADS is set

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args, WORKLOADS[args.workload]


def _fresh_qpirlab():
    """Import qpirlab from scratch, dropping any copy already loaded, so each
    set-up pays module execution and starts with empty caches."""
    for name in [n for n in sys.modules if n == "qpirlab" or n.startswith("qpirlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("qpirlab")


class Calibration:
    """Machine speed, from a fixed reference job timed between tasks.

    The shared machine this benchmark was tuned on runs the same code up to
    ~30% slower for minutes at a time; run-to-run spread of raw wall time is
    mostly that.  The reference job (a few small dense eigensolves, no
    qpirlab code) is timed before every set-up and task, and reported times
    are scaled by ``REFERENCE_S / median(job time)``: seconds at the speed
    the reference figure was taken at.  Raw wall times go in the manifest.
    """

    # Median job time on the reference machine (Xeon, 2 vCPUs, 1 BLAS thread).
    REFERENCE_S = 0.0175
    REPEATS = 5

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).normal(size=(192, 192))
        self._matrix = a + a.T
        self._eigh = np.linalg.eigh
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.REPEATS):
            self._eigh(self._matrix)
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Seconds of the reference machine per second of this run."""
        return self.REFERENCE_S / median(self.samples)


def _setup(workload, seed, tally):
    """One set-up: import, input generation and one untimed warm-up task.
    Returns (seconds, module)."""
    t0 = time.perf_counter()
    ql = _fresh_qpirlab()
    warm = workload.inputs(seed, 1 << 30)  # an index no timed task uses
    tally.run(lambda: workload.task(ql, warm))
    return time.perf_counter() - t0, ql


def _measure(workload, ql, seed, seconds, tally, calibration, runner=None):
    """Closed loop over task indices 0, 1, ... for about ``seconds``.

    Stops before a task that would, at the last task's pace, end past the
    budget, once ``MIN_TASKS`` have run.  Returns the task durations.
    """
    durations: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        inputs = workload.inputs(seed, index)
        calibration.sample()
        t0 = time.perf_counter()
        if runner is None:
            tally.run(lambda: workload.task(ql, inputs))
        else:
            tally.run(lambda: runner(lambda: workload.task(ql, inputs)))
        durations.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_TASKS and elapsed + durations[-1] > seconds:
            return durations


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qpirlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _manifest(args, workload, tail, extra):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "why": workload.why,
        "cli_equivalent": workload.command,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, no benchmark threads",
        "setups": SETUPS,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "tail_percentile": tail.percentile,
        "tail_samples": tail.samples,
        "tail_samples_beyond": tail.beyond,
        "tail_resolved": tail.resolved,
        **extra,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")


def _untraced(args, workload, ql, tally, setup_s, calibration):
    durations = _measure(workload, ql, args.seed, args.seconds, tally, calibration)
    verified = sum(1 for v in tally.verdicts[SETUPS:] if v is not None and v.ok)
    t = tail(durations)
    raw = dict(zip(END_TO_END[:4], [
        setup_s, median(durations), t.value, verified / sum(durations)]))
    f = calibration.factor
    metrics = {k: (v / f, "1/s") if k == "tasks_per_s" else (v * f, "s")
               for k, v in raw.items()}
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    notes = {k: f"raw {v:.6g}" for k, v in raw.items()}
    notes["task_s.tail"] += (f"; p{t.percentile:g} of {t.samples} tasks, {t.beyond} beyond"
                             + ("" if t.resolved else " (fewer than 20 tasks: median rank)"))
    notes["tasks_per_s"] += f"; {verified} verified tasks"
    rows = [(k, v, u, notes.get(k, "")) for k, (v, u) in metrics.items()]
    rows.append(("fail_ratio", tally.fail_ratio, "1",
                 f"{tally.failed} failed of {tally.attempted} attempted"))
    _print_table(rows)
    extra = {"fail_ratio": tally.fail_ratio, "raw": raw, "task_s_each": durations}
    return metrics, t, extra, []


def _traced(args, workload, ql, tally, setup_s, calibration):
    half = max(1.0, args.seconds / 2.0)
    plain = _measure(workload, ql, args.seed, half, tally, calibration)
    plain_verdicts = tally.verdicts[SETUPS:]

    tracer = spans.Tracer()
    spans.install(tracer)
    problems = [f"binding not wrapped: {b}" for b in spans.unwrapped_bindings()]
    traced = _measure(workload, ql, args.seed, half, tally, calibration,
                      runner=tracer.run_task)
    traced_verdicts = tally.verdicts[SETUPS + len(plain):]
    per_task = list(tracer.task_totals)

    for i, (a, b) in enumerate(zip(plain_verdicts, traced_verdicts)):
        if a is None or b is None or not a.same_as(b):
            problems.append(f"task {i}: traced verdict {b} differs from untraced {a}")

    # The first traced task once more: its counts must repeat exactly.
    first = workload.inputs(args.seed, 0)
    tally.run(lambda: tracer.run_task(lambda: workload.task(ql, first)))
    repeat = tracer.task_totals[-1]
    for name in spans.EXACT_COUNTS:
        if per_task[0][name] != repeat[name]:
            problems.append(f"{name} did not repeat: {per_task[0][name]} then {repeat[name]}")

    # Times are per-task means over the traced tasks; counts are those of
    # the first traced task, which the repeat above reproduced.
    metrics = {}
    for name in spans.per_layer_names():
        if name == "trace.overhead_s":
            value = median(traced) - median(plain)
        elif name.endswith("_s"):
            value = sum(m[name] for m in per_task) / len(per_task)
        else:
            value = per_task[0][name]
        metrics[name] = (value, spans.per_layer_unit(name))

    for name in workload.covers:
        if not metrics[name][0]:
            problems.append(f"coverage: {name} reads zero on {workload.name}")
    task_mean = sum(m["bench.task_s"] for m in per_task) / len(per_task)
    share = metrics["bench.unattributed_s"][0] / task_mean
    if share >= UNATTRIBUTED_SHARE:
        problems.append(f"bench.unattributed_s is {share:.1%} of traced task time")

    notes = {"channels.apply.bytes": "computed, in-cache; ",
             "bench.unattributed_s": f"{share:.2%} of traced task time; ",
             "trace.overhead_s": "traced minus untraced task_s.p50; "}
    _print_table([(k, v, u, notes.get(k, "") + "moves " + spans.moves(k))
                  for k, (v, u) in metrics.items()])
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    extra = {"fail_ratio": tally.fail_ratio, "tasks_untraced": len(plain),
             "tasks_traced": len(traced), "traced_task_s_mean": task_mean,
             "channels.apply.bytes": BYTES_LABEL, "checks_failed": problems}
    return metrics, tail(traced), extra, problems


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    args, workload = _parse(argv)
    if not (SRC / "qpirlab" / "__init__.py").is_file():
        print(f"qpirlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally = Tally()
    calibration = Calibration()
    setup_times = []
    for _ in range(SETUPS):
        calibration.sample()
        seconds, ql = _setup(workload, args.seed, tally)
        setup_times.append(seconds)
    setup_s = median(setup_times)

    print(f"qpirlab benchmark: {workload.name} (seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace})")
    run = _traced if args.trace else _untraced
    metrics, tail, extra, problems = run(args, workload, ql, tally, setup_s, calibration)
    extra["setup_s_each"] = setup_times
    extra["machine_factor"] = calibration.factor
    print("manifest " + json.dumps(_manifest(args, workload, tail, extra)))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
