"""Layer spans recorded from outside the library.

The benchmark never edits ``qpirlab``.  Instead :func:`install` replaces each
timed public function of a layer module with a wrapper at every place the
function is bound: the defining module, every module that imported it by
name, and the package namespace.  Methods are replaced on their class.  Each
wrapper records one span (name, start, end, parent) and, for a few spans,
feeds counts to an observer.

A span's self time is its duration minus the durations of its child spans;
the root span of a task has no layer, so its self time is the task time no
layer accounts for (``bench.unattributed_s``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT_SPAN = "bench.task"

# Channel op class -> per-kind span name (``channels.<kind>``).
CHANNEL_KINDS = {
    "HadamardOp": "hadamard",
    "InnerProductCnotOp": "ip_cnot",
    "SelectPhaseOp": "select_phase",
    "SelectCnotOp": "select_cnot",
    "SelectFlipOp": "select_flip",
    "CnotOp": "cnot",
    "CopyOp": "copy",
    "SwapOp": "swap",
    "RotateOp": "rotate",
    "PrepareOp": "prepare",
    "MeasureOp": "measure",
    "DenseOp": "dense",
}

# (module, attribute, span): module functions, wrapped at every binding site.
FUNCTION_SPANS = (
    ("runtime", "execute", "runtime.execute"),
    ("protocols", "build_kerenidis", "protocols.build"),
    ("protocols", "build_baseline", "protocols.build"),
    ("protocols", "build_counterexample", "protocols.build"),
    ("protocols", "decode_output", "protocols.decode"),
    ("protocols", "decode_distribution", "protocols.decode"),
    ("distances", "ensemble_trace_distance", "distances.ensemble_trace_distance"),
    ("distances", "trace_distance", "distances.trace_distance"),
    ("distances", "uhlmann_unitary", "distances.uhlmann_unitary"),
    ("distances", "gram_reduce", "distances.gram_reduce"),
    ("adversaries", "standard_inputs", "adversaries.standard_inputs"),
    ("adversaries", "measure_speciousness", "adversaries.measure_speciousness"),
    ("adversaries", "apply_recovery", "adversaries.apply_recovery"),
    ("privacy", "privacy_lower_bound", "privacy.privacy_lower_bound"),
    ("privacy", "verify_theorem_bound", "privacy.verify_theorem_bound"),
    ("bounds", "extraction_attack", "bounds.extraction_attack"),
    ("bounds", "gentle_measure", "bounds.gentle_measure"),
    ("bounds", "chain_rule_check", "bounds.chain_rule_check"),
)

# (module, class, method, span): methods, replaced on the class.  A state's
# span covers its construction-time validation.  Both simulators' certify
# loops share one span.
METHOD_SPANS = (
    ("runtime", "Ensemble", "traced", "runtime.Ensemble.traced"),
    ("runtime", "Ensemble", "reduced", "runtime.Ensemble.reduced"),
    ("runtime", "Ensemble", "probabilities", "runtime.Ensemble.probabilities"),
    ("runtime", "Ensemble", "aligned_vectors", "runtime.Ensemble.aligned_vectors"),
    ("states", "PureState", "__post_init__", "states.PureState"),
    ("states", "DensityOperator", "__init__", "states.DensityOperator"),
    ("privacy", "TheoremSimulator", "certify", "privacy.certify"),
    ("privacy", "HonestSimulator", "epsilon_upper", "privacy.certify"),
) + tuple(("channels", cls, "apply_vectors", f"channels.{kind}")
          for cls, kind in CHANNEL_KINDS.items())

SPAN_NAMES = tuple(dict.fromkeys(
    [s for *_, s in FUNCTION_SPANS] + [s for *_, s in METHOD_SPANS]))

# Counts a traced run must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "runtime.execute.calls",
    "channels.apply.calls",
    "channels.apply.bytes",
    "privacy.rows",
    "runtime.branches.max",
    "runtime.qubits.max",
)


# Where each layer metric should show end to end, by metric-name prefix
# (longest prefix wins).  A change that moves a layer metric is expected to
# move the named end-to-end metric on the named workloads, and no other.
MOVES = {
    "channels.": "task_s.p50, tasks_per_s on decode-n8, privacy-n4; peak_rss_mb on "
                 "decode-n8; not reconstruct-n4",
    "runtime.": "task_s.p50 on privacy-n4, specious-n2",
    "runtime.Ensemble.probabilities.": "task_s.p50 on privacy-n4, specious-n2, decode-n8",
    "protocols.": "task_s.p50 on decode-n8",
    "distances.": "task_s.p50 on reconstruct-n4",
    "distances.ensemble_trace_distance.": "task_s.p50 on privacy-n4, specious-n2",
    "states.": "task_s.p50, peak_rss_mb on reconstruct-n4; task_s.p50 on decode-n8",
    "adversaries.": "task_s.p50 on specious-n2",
    "adversaries.standard_inputs.": "task_s.p50 on specious-n2, privacy-n4",
    "privacy.": "task_s.p50 on privacy-n4, specious-n2",
    "bounds.": "task_s.p50 on reconstruct-n4",
    "bench.": "task_s.p50 on every workload",
    "trace.": "none (tracing cost)",
}


def moves(metric: str) -> str:
    """The end-to-end metric and workloads a per-layer metric should move."""
    best = max((p for p in MOVES if metric.startswith(p)), key=len)
    return MOVES[best]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["channels.apply.calls", "channels.apply.self_s",
             "channels.apply.bytes", "channels.apply.branch_ratio"]
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_s"]
    names += ["runtime.branches.max", "runtime.qubits.max", "privacy.rows",
              "bench.unattributed_s", "trace.overhead_s"]
    return names


def per_layer_unit(metric: str) -> str:
    """The unit a per-layer metric is reported in."""
    if metric.endswith("_s"):
        return "s"
    return {"channels.apply.bytes": "B", "channels.apply.branch_ratio": "ratio"}.get(
        metric, "count")


def self_times(spans) -> dict[str, list]:
    """``{name: [calls, self_seconds]}`` for spans ``(name, start, end, parent)``.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.  Spans
    of one thread nest, so the children of a span cover the sum of their
    durations.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), covered in zip(spans, child):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += (end - start) - covered
    return out


class Tracer:
    """Spans and counters of the current task, plus per-task totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.task_totals: list[dict[str, float]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return functools.wraps(fn)(traced)

    def run_task(self, task):
        """Run ``task()`` under a root span and store the task's metrics.

        Exceptions propagate after the task's metrics are stored.
        """
        self.spans.clear()
        self.counts.clear()
        try:
            return self.wrap(ROOT_SPAN, task)()
        finally:
            self.task_totals.append(self._task_metrics())

    def _task_metrics(self) -> dict[str, float]:
        per_span = self_times(self.spans)
        m: dict[str, float] = {}
        for span in SPAN_NAMES:
            calls, self_s = per_span.get(span, (0, 0.0))
            m[f"{span}.calls"] = calls
            m[f"{span}.self_s"] = self_s
        kinds = [f"channels.{k}" for k in CHANNEL_KINDS.values()]
        m["channels.apply.calls"] = sum(m[f"{k}.calls"] for k in kinds)
        m["channels.apply.self_s"] = sum(m[f"{k}.self_s"] for k in kinds)
        c = self.counts
        m["channels.apply.bytes"] = c["channels.bytes"]
        m["channels.apply.branch_ratio"] = (
            c["channels.branches_out"] / c["channels.branches_in"]
            if c["channels.branches_in"] else 0.0)
        m["runtime.branches.max"] = c["runtime.branches.max"]
        m["runtime.qubits.max"] = c["runtime.qubits.max"]
        m["privacy.rows"] = c["privacy.rows"]
        _, start, end, _ = self.spans[0]  # the root span opens first
        m["bench.task_s"] = end - start
        m["bench.unattributed_s"] = per_span[ROOT_SPAN][1]
        return m


# ---------------------------------------------------------------------------
# observers: counts gathered where the work happens
# ---------------------------------------------------------------------------


def _observe_channel(counts, args, out):
    # apply_vectors(self, vectors, layout) -> list of output branch vectors.
    vectors = args[1]
    counts["channels.branches_in"] += len(vectors)
    counts["channels.branches_out"] += len(out)
    amplitudes = sum(v.size for v in vectors) + sum(v.size for v in out)
    counts["channels.bytes"] += 16 * amplitudes  # complex128


def _observe_ensemble(counts, ens):
    counts["runtime.branches.max"] = max(counts["runtime.branches.max"], len(ens.vectors))
    counts["runtime.qubits.max"] = max(counts["runtime.qubits.max"], ens.layout.total_qubits)


def _observe_execute(counts, args, transcript):
    _observe_ensemble(counts, transcript.final)


def _observe_privacy_report(counts, args, report):
    counts["privacy.rows"] += len(report.rows)


def _observe_certify(counts, args, out):
    counts["privacy.rows"] += len(out[1])


_OBSERVERS = {
    "runtime.execute": _observe_execute,
    "privacy.privacy_lower_bound": _observe_privacy_report,
    "privacy.certify": _observe_certify,
    **{f"channels.{k}": _observe_channel for k in CHANNEL_KINDS.values()},
}


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def install(tracer: Tracer, package: str = "qpirlab"):
    """Wrap every timed function and method of ``package``; returns an undo
    list of ``(owner, attribute, original)``."""
    mods = {m.__name__: m for m in _package_modules(package)}
    undo = []
    for mod_name, attr, span in FUNCTION_SPANS:
        orig = getattr(mods[f"{package}.{mod_name}"], attr)
        wrapped = tracer.wrap(span, orig, _OBSERVERS.get(span))
        for mod in mods.values():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, meth, span in METHOD_SPANS:
        cls = getattr(mods[f"{package}.{mod_name}"], cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, tracer.wrap(span, orig, _OBSERVERS.get(span)))

    # Ensemble.apply is the one place every evolved ensemble passes through;
    # it feeds the branch and width maxima without a span of its own.
    ensemble = mods[f"{package}.runtime"].Ensemble
    apply = ensemble.__dict__["apply"]

    def observed_apply(self, op):
        out = apply(self, op)
        _observe_ensemble(tracer.counts, out)
        return out

    undo.append((ensemble, "apply", apply))
    ensemble.apply = observed_apply
    return undo


def uninstall(undo) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def unwrapped_bindings(package: str = "qpirlab") -> list[str]:
    """Binding sites that still hold an original timed function (should be
    empty after :func:`install`)."""
    mods = {m.__name__: m for m in _package_modules(package)}
    originals = {}
    for mod_name, attr, _ in FUNCTION_SPANS:
        fn = getattr(mods[f"{package}.{mod_name}"], attr)
        originals[id(getattr(fn, "__wrapped__", fn))] = attr
    missed = []
    for mod in mods.values():
        for key, value in vars(mod).items():
            if id(value) in originals and not hasattr(value, "__wrapped__"):
                missed.append(f"{mod.__name__}.{key}")
    return missed
