"""The four benchmark workloads.

Each task performs the library calls of one CLI command, so its verdict
means what that command's ``ok`` rows mean.  Inputs come from the workload
seed and the task index only; the library receives the generated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    figures: tuple  # the numbers the verdict was judged on

    def same_as(self, other: "Verdict") -> bool:
        return (self.ok == other.ok and len(self.figures) == len(other.figures)
                and all(math.isclose(a, b, rel_tol=0.0, abs_tol=1e-12)
                        for a, b in zip(self.figures, other.figures)))


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Workload:
    name: str
    why: str
    command: str
    # Per-layer metrics this workload exists to exercise; a traced run in
    # which one of them reads zero fails its coverage check.
    covers: tuple[str, ...]

    def inputs(self, seed: int, index: int):
        """Inputs of task ``index``; deterministic in (seed, index)."""
        return None

    def task(self, ql, inputs) -> Verdict:
        raise NotImplementedError


class DecodeN8(Workload):
    name = "decode-n8"
    why = ("20-qubit single-branch vectors: kernels and decoding dominate, and a fresh "
           "database per task keeps the permutation cache cold")
    command = "qpirlab correctness --n 8"
    covers = ("channels.apply.calls", "channels.hadamard.calls", "channels.ip_cnot.calls",
              "channels.select_phase.calls", "runtime.execute.calls",
              "runtime.Ensemble.probabilities.calls", "protocols.build.calls",
              "protocols.decode.calls", "states.PureState.calls")

    def inputs(self, seed, index):
        return tuple(int(b) for b in _rng(seed, index).integers(0, 2, size=8))

    def task(self, ql, db):
        n = len(db)
        inst = ql.build_kerenidis(n, database=db)
        index = ql.PureState(ql.RegisterLayout(((inst.index_register, inst.levels),)),
                             np.full(n, 1 / math.sqrt(n), dtype=complex))
        tr = inst.run(input_state=index, keep_states=False)
        ok, probs = True, []
        for i in range(1, n + 1):
            bit, prob = inst.decode(tr, i)
            ok = ok and bit == db[i - 1] and prob >= 1 - TOL
            probs.append(prob)
        return Verdict(ok, tuple(probs))


class PrivacyN4(Workload):
    name = "privacy-n4"
    why = ("112 executes on 15-qubit states and 528 pairwise view distances: runtime "
           "per-call overhead, traced/aligned views and QR distances")
    command = "qpirlab privacy --n 4"
    covers = ("runtime.execute.calls", "runtime.Ensemble.traced.calls",
              "runtime.Ensemble.aligned_vectors.calls",
              "distances.ensemble_trace_distance.calls", "adversaries.standard_inputs.calls",
              "privacy.privacy_lower_bound.calls", "privacy.rows", "channels.apply.calls")

    def task(self, ql, _):
        report = ql.privacy_lower_bound(ql.build_kerenidis(4))
        ok = report.eps_lower <= TOL and len(report.rows) == 528
        return Verdict(ok, (report.eps_lower, len(report.rows)))


class ReconstructN4(Workload):
    name = "reconstruct-n4"
    why = ("dense 1024x1024 linear algebra in gentle measurement, trace distance and "
           "density operators; carries the memory metric")
    command = "qpirlab attack reconstruct --n 4"
    covers = ("bounds.extraction_attack.calls", "bounds.gentle_measure.calls",
              "bounds.chain_rule_check.calls", "distances.trace_distance.calls",
              "distances.uhlmann_unitary.calls", "states.DensityOperator.calls",
              "runtime.Ensemble.reduced.calls", "runtime.execute.calls")

    def task(self, ql, _):
        inst = ql.build_kerenidis(4)
        trace = ql.extraction_attack(inst, "coherent-reference")
        check = ql.chain_rule_check(inst, trace)
        ok = abs(trace.overall - 1 / 8) <= TOL and check.consistent
        return Verdict(ok, (trace.overall, check.ceiling))


class SpeciousN2(Workload):
    name = "specious-n2"
    why = ("tiny multi-branch ensembles from measurements and lossy rotations: per-call "
           "overhead; the only workload on adversaries and the privacy simulators")
    command = "qpirlab suite all (n=2 adversarial block)"
    covers = ("channels.measure.calls", "channels.rotate.calls",
              "adversaries.measure_speciousness.calls", "adversaries.apply_recovery.calls",
              "adversaries.standard_inputs.calls", "privacy.privacy_lower_bound.calls",
              "privacy.certify.calls", "privacy.verify_theorem_bound.calls",
              "distances.ensemble_trace_distance.calls", "runtime.execute.calls")

    def inputs(self, seed, index):
        # Rotation angles of the lossy specious family, inside (0, 0.5).
        return tuple(float(t) for t in _rng(seed, index).uniform(0.01, 0.49, size=3))

    def task(self, ql, thetas):
        cx = ql.build_counterexample(2)
        purified = ql.purified_honest(cx)
        gamma = ql.measure_speciousness(cx, purified).gamma_hat
        honest_eps = ql.privacy_lower_bound(cx).eps_lower
        broken_eps = ql.privacy_lower_bound(cx, purified).eps_lower

        inst = ql.build_kerenidis(2)
        attack = ql.privacy_lower_bound(inst, ql.purification_attack(inst))
        advantage = max(r.distance for r in attack.rows)

        family = [ql.gamma_family(inst, t, lossy=True) for t in thetas]
        rows = ql.verify_theorem_bound(inst, family, tolerance=1e-6)

        ok = (honest_eps <= TOL
              and abs(broken_eps - 0.25) <= TOL and broken_eps > 0.1 and gamma <= TOL
              and abs(advantage - 0.5) <= TOL and advantage > 0.05
              and len(rows) == len(thetas) and all(r.ok for r in rows))
        figures = (honest_eps, broken_eps, gamma, advantage,
                   *(v for r in rows for v in (r.gamma_hat, r.eps_hat, r.bound)))
        return Verdict(ok, figures)


WORKLOADS = {w.name: w for w in (DecodeN8(), PrivacyN4(), ReconstructN4(), SpeciousN2())}
