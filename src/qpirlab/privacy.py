"""Anchored-privacy verification, lower bounds, and simulator certificates.

Every figure here is a distance between server views.  The one definition
of the view is :meth:`ExecutionTranscript.server_view`: at step ``t`` it is
everything on the server's side plus the in-flight messages, keeping any
reference registers.  One runner, ``_server_views``, executes a spec on a
test input and takes its views at the even steps; one comparison,
:meth:`Ensemble.distance`, aligns two views by register name and measures
them.  Views are handled as low-rank ensembles (branch vectors
componentized over the traced-out client side), so distances stay cheap
even when the view itself is large.

Lower bounds need no simulator: two runs that any one simulator state must
approximate within eps sit within 2 eps of each other, so half the largest
pairwise view distance over inputs sharing a database state and a
reference-marginal class certifies a floor under every achievable eps.

Upper bounds come from explicit simulators: the honest-protocol simulator
(rerun with the client input pinned to 1) and the specious-adversary
simulator assembled from an extracted anchor state, the inverted purified
recovery, and the honest simulator.  Both are scored by one certificate
loop over the standard anchored inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .adversaries import Adversary, InputSpec, standard_inputs
from .channels import (
    ChannelOp,
    CnotOp,
    CopyOp,
    HadamardOp,
    InnerProductCnotOp,
    RotateOp,
    SelectCnotOp,
    SelectFlipOp,
    SelectPhaseOp,
    SwapOp,
)
from .distances import trace_in_extraction
from .protocols import QpirInstance
from .runtime import (
    Ensemble,
    ExecutionTranscript,
    ProtocolShapeError,
    ProtocolSpec,
    execute,
)
from .states import PureState

__all__ = [
    "PrivacyRow",
    "PrivacyReport",
    "privacy_lower_bound",
    "HonestSimulator",
    "honest_simulator",
    "TheoremSimulator",
    "theorem_simulator",
    "verify_theorem_bound",
    "is_measurement_free",
]


def is_measurement_free(spec: ProtocolSpec) -> bool:
    return all(
        op.kind == "isometry"
        for prog in (spec.server, spec.client)
        for st in prog.steps
        for op in st.ops
    )


def _even_steps(spec: ProtocolSpec) -> list[int]:
    return [2 * t for t in range(1, spec.rounds + 1)]


def _server_views(spec: ProtocolSpec, state, steps) -> dict[int, Ensemble]:
    """The server's view at each of ``steps`` in one run of ``spec``."""
    tr = execute(spec, state, probe_steps=steps, keep_states=False)
    return {t: tr.server_view(t) for t in steps}


@dataclass(frozen=True)
class PrivacyRow:
    step: int
    x_label: str
    pair: tuple[str, str]
    distance: float
    required: bool  # inside the definition's range t <= s-1

    def as_dict(self) -> dict:
        return {"step": self.step, "x": self.x_label, "pair": list(self.pair),
                "distance": self.distance, "required": self.required}


@dataclass(frozen=True)
class PrivacyReport:
    mode: str
    protocol: str
    adversary: str
    rows: tuple[PrivacyRow, ...]
    eps_lower: float
    eps_upper: float | None = None
    target: float | None = None

    def __post_init__(self):
        if self.eps_upper is not None and self.eps_lower > self.eps_upper + 1e-9:
            raise ValueError(
                f"lower bound {self.eps_lower} exceeds upper bound {self.eps_upper}"
            )

    @property
    def passed(self) -> bool | None:
        if self.target is None:
            return None
        return self.eps_lower <= self.target + 1e-9

    def as_rows(self) -> list[dict]:
        meta = {"mode": self.mode, "protocol": self.protocol, "adversary": self.adversary}
        return [dict(meta, **r.as_dict()) for r in self.rows]


def privacy_lower_bound(instance: QpirInstance, adversary: Adversary | None = None,
                        mode: str = "anchored", *,
                        target: float | None = None) -> PrivacyReport:
    """Certified floor under the privacy error of a (possibly adversarial) run.

    For every even step and every pair of inputs sharing the database state
    and the reference-marginal class, half the view distance lower-bounds any
    achievable simulation error.  ``mode="anchored"`` keeps the database
    classical; ``mode="full"`` adds the uniformly superposed database, the
    input class anchoring excludes.  Odd steps are outside the definition's
    quantification and are not compared.
    """
    if mode not in ("anchored", "full"):
        raise ValueError(f"unknown privacy mode {mode!r}")
    spec = instance.spec if adversary is None else adversary.modified_spec(instance.spec)
    inputs = standard_inputs(
        instance, superposed_db=(mode == "full" and instance.database_register is not None),
    )
    s = instance.spec.rounds
    steps = _even_steps(instance.spec)
    groups: dict[tuple[str, str], list[InputSpec]] = {}
    for ins in inputs:
        groups.setdefault((ins.x_label, ins.marginal_key), []).append(ins)

    rows: list[PrivacyRow] = []
    for (x_label, _key), members in groups.items():
        views = [(ins.label, _server_views(spec, ins.state, steps)) for ins in members]
        for (la, va), (lb, vb) in combinations(views, 2):
            for t in steps:
                rows.append(PrivacyRow(t, x_label, (la, lb), va[t].distance(vb[t]),
                                       required=(t // 2 <= s - 1)))
    eps_lower = max((r.distance for r in rows), default=0.0) / 2.0
    return PrivacyReport(
        mode=mode,
        protocol=instance.spec.name,
        adversary=adversary.name if adversary else "honest",
        rows=tuple(rows),
        eps_lower=eps_lower,
        target=target,
    )


# ---------------------------------------------------------------------------
# simulators
# ---------------------------------------------------------------------------


def _reference_marginal(state: PureState | Ensemble, reference) -> Ensemble | None:
    if not reference:
        return None
    ens = Ensemble.from_pure(state) if isinstance(state, PureState) else state
    drop = [n for n in ens.layout.names if n not in set(reference)]
    return ens.traced(drop)


def _certificate(instance: QpirInstance, spec: ProtocolSpec, simulate):
    """(eps, rows): the worst distance, over the anchored test inputs and the
    even steps, between ``simulate(db, t)`` (tensored with the input's
    reference marginal) and the server view of a run of ``spec``."""
    steps = _even_steps(instance.spec)
    rows = []
    for ins in standard_inputs(instance):
        views = _server_views(spec, ins.state, steps)
        ref = _reference_marginal(ins.state, ins.reference)
        for t in steps:
            sim = simulate(ins.db, t)
            if ref is not None:
                sim = sim.tensor(ref)
            rows.append((ins.label, t, sim.distance(views[t])))
    eps = max((d for _, _, d in rows), default=0.0)
    return eps, rows


class HonestSimulator:
    """Def-style simulator for the honest server: rerun with the client
    input pinned to index 1 and output the server-side registers."""

    def __init__(self, instance: QpirInstance):
        self.instance = instance
        self._views: dict = {}  # database -> {even step: view}

    def view(self, db, t: int) -> Ensemble:
        key = tuple(db) if isinstance(db, (tuple, list)) else db
        if key not in self._views:
            inst = self.instance
            self._views[key] = _server_views(inst.spec, inst.basis_input(db, 1),
                                             _even_steps(inst.spec))
        return self._views[key][t]

    def epsilon_upper(self):
        """Max distance between the simulated and the actual view over the
        test inputs; returns (eps_upper, rows)."""
        return _certificate(self.instance, self.instance.spec, self.view)


def honest_simulator(instance: QpirInstance) -> HonestSimulator:
    return HonestSimulator(instance)


_SELF_INVERSE = (HadamardOp, InnerProductCnotOp, SelectPhaseOp, SelectCnotOp,
                 SelectFlipOp, CnotOp, CopyOp, SwapOp)


def _inverted(ops) -> tuple[ChannelOp, ...]:
    out = []
    for op in reversed(tuple(ops)):
        if isinstance(op, RotateOp):
            out.append(op.inverse())
        elif isinstance(op, _SELF_INVERSE):
            out.append(op)
        else:
            raise ProtocolShapeError(
                f"recovery op {type(op).__name__} is not invertible; purify it first"
            )
    return tuple(out)


class TheoremSimulator:
    """The constructive specious-server simulator.

    For each even step the anchor state is extracted from one run of the
    adversary on the reference input ``(x0, i=1)``: the purified recovery is
    applied, the result is projected onto the honest pure state, and the
    renormalized remainder on the adversary's private registers is the
    anchor.  The simulator for any anchored input is then the inverted
    recovery applied to (anchor tensor honest-simulator output).
    """

    def __init__(self, instance: QpirInstance, adversary: Adversary, x0):
        if not is_measurement_free(instance.spec):
            raise ProtocolShapeError("the certificate needs a measurement-free protocol")
        if adversary.recoveries is None:
            raise ProtocolShapeError("the adversary ships no recovery operators")
        self.instance = instance
        self.adversary = adversary
        self.x0 = x0
        self.honest = HonestSimulator(instance)
        self.anchors: dict[int, PureState | None] = {}
        self.extraction_bounds: dict[int, float] = {}
        inp = instance.basis_input(x0, 1)
        honest_tr = execute(instance.spec, inp)
        adv_tr = adversary.run(instance.spec, inp)
        for t in _even_steps(instance.spec):
            self.anchors[t], self.extraction_bounds[t] = self._extract(honest_tr, adv_tr, t)

    def _extract(self, honest_tr: ExecutionTranscript, adv_tr: ExecutionTranscript,
                 t: int) -> tuple[PureState | None, float]:
        """The anchor on the adversary's private registers at step ``t`` and
        its trace-in bound; ``(None, 0.0)`` when the recovery discards
        nothing."""
        recovery = self.adversary.recoveries[t - 1]
        ens = adv_tr.ensemble(t)
        for op in recovery.ops:
            ens = ens.apply(op)
        if not ens.is_pure:
            raise ProtocolShapeError(
                f"adversarial state at step {t} is not pure; purify the adversary"
            )
        if not recovery.discard:
            return None, 0.0
        alpha = ens.to_pure()
        sigma, bound = trace_in_extraction(alpha, honest_tr.ensemble(t).to_pure())
        discard = set(recovery.discard)
        return sigma.reordered([n for n in alpha.layout.names if n in discard]), bound

    def simulated_view(self, db, t: int) -> Ensemble:
        """Simulator output for database ``db`` at even step ``t``: the
        reconstructed adversary view."""
        sim = self.honest.view(db, t)
        anchor = self.anchors[t]
        if anchor is None:
            return sim
        ens = Ensemble.from_pure(anchor).tensor(sim)
        for op in _inverted(self.adversary.recoveries[t - 1].ops):
            ens = ens.apply(op)
        return ens

    def certify(self):
        """(eps_hat, rows): worst distance between the simulator output and
        the adversary's actual view across anchored test inputs and steps."""
        adv_spec = self.adversary.modified_spec(self.instance.spec)
        return _certificate(self.instance, adv_spec, self.simulated_view)

    def extract_anchor(self, db, client_state: PureState, t: int) -> PureState:
        """Re-extract the anchor from an arbitrary anchored pure input; used
        to check that one anchor serves every input."""
        if not self.adversary.recoveries[t - 1].discard:
            raise ProtocolShapeError("this adversary has no private registers")
        inp = self.instance.input_with_client(db, client_state)
        honest_tr = execute(self.instance.spec, inp)
        adv_tr = self.adversary.run(self.instance.spec, inp)
        return self._extract(honest_tr, adv_tr, t)[0]


def theorem_simulator(instance: QpirInstance, adversary: Adversary, x0) -> TheoremSimulator:
    return TheoremSimulator(instance, adversary, x0)


@dataclass(frozen=True)
class TheoremBoundRow:
    adversary: str
    gamma_hat: float
    eps_hat: float
    eps_honest: float
    bound: float
    ok: bool

    def as_dict(self) -> dict:
        return {"adversary": self.adversary, "gamma_hat": self.gamma_hat,
                "eps_hat": self.eps_hat, "eps_honest": self.eps_honest,
                "bound": self.bound, "ok": self.ok}


def verify_theorem_bound(instance: QpirInstance, adversaries, *, x0=0,
                         tolerance: float = 1e-6) -> list[TheoremBoundRow]:
    """For each specious adversary: measure gamma, build the constructive
    simulator, measure its achieved anchored privacy error, and check it
    against eps_honest + 3 sqrt(2 gamma)."""
    from .adversaries import measure_speciousness

    eps_honest, _ = HonestSimulator(instance).epsilon_upper()
    rows = []
    for adv in adversaries:
        gamma = measure_speciousness(instance, adv).gamma_hat
        sim = TheoremSimulator(instance, adv, x0)
        eps_hat, _ = sim.certify()
        bound = eps_honest + 3.0 * math.sqrt(2.0 * gamma)
        rows.append(TheoremBoundRow(adv.name, gamma, eps_hat, eps_honest, bound,
                                    eps_hat <= bound + tolerance))
    return rows
