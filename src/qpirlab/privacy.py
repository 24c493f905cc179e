"""Anchored-privacy verification, lower bounds, and simulator certificates.

Every figure here is a distance between server views.  The one definition
of the view is :meth:`ExecutionTranscript.server_view`: at step ``t`` it is
everything on the server's side plus the in-flight messages, keeping any
reference registers.  One runner, :func:`qpirlab.adversaries.planned_spans`,
makes the runs of one plan, :func:`qpirlab.adversaries.database_runs`, for
every figure here and the speciousness meter: each spec of a figure runs
once per planned input, and each even step's views are formed once.  A spec
that only reads the database register acts on each label block of it
alone, so every classical database is one ``db = x`` block of a single run
on their unnormalized sum; only a spec that relabels the database (the
purification attack) and the superposed database run on their own.

Views are low-rank ensembles (branch vectors componentized over the
traced-out client side).  Everything steered from one database's view lies
in its branch span tensored with the reference registers, so every figure
takes its views into that span (one QR over the amplitudes nonzero in the
view) and steers and compares them on the span's few coordinates, plain
``(B, S, I)`` arrays.  Every figure reads the spans of all the databases
of a step from one move of the step's views
(:func:`qpirlab.adversaries.block_spans`, inside the runner).  The
simulators act on the whole view of a run, so database ``x``'s simulated
view is the ``db = x`` block of theirs, by the same rule as the run's:
where the runs are shared, no op of the plan (the recoveries the theorem
simulator inverts included) relabels ``db``.  The simulated view keeps the
purifier: a certificate takes each database's block of it into one span
with the run view's and pins it there to index 1 beside the maximally mixed
purifier; steered to a client state, that is the simulated view beside the
client's reference marginal.  The honest simulator's view is the run's own,
so its certificate takes that one view into its span once and compares it
with itself pinned.  The reconstruction attack's privacy error
(:func:`qpirlab.bounds.extraction_attack`) is measured the same way: two
views in one span, one :func:`qpirlab.distances.paired_distances` pair.

The paper's point is that a party may run a protocol on a purification
of its input, and the same holds for the test inputs: in the
``i-entangled`` input the index is purified by a reference ``refi`` that
neither program touches.  Applying
``sqrt(n) sum_{i,r} c[i, r] |r><i|`` to ``refi`` turns that input into any
client state ``c`` over the index and its references (one map per branch of
``c``).  The map acts only on a register no party holds, so it commutes
with every channel on the other registers (unitaries, measurements, Kraus
operators, recoveries) and with the partial trace that forms the view.
Steering the views of the one run on the purified index
(:func:`qpirlab.adversaries.steered_rows`, the one steering function) is
therefore exact for every spec, measuring ones included; no analysis runs
``execute`` once per test input.  By the same commutation the simulators
act before the index is pinned.

Lower bounds need no simulator: two runs that any one simulator state must
approximate within eps sit within 2 eps of each other, so half the largest
pairwise view distance over inputs sharing a database state and a
reference-marginal class certifies a floor under every achievable eps.

Upper bounds come from explicit simulators: the honest-protocol simulator
(the honest view pinned to the client input 1) and the specious-adversary
simulator assembled from an extracted anchor state, the inverted purified
recovery, and the honest simulator, whose view it reads off an honest run
on its own planned input.  Both are scored by one certificate
loop over the standard anchored inputs, which compares each (run view,
simulated view) pair through
:func:`qpirlab.adversaries.steered_distances`, the speciousness meter's
loop; the lower bound's pairs are across inputs, so it steers its views with
:func:`qpirlab.adversaries.steered_rows` and pairs them itself.  Every
figure measures all its pairs, over every database group, in one
:func:`qpirlab.distances.paired_distances` call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .adversaries import (Adversary, _client_matrix, _product, database_groups,
                          measure_speciousness, planned_spans, standard_inputs,
                          steered_distances, steered_rows)
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
from .distances import paired_distances, trace_in_extraction
from .protocols import QpirInstance
from .runtime import (
    CLIENT,
    Ensemble,
    ExecutionTranscript,
    ProtocolShapeError,
    ProtocolSpec,
    execute,
)
from .states import PureState, nonzero_rows

__all__ = [
    "PrivacyRow",
    "PrivacyReport",
    "privacy_lower_bound",
    "HonestSimulator",
    "TheoremSimulator",
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
    """The client's steps, after which the server's view is compared."""
    return [st.t for st in spec.schedule if st.party == CLIENT]


@dataclass(frozen=True)
class PrivacyRow:
    step: int
    x_label: str
    pair: tuple[str, str]
    distance: float
    required: bool  # inside the definition's range: before the last step

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
    target: float | None

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
    input class anchoring excludes, so it needs a database register.  Odd
    steps are outside the definition's quantification and are not compared.
    """
    if mode not in ("anchored", "full"):
        raise ValueError(f"unknown privacy mode {mode!r}")
    if mode == "full" and instance.database_register is None:
        raise ValueError(
            f"mode 'full' on {instance.spec.name}: the superposed-database class "
            "needs the quantum-database path"
        )
    spec = instance.spec if adversary is None else adversary.modified_spec(instance.spec)
    inputs = standard_inputs(instance, superposed_db=(mode == "full"))
    steps = _even_steps(instance.spec)
    last = len(instance.spec.schedule)
    groups = database_groups(inputs)
    spans = planned_spans(instance, groups, (spec,), (), steps,
                          lambda t, transcripts: (transcripts[0].server_view(t),))
    keys, pairs_of_rows = [], []
    for members, group_spans in zip(groups, spans):
        classes: dict[str, list] = {}
        views = [span for (span,) in group_spans.values()]  # one per even step, in order
        for ins, rows in zip(members, steered_rows(views, members)):
            classes.setdefault(ins.marginal_key, []).append((ins.label, rows))
        for labelled in classes.values():
            for (la, ra), (lb, rb) in combinations(labelled, 2):
                for t, a, b in zip(steps, ra, rb):
                    keys.append((t, members[0].x_label, (la, lb)))
                    pairs_of_rows.append((a, b))
    rows = [PrivacyRow(t, x_label, pair, d, required=(t < last))
            for (t, x_label, pair), d in zip(keys, paired_distances(pairs_of_rows))]
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


def _pinned(sim: np.ndarray, client: PureState) -> np.ndarray:
    """``sim``, a ``(B, S, I)`` span array, pinned to the index state
    ``client`` beside the maximally mixed ``refi``: steered by the client
    matrix and product of :func:`~qpirlab.adversaries.steered_rows`, its
    rows at zero weight dropped, then one branch ``(b, l)`` per label
    ``l``, at ``l``, over ``sqrt(I)``.  ``I == 1`` (no index) is as it is."""
    c = _client_matrix(client, (), (sim.shape[-1] > 1,))
    if c is None:
        return sim
    rows, weights = _product(sim, c)
    pinned, labels = rows[nonzero_rows(weights)], sim.shape[-1]
    out = np.zeros((len(pinned), labels, pinned.shape[1], labels), dtype=np.complex128)
    at = np.arange(labels)
    out[:, at, :, at] = pinned / math.sqrt(labels)
    return out.reshape(-1, pinned.shape[1], labels)


def _certificate(instance: QpirInstance, specs, ops, states):
    """(eps, rows): the worst distance, over the anchored test inputs and the
    even steps, between the input's server view and its simulated view
    beside the input's reference marginal.

    The runs are those :func:`planned_spans` makes of the plan for
    ``specs`` and ``ops``: every spec the simulated side reads runs once on
    each planned input, and every op it applies is planned.
    ``states(t, transcripts)`` gives, from the transcripts of ``specs``, the
    states of one span: first the run's server view, last the simulator's
    view of the whole run, ``refi`` still in it, whose ``x`` block is
    database ``x``'s.  Where the simulator's view is the run's own, one
    state serves as both, so each view is taken into its span once.  Every
    group's block of the states is taken into one branch span from one
    move, and the last is pinned to index 1 beside the maximally mixed
    ``refi`` (:func:`_pinned`; the pin acts on that reference alone, so it
    commutes with the simulator).  Steered to a client state ``c``, it
    becomes the simulated view tensored with ``c``'s marginal on its
    reference registers, so both sides are steered and compared as the
    lower bound's views are."""
    groups = database_groups(standard_inputs(instance))
    index = instance.client_basis_state(1)
    pairs = [{t: (views[0], _pinned(views[-1], index)) for t, views in spans.items()}
             for spans in planned_spans(instance, groups, specs, ops,
                                        _even_steps(instance.spec), states)]
    rows = steered_distances(list(zip(groups, pairs)))
    eps = max((d for _, _, d in rows), default=0.0)
    return eps, rows


class HonestSimulator:
    """Def-style simulator for the honest server: rerun with the client
    input pinned to index 1 and output the server-side registers.  That is
    the run on the purified index with ``refi`` pinned, so its view of a
    run is the run's view: the certificate takes that one view into its
    span and compares it with itself pinned.  It keeps no views, and
    database ``x``'s is the ``x`` block of a planned run's."""

    def __init__(self, instance: QpirInstance):
        self.instance = instance
        self._references: dict = {}  # x0 -> the honest run on (x0, i=1)

    def reference_run(self, x0) -> ExecutionTranscript:
        """The honest run on the reference input ``(x0, i=1)``, made once
        per ``x0``; every theorem simulator built on this one reads it."""
        if x0 not in self._references:
            inst = self.instance
            self._references[x0] = execute(inst.spec, inst.basis_input(x0, 1))
        return self._references[x0]

    def epsilon_upper(self):
        """Max distance between the simulated and the actual view over the
        test inputs; returns (eps_upper, rows).  One honest run per planned
        input gives both sides, from one span of its view."""
        return _certificate(self.instance, (self.instance.spec,), (),
                            lambda t, runs: (runs[0].server_view(t),))


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

    ``honest`` is the honest simulator of the instance; simulators of
    several adversaries may share it, and with it the reference run
    (:meth:`HonestSimulator.reference_run`).
    """

    def __init__(self, honest: HonestSimulator, adversary: Adversary, x0):
        instance = honest.instance
        if not is_measurement_free(instance.spec):
            raise ProtocolShapeError("the certificate needs a measurement-free protocol")
        if adversary.recoveries is None:
            raise ProtocolShapeError("the adversary ships no recovery operators")
        self.instance = instance
        self.adversary = adversary
        self.x0 = x0
        self.anchors: dict[int, PureState | None] = {}
        self.extraction_bounds: dict[int, float] = {}
        honest_tr = honest.reference_run(x0)
        adv_tr = adversary.run(instance.spec, instance.basis_input(x0, 1))
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

    def simulated_view(self, t: int, honest_view: Ensemble) -> Ensemble:
        """Simulator output at even step ``t``, the reconstructed adversary
        view: the inverted recovery applied to (anchor tensor
        ``honest_view``), the honest simulator's view.  The recovery leaves
        ``refi`` alone, so it may act before the index is pinned."""
        anchor = self.anchors[t]
        if anchor is None:
            return honest_view
        ens = Ensemble.from_pure(anchor).tensor(honest_view)
        for op in _inverted(self.adversary.recoveries[t - 1].ops):
            ens = ens.apply(op)
        return ens

    def certify(self):
        """(eps_hat, rows): worst distance between the simulator output and
        the adversary's actual view across anchored test inputs and steps.
        Each planned input runs through the adversary and the honest spec,
        whose server view is the honest simulator's; the plan lists the
        recovery ops: inverted, they act on the simulation."""
        adv, spec = self.adversary, self.instance.spec
        return _certificate(self.instance, (adv.modified_spec(spec), spec),
                            [op for recovery in adv.recoveries for op in recovery.ops],
                            lambda t, runs: (runs[0].server_view(t),
                                             self.simulated_view(t, runs[1].server_view(t))))


# The lab's figure tolerance: a computed distance at or below it is a
# numerical zero.
FIGURE_TOL = 1e-12


@dataclass(frozen=True)
class TheoremBoundRow:
    adversary: str
    gamma_hat: float
    eps_hat: float
    eps_honest: float
    bound: float
    ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


def verify_theorem_bound(instance: QpirInstance, adversaries, *,
                         tolerance: float = 1e-6) -> list[TheoremBoundRow]:
    """For each specious adversary: measure gamma, build the constructive
    simulator, measure its achieved anchored privacy error, and check it
    against eps_honest + 3 sqrt(2 gamma).  A gamma at or below
    :data:`FIGURE_TOL` counts as 0 in the bound; the row keeps the raw
    ``gamma_hat``.  Each simulator takes its anchors from the run on
    database 0, index 1.  One honest simulator serves every adversary, so
    the reference run is made once."""
    honest = HonestSimulator(instance)
    eps_honest, _ = honest.epsilon_upper()
    rows = []
    for adv in adversaries:
        gamma = measure_speciousness(instance, adv).gamma_hat
        sim = TheoremSimulator(honest, adv, 0)
        eps_hat, _ = sim.certify()
        # sqrt would lift QR noise in an exact recovery (1e-15) to 1e-7
        bound = eps_honest + 3.0 * math.sqrt(2.0 * (gamma if gamma > FIGURE_TOL else 0.0))
        rows.append(TheoremBoundRow(adv.name, gamma, eps_hat, eps_honest, bound,
                                    eps_hat <= bound + tolerance))
    return rows
