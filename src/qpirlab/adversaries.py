"""Adversary constructors and the speciousness meter.

An adversary here is a replacement server program over an enlarged register
set, together with per-step recovery operations mapping its state back onto
the honest register set.  A recovery is a list of operations on
adversary-side registers followed by a set of private registers to discard;
the speciousness of an adversary is the worst-case trace distance between
the recovered global state and the honest one, taken over a finite,
documented test-input set and over every protocol step.

The measured gamma is therefore a certified lower bound on the true
worst-case figure; the families constructed in this module attain their
worst case on the standard set by design.

Every figure compares states of runs on the purified index (the
``i-entangled`` input, whose reference ``refi`` purifies the client's
index), taken first into one shared branch span and steered at each step to
each test input's client state (:func:`steered_rows`).
:func:`database_runs` is the one place that decides which runs a figure
makes: where no op of the specs or of the recoveries may relabel the
database register (:func:`shared_groups`), the classical databases are the
label blocks (:func:`block_spans`) of one run on their sum, so each spec
runs once for all of them; only the purification attack and the superposed
database run on their own.  :func:`planned_spans` is the one runner of that
plan, for the meter here and every privacy figure: it runs each spec once
per planned input, forms the states a figure compares at each step and
takes the spans of every block of them from one move of each state
(:func:`block_spans`), with no named copy of any block, as plain ``(B, S,
I)`` arrays: an :class:`~qpirlab.runtime.Ensemble` is a run state.
Following the paper's purification argument, the steering map acts only on
that reference, which no program and no recovery touches, so it commutes
with the protocol, the adversary, the recoveries (measurements included)
and the discards: the steered distances are those of separate runs.  By
the same commutation a recovery traces out the discards its ops do not
touch before the ops (:func:`apply_recovery`), on the reduced state.

:func:`steered_rows` is the one steering function and keeps no state: a
client matrix, formed once from each input's client state, times the span
arrays, one product per input for all the spans of one shape.  It steers
nothing but spans; the privacy certificates pin the index with the same
matrix and product.  One comparison loop,
:func:`steered_distances`, serves the meter here and both privacy
certificates: it takes every database group of a figure, steers each step's
pair to every input and measures all the pairs together, one stacked QR per
``[b a]`` shape (:func:`~qpirlab.distances.paired_distances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    ChannelOp,
    CopyOp,
    HadamardOp,
    MeasureOp,
    PrepareOp,
    RotateOp,
    SwapOp,
)
from .config import CapExceeded
from .distances import paired_distances
from .protocols import QpirInstance, epr_pair_state
from .runtime import (
    SERVER,
    Ensemble,
    ExecutionTranscript,
    PartyProgram,
    ProtocolShapeError,
    ProtocolSpec,
    execute,
)
from .states import LayoutError, PureState, RegisterLayout, nonzero_rows, slots_to_front

__all__ = [
    "Recovery",
    "Adversary",
    "InputSpec",
    "client_variants",
    "standard_inputs",
    "database_groups",
    "purified_input",
    "shared_groups",
    "database_runs",
    "planned_spans",
    "block_spans",
    "steered_rows",
    "steered_distances",
    "purified_honest",
    "purification_attack",
    "gamma_family",
    "SpeciousnessReport",
    "measure_speciousness",
    "adversary_by_name",
]


@dataclass(frozen=True)
class Recovery:
    """Operations on adversary-side registers, then registers to discard.

    The recovered state is the mixture of its rows, whose order carries no
    meaning: :func:`apply_recovery` gives (branch, discarded label, outcome)
    where the ops first give (branch, outcome, discarded label); the two
    coincide where each (branch, discarded label) has one outcome, as in
    :func:`purified_honest`, whose purifiers copy the measured registers."""

    ops: tuple[ChannelOp, ...] = ()
    discard: tuple[str, ...] = ()


@dataclass(frozen=True)
class Adversary:
    """A server-side adversary: replacement program plus recovery operators.

    ``recoveries`` has one entry per step of the spec's schedule; ``None``
    means the adversary ships no recovery operators at all.
    """

    name: str
    program: PartyProgram
    recoveries: tuple[Recovery, ...] | None

    def modified_spec(self, spec: ProtocolSpec) -> ProtocolSpec:
        return replace(spec, server=self.program, name=f"{spec.name}~{self.name}")


# ---------------------------------------------------------------------------
# the standard test-input set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputSpec:
    """One named test input: ``database`` (the server's input state, ``None``
    when the instance bakes its database in) tensored with ``client``, a
    state of the index register plus the ``reference`` registers.

    ``x_label`` groups inputs sharing a server-side database state and
    ``db`` is that database as an int label (``None`` when the instance
    bakes its database in or the database is superposed);
    ``marginal_key`` groups inputs whose client part leaves the same
    marginal on the reference side, which is the comparison class for
    privacy lower bounds.
    """

    label: str
    x_label: str
    db: int | None
    marginal_key: str
    database: PureState | None
    client: PureState | Ensemble
    reference: tuple[str, ...] = ()

    @property
    def state(self) -> PureState | Ensemble:
        if self.database is None:
            return self.client
        if isinstance(self.client, PureState):
            return self.database.tensor(self.client)
        return Ensemble.from_pure(self.database).tensor(self.client)


# The reference that purifies the client's index in the ``i-entangled`` input.
PURIFIER = "refi"


def client_variants(instance: QpirInstance, kinds=("classical", "uniform", "entangled", "correlated")):
    """Client-side input states over the index register (plus a reference).

    Returns tuples (label, marginal_key, state, reference_names).
    """
    n, reg, width = instance.n, instance.index_register, instance.levels
    out = []
    if reg is None:
        return [("i=1", "plain", instance.client_basis_state(1), ())]
    if "classical" in kinds:
        for i in range(1, n + 1):
            out.append((f"i={i}", "plain", instance.client_basis_state(i), ()))
    if "uniform" in kinds:
        out.append(("i-uniform", "plain", instance.client_uniform_state(), ()))
    epr = epr_pair_state(reg, PURIFIER, width)
    if "entangled" in kinds:
        out.append(("i-entangled", "refmix", epr, (PURIFIER,)))
    if "correlated" in kinds:
        # one branch per term of the entangled input: the same marginals,
        # without the coherence
        terms = np.diag(epr.amplitudes)[::n + 1]
        out.append(("i-correlated", "refmix", Ensemble(epr.layout, terms), (PURIFIER,)))
    return out


# The standard set holds every classical database, of which there may be at
# most this many.
_MAX_DATABASES = 16


def standard_inputs(instance: QpirInstance, *, superposed_db: bool = False) -> list[InputSpec]:
    """The documented finite test-input set.

    Anchored databases are every classical value; an instance with more than
    16 of them raises :class:`CapExceeded` rather than test a subset.
    ``superposed_db=True`` additionally pairs the uniform database
    superposition with each classical index, which is what the unrestricted
    speciousness quantification needs.  Inputs sharing a database state are
    listed together.
    """
    n = instance.n
    variants = client_variants(instance)
    if instance.database_register is None:
        return [InputSpec(label, "x=built-in", None, key, None, state, refs)
                for label, key, state, refs in variants]
    if 1 << n > _MAX_DATABASES:
        raise CapExceeded(f"standard inputs need all {1 << n} databases of "
                          f"{instance.spec.name}, cap is {_MAX_DATABASES}")
    inputs: list[InputSpec] = []
    for db in range(1 << n):
        xl = f"x={db:0{n}b}"
        database = instance.database_state(db)
        for label, key, state, refs in variants:
            inputs.append(InputSpec(f"{xl},{label}", xl, db, key, database, state, refs))
    if superposed_db:
        db_layout = RegisterLayout(((instance.database_register, n),))
        plus = PureState(db_layout, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex))
        for label, key, state, refs in client_variants(instance, ("classical", "uniform")):
            inputs.append(InputSpec(f"x=+,{label}", "x=+", None, key, plus, state, refs))
    return inputs


def database_groups(inputs) -> list[list[InputSpec]]:
    """``inputs`` split by database state (``x_label``), in order."""
    groups: dict[str, list[InputSpec]] = {}
    for ins in inputs:
        groups.setdefault(ins.x_label, []).append(ins)
    return list(groups.values())


def purified_input(spec: ProtocolSpec, database: PureState | None) -> PureState | None:
    """The one run input for ``database``: ``database`` with the client's
    index entangled with :data:`PURIFIER`, which is the ``i-entangled``
    input.  Without a client input register it is ``database`` alone
    (``None``, the empty input, when there is no database either)."""
    state = database
    for name, width in spec.client.input_registers:
        epr = epr_pair_state(name, PURIFIER, width)
        state = epr if state is None else state.tensor(epr)
    return state


def shared_groups(instance: QpirInstance, groups, specs, ops) -> list[int]:
    """The indices of the database ``groups`` whose runs of ``specs`` (with
    ``ops`` applied after them) are blocks of one shared run: every
    classical database, when no op may relabel the database register
    (:attr:`~qpirlab.channels.ChannelOp.relabels`; controls, selectors,
    sources and masks only read) and no step sends it, so it stays in the
    server's view; else none.  Then every op acts on each label block of the
    register alone, and the run of a classical database is its block
    (:func:`block_spans`) of one run on their sum (:func:`database_runs`).
    The superposed database, a built-in one and every database of a spec
    that relabels the register (the purification attack) run on their own."""
    db = instance.database_register
    steps = [st.step for spec in specs for st in spec.schedule]
    every_op = [*(op for step in steps for op in step.ops), *ops]
    if (db is None or any(db in op.relabels for op in every_op)
            or any(db in step.sends for step in steps)):
        return []
    return [g for g, members in enumerate(groups) if members[0].db is not None]


def database_runs(instance: QpirInstance, groups, specs, ops) -> list[tuple]:
    """How the database ``groups`` are run through ``specs`` (with ``ops``
    applied after them): ``[(run input, [(g, x)])]``, where group ``g``'s
    run is the ``x`` block (:func:`block_spans`) of the run on that
    input.

    First, when :func:`shared_groups` lists any, one run on the
    unnormalized sum ``sum_x |x>`` of the classical databases, with no
    ``2**(-n/2)``, beside the purified index: its ``db = x`` block is the
    input :func:`purified_input` gives ``|x>``, bit for bit, and each
    listed group reads the block of its database.  Then one run per other
    group on its :func:`purified_input`, read whole (``x = None``)."""
    spec, db = specs[0], instance.database_register
    shared = shared_groups(instance, groups, specs, ops)
    runs = []
    if shared:
        ones = Ensemble(RegisterLayout(((db, instance.n),)),
                        np.ones((1, 1 << instance.n), dtype=np.complex128))
        index = purified_input(spec, None)
        runs.append((ones if index is None else ones.tensor(Ensemble.from_pure(index)),
                     [(g, groups[g][0].db) for g in shared]))
    return runs + [(purified_input(spec, members[0].database), [(g, None)])
                   for g, members in enumerate(groups) if g not in shared]


def planned_spans(instance: QpirInstance, groups, specs, ops, steps, states) -> list[dict]:
    """Per database group, ``{t: spans}`` for each of ``steps``: the
    :func:`block_spans` arrays of the group's block of the states that
    ``states(t, transcripts)`` gives.

    The runs are those :func:`database_runs` plans for ``groups`` through
    ``specs`` (with ``ops``).  Every spec runs once on each planned input,
    keeping ``steps``, and ``transcripts`` are those runs in the order of
    ``specs``; ``states(t, transcripts, blocks)`` also gets the run's
    ``[(g, x)]``, the groups it holds and their blocks.  Every group's
    block of a step's states comes from one :func:`block_spans` call, so
    the states share one branch span.  Each step's states are released
    before the next step's are formed, and the runs on return."""
    db, spans = instance.database_register, [{} for _ in groups]
    for run, blocks in database_runs(instance, groups, specs, ops):
        transcripts = [execute(spec, run, keep=steps) for spec in specs]
        for t in steps:
            taken = block_spans(states(t, transcripts, blocks), db, [x for _, x in blocks])
            for (g, _), group_spans in zip(blocks, taken):
                spans[g][t] = group_spans
    return spans


def _label_weights(ens: Ensemble, register: str) -> np.ndarray:
    """Each branch's squared norm in each label block of ``register``, a
    ``(B, 2**width)`` array from one ``bincount`` on the support."""
    sup, lay = ens.vectors, ens.layout
    w = lay.width(register)
    key = (sup.branch << w) | lay.labels(sup.index, (register,))
    return np.bincount(key, np.abs(sup.value) ** 2, minlength=len(sup) << w).reshape(-1, 1 << w)


def _client_matrix(client: PureState | Ensemble, reference, purified):
    """The branches of ``client`` as matrices ``c[k, i, r]`` over the index
    label ``i`` and the label ``r`` of its ``reference`` registers, in its
    layout order (``None`` without an index).  Raises unless each run,
    ``purified`` saying whether it has :data:`PURIFIER`, has it exactly when
    the client has an index."""
    lay = client.layout
    index = [name for name in lay.names if name not in reference]
    if any(p != bool(index) for p in purified):
        raise LayoutError(f"client registers {list(lay.names)} with reference {list(reference)} "
                          f"do not fit a run {'without' if index else 'with'} {PURIFIER}")
    if not index:
        return None
    v = client.amplitudes[None] if isinstance(client, PureState) else client.dense()
    return slots_to_front(v, lay.total_qubits, lay.slots(index))


def _product(v: np.ndarray, c: np.ndarray):
    """The run branches ``v[b, s, i]`` steered by the client matrices
    ``c[k, i, r]``: the rows ``(k, b)`` over ``(s, r)`` as a ``(K, B, S R)``
    array, and their squared norms."""
    rows = (math.sqrt(v.shape[-1]) * (v @ c[:, None])).reshape(len(c), len(v), -1)
    return rows, (np.abs(rows) ** 2).sum(axis=-1)


def steered_rows(views, members) -> list[list[np.ndarray]]:
    """``out[m][j]``: the ``(B, S, I)`` span array ``views[j]`` of
    :func:`block_spans` steered to the ``m``-th input of ``members``: each
    branch ``c`` of its client state contributes the rows with ``sqrt(n)
    sum_{i,r} c[i, r] |r><i|`` applied to :data:`PURIFIER`, which puts the
    input's references in its place.  Without :data:`PURIFIER` (``I ==
    1``), the rows as they are.  Each input's client matrix is formed once,
    the views of one shape are steered by one product per input, and rows
    left at zero weight are dropped view by view, as a run drops them."""
    shapes: dict[tuple, list] = {}  # (span rows, purifier labels) -> view indices
    for j, v in enumerate(views):
        if v.shape[-1] > 1:
            shapes.setdefault(v.shape[1:], []).append(j)
    # per shape: the view indices, their first rows in the stack, the stack
    stacks = [(js, np.cumsum([0] + [len(views[j]) for j in js]),
               np.concatenate([views[j] for j in js])) for js in shapes.values()]
    out = []
    for ins in members:
        c = _client_matrix(ins.client, ins.reference, [v.shape[-1] > 1 for v in views])
        if c is None:
            out.append([v[:, :, 0] for v in views])
            continue
        rows = [None] * len(views)
        for js, starts, stack in stacks:
            steered, weights = _product(stack, c)
            for j, lo, hi in zip(js, starts, starts[1:]):
                rows[j] = steered[:, lo:hi][nonzero_rows(weights[:, lo:hi])]
        out.append(rows)
    return out


def block_spans(ensembles, register: str | None, labels) -> list[tuple[np.ndarray, ...]]:
    """For each ``x`` of ``labels``, the ``register = x`` blocks of
    ``ensembles`` (``x = None``: whole) in the coordinates of their branch
    span, one ``(B, S, I)`` array per ensemble: branch ``b``, span row ``s``
    and :data:`PURIFIER` label ``i``.  A run without :data:`PURIFIER` has
    one label, ``I = 1``.

    A block is every other label of ``register`` zeroed, less the rows whose
    squared norm is then at or below ``states.BRANCH_PRUNE``; taken from the
    shared run of :func:`database_runs`, it is bit for bit the run on
    ``|x>`` alone.  Whatever is steered from a block lies in span{``v[b,
    i]``} (x) (reference registers), ``v[b, i]`` being branch ``b`` at
    :data:`PURIFIER` label ``i``.  Each ensemble is scattered once,
    :data:`PURIFIER` first and the others in the first one's register order
    (:meth:`Ensemble.aligned_vectors`); a block is a strided view of that
    array less its dropped rows, every label's from one ``bincount`` on the
    support (:func:`_label_weights`).  Per label, one QR of all the blocks'
    columns over their support (the amplitudes nonzero in some column; since
    ``A = P^T [A'; 0]``, the ``R`` of ``A'`` holds coordinates of the same
    span, and an ``A`` with no zero row is factored as it is) gives the
    coordinates ``R``, less its rows at or below ``states.BRANCH_PRUNE``:
    ``S`` is ``R``'s rows, with no padding, shared by every block of the
    label.
    """
    lay = ensembles[0].layout
    weights = [_label_weights(e, register) if set(labels) != {None} else None for e in ensembles]
    order = sorted(lay.names, key=lambda name: name != PURIFIER)  # PURIFIER first; stable sort
    moved = [e.aligned_vectors(order) for e in ensembles]
    labels_i = 1 << lay.width(PURIFIER) if lay.has(PURIFIER) else 1
    others = lay.dim // labels_i
    if register is not None:
        # (branch, purifier label and registers before `register`, its label, after)
        width = lay.width(register)
        split = (1 << sum(lay.width(n) for n in order[:order.index(register)]), 1 << width, -1)
    out = []
    for x in labels:
        # per ensemble, one row per (branch, label): the columns v[b, i]
        blocks = [v.reshape(-1, others) for v in moved]
        if x is not None:
            blocks = [v.reshape(len(v), *split)[nonzero_rows(w[:, x])[0], :, x]
                      .reshape(-1, others >> width) for w, v in zip(weights, moved)]
        support = np.logical_or.reduce([b.any(axis=0) for b in blocks])
        r = np.linalg.qr(np.concatenate([b[:, support] for b in blocks]).T, mode="r")
        r = r[nonzero_rows((np.abs(r) ** 2).sum(axis=1))]
        # column (branch, label) of a block -> coordinate [branch, span row, label]
        cuts = np.cumsum([len(b) for b in blocks])[:-1]
        out.append(tuple(c.reshape(len(r), len(b) // labels_i, labels_i).swapaxes(0, 1)
                         for b, c in zip(blocks, np.split(r, cuts, axis=1))))
    return out


def steered_distances(groups) -> list[tuple[str, int, float]]:
    """``(label, t, distance)`` for each ``(members, pairs)`` of ``groups``,
    each input of ``members`` and each step ``t`` of ``pairs``, which maps it
    to ``(a, b)``: the distance of ``b`` from ``a``, both steered to the
    input's client state.  Each pair comes from one run on the purified
    index and is one label's ``(B, S, I)`` arrays of :func:`block_spans`,
    so it needs no alignment.  Every comparison of every group is measured
    in one :func:`~qpirlab.distances.paired_distances` call."""
    keys, pairs_of_rows = [], []
    for members, pairs in groups:
        views = [v for a, b in pairs.values() for v in (b, a)]
        for ins, rows in zip(members, steered_rows(views, members)):
            for k, t in enumerate(pairs):
                keys.append((ins.label, t))
                pairs_of_rows.append((rows[2 * k], rows[2 * k + 1]))
    return [(label, t, d) for (label, t), d in zip(keys, paired_distances(pairs_of_rows))]


# ---------------------------------------------------------------------------
# adversary constructors
# ---------------------------------------------------------------------------


def purified_honest(instance: QpirInstance) -> Adversary:
    """The honest server with every measurement deferred to an ancilla.

    Unitary steps are kept as-is; each computational-basis measurement is
    replaced by a copy into a fresh purifying register.  The recovery at
    step t re-measures the registers purified so far and discards the
    purifiers, which reproduces the honest channel exactly, so the measured
    speciousness is zero.
    """
    spec = instance.spec
    widths = spec.validate()
    purified: list[tuple[str, str]] = []  # (register, purifier), in program order
    steps, recoveries = [], []
    for st in spec.schedule:
        if st.party == SERVER:
            ops: list[ChannelOp] = []
            for op in st.step.ops:
                if isinstance(op, MeasureOp):
                    pname = f"purif{len(purified) + 1}"
                    ops.append(PrepareOp.zeros(((pname, widths[op.register]),)))
                    ops.append(CopyOp(op.register, pname))
                    purified.append((op.register, pname))
                else:
                    ops.append(op)
            steps.append(replace(st.step, ops=tuple(ops)))
        recoveries.append(Recovery(
            ops=tuple(MeasureOp(reg) for reg, _ in purified),
            discard=tuple(p for _, p in purified),
        ))
    return Adversary(
        name="honest-purified",
        program=replace(spec.server, steps=tuple(steps)),
        recoveries=tuple(recoveries),
    )


def purification_attack(instance: QpirInstance) -> Adversary:
    """The canonical input-purification attack.

    The server swaps its classical database aside and installs the uniform
    superposition entangled with a private mirror register, then follows the
    protocol honestly.  Recovery operators are supplied for the anchored
    comparison only: no recovery exists for the superposed input, which is
    the point of the attack, and the speciousness meter will report a large
    figure accordingly.
    """
    db = instance.database_register
    if db is None:
        raise ProtocolShapeError(
            "the purification attack needs the quantum-database path"
        )
    n = instance.n
    spec = instance.spec
    prefix = (
        PrepareOp.zeros((("junk", n),)),
        PrepareOp.zeros((("adb", n),)),
        SwapOp(db, "junk"),
        HadamardOp(db),
        CopyOp(db, "adb"),
    )
    first = spec.server.steps[0]
    steps = (replace(first, ops=prefix + first.ops),) + spec.server.steps[1:]
    recovery = Recovery(ops=(SwapOp(db, "junk"),), discard=("adb", "junk"))
    return Adversary(
        name="purify-db",
        program=replace(spec.server, steps=steps),
        recoveries=(recovery,) * len(spec.schedule),
    )


def gamma_family(instance: QpirInstance, theta: float, lossy: bool = False) -> Adversary:
    """Honest steps plus one ancilla rotation per server step.

    At each server step a fresh ancilla is rotated by ``theta`` controlled
    on the first database qubit.  The proper recovery applies the
    ``inverse()`` of each rotation and discards the ancillas, which undoes
    the deviation exactly at every step; the ``lossy`` variant discards the
    ancillas without un-rotating, so its measured speciousness grows with
    ``theta`` once the test set includes superposed databases.

    The control sits on the database register (rather than a message qubit)
    because it is the one register that never leaves the server, which is
    what makes the proper recovery exact at every step.
    """
    db = instance.database_register
    if db is None:
        raise ProtocolShapeError("the rotation family needs the quantum-database path")
    spec = instance.spec
    rotations: list[RotateOp] = []
    steps, recoveries = [], []
    for st in spec.schedule:
        if st.party == SERVER:
            anc = f"anc{len(rotations) + 1}"
            rotations.append(RotateOp((anc, 0), theta, control=(db, 0)))
            steps.append(replace(st.step, ops=st.step.ops + (PrepareOp.zeros(((anc, 1),)),
                                                             rotations[-1])))
        undo = () if lossy else tuple(r.inverse() for r in rotations)
        recoveries.append(Recovery(ops=undo, discard=tuple(r.target[0] for r in rotations)))
    return Adversary(
        name=f"gamma-lossy:{theta}" if lossy else f"gamma:{theta}",
        program=replace(spec.server, steps=tuple(steps)),
        recoveries=tuple(recoveries),
    )


def adversary_by_name(instance: QpirInstance, name: str) -> Adversary:
    """CLI-facing adversary lookup: ``honest-purified``, ``purify-db``,
    ``gamma:<theta>``, ``gamma-lossy:<theta>``."""
    if name == "honest-purified":
        return purified_honest(instance)
    if name == "purify-db":
        return purification_attack(instance)
    if name.startswith("gamma-lossy:"):
        return gamma_family(instance, float(name.split(":", 1)[1]), lossy=True)
    if name.startswith("gamma:"):
        return gamma_family(instance, float(name.split(":", 1)[1]))
    raise ValueError(f"unknown adversary {name!r}")


# ---------------------------------------------------------------------------
# the speciousness meter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeciousnessReport:
    adversary: str
    rows: tuple[tuple[str, int, float], ...]  # (input label, step, distance)
    gamma_hat: float
    inputs: tuple[str, ...]


def apply_recovery(transcript: ExecutionTranscript, t: int, recovery: Recovery) -> Ensemble:
    """The recovered global state at step t (discards traced out).

    Every domain check runs first, naming the step: ops and discards reach
    only the adversary's memory, the message in flight after its own steps
    (not after a client step) and what earlier ops created.  The discards
    no op touches or creates are then traced out in one call before the ops
    (a partial trace commutes with every channel on the other registers),
    the rest after them.  A trace is a gather and a measurement a masked
    copy, so the rows are bit for bit those of the ops first; only their
    order may differ (:class:`Recovery`)."""
    allowed = set(transcript.owned(t, SERVER))
    if transcript.spec.schedule[t - 1].party == SERVER:
        allowed |= set(transcript.in_transit(t))
    used = set()  # registers an op touches or creates
    for op in recovery.ops:
        stray = set(op.touches) - allowed
        if stray:
            raise ProtocolShapeError(f"recovery at step {t} touches non-adversary "
                                     f"registers {sorted(stray)}")
        allowed |= {n for n, _ in op.creates}
        used |= {*op.touches, *(n for n, _ in op.creates)}
    stray = set(recovery.discard) - allowed
    if stray:
        raise ProtocolShapeError(f"recovery at step {t} discards non-adversary "
                                 f"registers {sorted(stray)}")
    ens = transcript.ensemble(t)
    first = [n for n in recovery.discard if n not in used]
    if first:
        ens = ens.traced(first)
    for op in recovery.ops:
        ens = ens.apply(op)
    last = [n for n in recovery.discard if n in used]
    return ens.traced(last) if last else ens


def measure_speciousness(instance: QpirInstance, adversary: Adversary) -> SpeciousnessReport:
    """Per-step distances between recovered adversarial and honest states.

    Every standard input (with the superposed database, where the instance
    has a database register) is compared at every step: the step-t recovery
    is applied to the adversarial state and the result is compared globally
    with the honest state (the reference and client side ride along
    untouched).  The runs are those :func:`planned_spans` makes of the
    plan for the honest spec, the adversarial spec and the recovery ops:
    each run input goes once through the honest protocol and once through
    the adversary, and at each step the recovery is applied once, its ops
    on the state with the discards they do not touch already traced out
    (:func:`apply_recovery`).  The step's two states (``target`` and
    ``recovered``) share one branch span, so each group's pair is its block
    of them (bit for bit the states of its own runs on the purified index),
    then steered to each input's client state.  The register-name check
    runs on every run's states.
    """
    spec = instance.spec
    if adversary.recoveries is None:
        raise ProtocolShapeError(f"adversary {adversary.name} ships no recovery operators")
    if len(adversary.recoveries) != len(spec.schedule):
        raise ProtocolShapeError("one recovery per global step is required")
    inputs = standard_inputs(instance, superposed_db=instance.database_register is not None)
    groups = database_groups(inputs)
    recovery_ops = [op for recovery in adversary.recoveries for op in recovery.ops]

    def states(t, transcripts, _blocks):
        honest, dishonest = transcripts
        recovered = apply_recovery(dishonest, t, adversary.recoveries[t - 1])
        target = honest.ensemble(t)
        if set(recovered.layout.names) != set(target.layout.names):
            raise ProtocolShapeError(
                f"recovered registers {recovered.layout.names} do not match "
                f"honest registers {target.layout.names} at step {t}"
            )
        return target, recovered  # one client map steers both, so they share one span

    pairs = planned_spans(instance, groups, (spec, adversary.modified_spec(spec)),
                          recovery_ops, range(1, len(spec.schedule) + 1), states)
    rows = steered_distances(list(zip(groups, pairs)))
    gamma_hat = max(d for _, _, d in rows) if rows else 0.0
    return SpeciousnessReport(
        adversary=adversary.name,
        rows=tuple(rows),
        gamma_hat=gamma_hat,
        inputs=tuple(ins.label for ins in inputs),
    )
