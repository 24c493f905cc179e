"""The slow references the tests hold the fast paths to.

``gather_slots`` reads a label off flat indices one qubit slot at a time,
``run_views`` runs a spec once per database on the purified index,
``in_span`` takes whole ensembles into their branch span, as the plain
``(B, S, I)`` arrays of ``adversaries.block_spans``, ``span_ensemble``
wraps such an array as the ``Ensemble`` that ``steer`` and
``ensemble_distance`` read, ``ensemble_distance`` compares two whole
ensembles, ``steer`` steers a whole ensemble to a client state,
``recover_in_order`` applies a recovery's ops before any discard,
``dense_apply`` applies an op to a dense branch array, ``dense_execute``
runs a spec on dense branch arrays, ``database_block`` names a database
block on the support, ``dense_traced``, ``dense_aligned`` and
``dense_block`` read a partial trace, a register order and a database
block off the scattered branch array, ``dense_uhlmann`` takes an
Uhlmann unitary from two whole reordered pure states, ``to_pure`` makes a
one-branch ensemble a ``PureState`` of its whole layout,
``dense_trace_in_extraction`` extracts an anchor from two whole reordered
pure states and ``reference_anchors`` takes the theorem simulator's
anchors from runs of their own on database 0 and index 1; the package
reads every view from the runs ``adversaries.planned_spans`` makes of the
plan of ``adversaries.database_runs``, every span and block from
``adversaries.block_spans``, compares views only in span coordinates
(``distances.paired_distances``), steers only span arrays
(``adversaries.steered_rows``), traces the discards no op touches first
(``adversaries.apply_recovery``), applies every op on the support of the
branches (``ChannelOp.apply_vectors``, through ``runtime.execute`` and
``Ensemble.apply``) and reads traces, orders, blocks, Uhlmann overlaps and
the theorem simulator's anchors off that support, the anchors off the
certificate's own planned run, every label through
``RegisterLayout.labels``."""

import math

import numpy as np

from qpirlab.adversaries import (PURIFIER, Recovery, _client_matrix, _label_weights, _product,
                                 block_spans, purified_input)
from qpirlab.channels import (_HADAMARD_SIGNS, DenseOp, HadamardOp, MeasureOp, PrepareOp,
                              RotateOp, SelectPhaseOp, Support, _apply_local)
from qpirlab.distances import (UhlmannPreconditionError, _split_matrix, gram_reduce,
                               paired_distances, trace_distance)
from qpirlab.privacy import TheoremSimulator
from qpirlab.runtime import CLIENT, Ensemble, ExecutionTranscript, ProtocolSpec, execute
from qpirlab.states import (BRANCH_PRUNE, DensityOperator, LayoutError, PureState, RegisterLayout,
                            StateError, nonzero_rows, slots_to_front)


def gather_slots(idx: np.ndarray, total: int, slots) -> np.ndarray:
    """The label the bits at the qubit ``slots`` spell at each flat index,
    first slot most significant, read one qubit at a time: the slot-level
    reference that ``RegisterLayout.labels`` must equal (slot ``s`` is bit
    ``total - 1 - s``)."""
    w = len(slots)
    out = np.zeros_like(idx)
    for j, s in enumerate(slots):
        out |= ((idx >> (total - 1 - s)) & 1) << (w - 1 - j)
    return out


def run_views(spec: ProtocolSpec, database, steps) -> dict[int, Ensemble]:
    """The server's view at each of ``steps`` in one run of ``spec`` over
    ``database`` on the purified index: the per-database reference that
    every view ``adversaries.planned_spans`` forms equals."""
    tr = execute(spec, purified_input(spec, database), keep=steps)
    return {t: tr.server_view(t) for t in steps}


def in_span(ens: Ensemble, *others: Ensemble) -> tuple[np.ndarray, ...]:
    """``ens`` and ``others`` whole in the coordinates of their branch span,
    one ``(B, S, I)`` array each (``block_spans``), the others aligned to
    ``ens`` by register name; a run without ``refi`` is one label, ``I =
    1``, like every other span."""
    return block_spans((ens, *others), None, (None,))[0]


def span_ensemble(coords: np.ndarray) -> Ensemble:
    """The ``(B, S, I)`` array ``coords`` of ``block_spans`` as an
    ``Ensemble``: the span rows ``S`` zero-padded to a power of two over
    one ``("span", w)`` register, then ``refi`` of ``I`` labels; for ``I ==
    1`` (a run without ``refi``), the ``span`` register alone.  Steering it
    (``steer``) gives the rows ``steered_rows`` gives, padded with zero
    columns, and ``ensemble_distance`` compares it as the figures compare
    the array."""
    branches, rows, labels = coords.shape
    width = max(1, (rows - 1).bit_length())
    padded = np.zeros((branches, 1 << width, labels), dtype=np.complex128)
    padded[:, :rows] = coords
    registers = (("span", width),) + (((PURIFIER, labels.bit_length() - 1),) if labels > 1 else ())
    return Ensemble(RegisterLayout(registers), padded.reshape(branches, -1))


def ensemble_distance(a: Ensemble, b: Ensemble) -> float:
    """The halved trace distance between the whole ensembles ``a`` and
    ``b``, ``b``'s registers aligned to ``a``'s order by name: one QR of
    every amplitude row of both dense arrays, the whole-ensemble reference
    that the span comparisons of the package must equal."""
    return paired_distances([(a.dense(), b.aligned_vectors(a.layout.names))])[0]


def steer(ens: Ensemble, client, reference) -> Ensemble:
    """``ens``, taken from a run on ``purified_input``, as the run on
    ``client`` would give it: the whole-ensemble steering that
    ``adversaries.steered_rows`` must equal on span arrays.

    ``client`` is a state of the client's index register plus the
    ``reference`` registers.  Each of its branches ``c`` contributes the
    branches of ``ens`` with ``sqrt(n) sum_{i,r} c[i, r] |r><i|`` applied to
    ``PURIFIER``, which puts ``reference`` in its place (appended to the
    layout).  Branches left at zero weight are dropped, as a run drops them.
    ``ens`` is read with ``PURIFIER`` last, with no bit permutation
    when it is already last.  A run without ``PURIFIER`` had no index
    to purify, so it is the run on every client state, and those must have
    no index either.
    """
    c = _client_matrix(client, reference, (ens.layout.has(PURIFIER),))
    if c is None:
        return ens
    rest = tuple(r for r in client.layout.registers if r[0] in reference)
    others, v = _purifier_last(ens)
    rows, weights = _product(v, c)
    return Ensemble(RegisterLayout(others + rest), rows[nonzero_rows(weights)])


def _purifier_last(ens: Ensemble):
    """``(others, v)``: the registers of ``ens`` but ``PURIFIER``, and
    its branches as ``v[b, s, i]`` over those registers' label ``s`` and the
    ``PURIFIER`` label ``i``."""
    lay = ens.layout
    others = tuple(r for r in lay.registers if r[0] != PURIFIER)
    labels = 1 << lay.width(PURIFIER)
    v = ens.aligned_vectors([*(n for n, _ in others), PURIFIER])
    return others, v.reshape(len(v), lay.dim // labels, labels)


def recover_in_order(transcript: ExecutionTranscript, t: int, recovery: Recovery) -> Ensemble:
    """The step-``t`` state with every op of ``recovery`` applied, then every
    discard traced out in one call: the order ``apply_recovery`` equals up
    to the order of its rows (no domain checks)."""
    ens = transcript.ensemble(t)
    for op in recovery.ops:
        ens = ens.apply(op)
    return ens.traced(recovery.discard) if recovery.discard else ens


def dense_apply(op, vectors: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """``op`` applied to the ``(B, dim)`` branch array ``vectors`` on
    ``layout`` by its dense definition, with no cache and no fast path: an
    XOR op gathers ``vectors[:, idx ^ flip]``, a phase multiplies by the
    signs, a preparation takes the outer product, a measurement gives one
    row per (branch, label) above ``BRANCH_PRUNE`` with the other labels
    zeroed, and the local-matrix ops move their qubits to the front,
    multiply by the matrices the op's support kernel uses (a Hadamard's
    pairs in the same order) and move them back (``channels._apply_local``).
    The support kernel of ``op`` must give these amplitudes bit for bit."""
    total, idx = layout.total_qubits, np.arange(layout.dim)
    if hasattr(op, "_flip"):
        return vectors[:, idx ^ op._flip(idx, layout)]
    if isinstance(op, SelectPhaseOp):
        return vectors * op._sign(idx, layout)
    if isinstance(op, PrepareOp):
        prep = np.asarray(op.amplitudes, dtype=np.complex128)
        return np.multiply.outer(vectors, prep).reshape(len(vectors), -1)
    if isinstance(op, MeasureOp):
        labels = gather_slots(idx, total, layout.slots([op.register]))
        rows = [np.where(labels == x, v, 0) for v in vectors
                for x in range(1 << layout.width(op.register))]
        return np.array([r for r in rows if np.vdot(r, r).real > BRANCH_PRUNE],
                        dtype=np.complex128).reshape(-1, layout.dim)
    if isinstance(op, HadamardOp):
        slots = layout.slots([op.register])
        for k in range(0, len(slots), 2):
            pair = slots[k:k + 2]
            vectors = _apply_local(vectors, total, pair, _HADAMARD_SIGNS[len(pair)][None], pair)
        return vectors * (1.0 / math.sqrt(2.0)) ** (len(slots) % 2)
    if isinstance(op, RotateOp):
        slots = [layout.qubit(*op.target)]
        if op.control is not None:
            slots.insert(0, layout.qubit(*op.control))
        c, s = math.cos(op.theta / 2.0), math.sin(op.theta / 2.0)
        m = np.eye(1 << len(slots), dtype=np.complex128)
        m[-2:, -2:] = [[c, -s], [s, c]]
        return _apply_local(vectors, total, slots, m[None], slots)
    assert isinstance(op, DenseOp), op
    slots = layout.ordered_slots(op.registers)
    dest = slots + list(range(total, total + sum(w for _, w in op.created)))
    return _apply_local(vectors, total, slots, np.stack(op.matrices), dest)


def dense_execute(spec: ProtocolSpec, input_state, keep) -> ExecutionTranscript:
    """``execute`` with every op applied to the whole ``(B, dim)`` branch
    array through ``dense_apply`` (no input checks and no error context):
    the dense run that ``execute``'s support run must equal at every kept
    step."""
    declared = dict((*spec.server.input_registers, *spec.client.input_registers))
    if input_state is None:
        ens = Ensemble(RegisterLayout(()), np.ones((1, 1), dtype=np.complex128))
    elif isinstance(input_state, PureState):
        ens = Ensemble.from_pure(input_state)
    else:
        ens = Ensemble(input_state.layout, input_state.dense().copy())
    refs = tuple(n for n in ens.layout.names if n not in declared)
    if spec.setup is not None:
        ens = ens.tensor(Ensemble.from_pure(spec.setup))
    kept = []
    for st in spec.schedule:
        for op in st.step.ops:
            ens = Ensemble(op.output_layout(ens.layout), dense_apply(op, ens.dense(), ens.layout))
        kept.append(ens if keep is None or st.t in keep or st is spec.schedule[-1] else None)
    return ExecutionTranscript(spec, kept, refs)


def database_block(ens: Ensemble, register: str | None, label: int | None) -> Ensemble:
    """The ``register = label`` block of ``ens`` as a named ``Ensemble``:
    every other label of ``register`` zeroed, and the rows whose squared
    norm is then at or below ``BRANCH_PRUNE`` dropped, the others kept in
    order.  Taken from the shared run of ``adversaries.database_runs``, it
    is bit for bit the same run on ``|label>`` alone.  ``label=None`` (a
    run of its own) is ``ens`` itself.  The block is the support's entries
    at ``label``, with no zero-filled copy; ``adversaries.block_spans``
    reads the same rows in place, with no named block."""
    if label is None:
        return ens
    sup, lay = ens.vectors, ens.layout
    rows = nonzero_rows(_label_weights(ens, register)[:, label])[0]
    new = np.full(len(sup), -1)
    new[rows] = np.arange(len(rows))
    branch = new[sup.branch]
    kept = (branch >= 0) & (gather_slots(sup.index, lay.total_qubits,
                                         lay.slots([register])) == label)
    return Ensemble(lay, Support((len(rows), lay.dim), branch[kept], sup.index[kept],
                                 sup.value[kept]))


def dense_traced(ens: Ensemble, names) -> np.ndarray:
    """The branch array of ``ens.traced(names)`` off the scattered array: the
    discarded qubits moved to the front, then one row per (branch, discarded
    label) above ``BRANCH_PRUNE``, branch-major."""
    t = slots_to_front(ens.dense(), ens.layout.total_qubits, ens.layout.slots(names))
    return t[nonzero_rows((np.abs(t) ** 2).sum(axis=2))]


def dense_aligned(ens: Ensemble, names) -> np.ndarray:
    """``ens.aligned_vectors(names)`` off the scattered array: its qubits
    moved into the register order ``names``."""
    t = slots_to_front(ens.dense(), ens.layout.total_qubits, ens.layout.ordered_slots(names))
    return t.reshape(len(ens.vectors), ens.layout.dim)


def dense_block(ens: Ensemble, register: str, label: int) -> np.ndarray:
    """The branch array of ``database_block(ens, register, label)`` off
    the scattered array: a zero-filled copy of the ``register =
    label`` block, less its rows at or below ``BRANCH_PRUNE``."""
    lay = ens.layout
    first, width = lay.offset(register), lay.width(register)
    block = ens.dense().reshape(len(ens.vectors), 1 << first, 1 << width, -1)[:, :, label]
    rows = nonzero_rows((np.abs(block) ** 2).sum(axis=(1, 2)))[0]
    out = np.zeros((len(rows), block.shape[1], 1 << width, block.shape[2]), dtype=np.complex128)
    out[:, :, label] = block[rows]
    return out.reshape(len(rows), lay.dim)


def dense_uhlmann(phi: PureState, psi: PureState, side) -> np.ndarray:
    """``distances.uhlmann_unitary`` on the whole reordered amplitude
    arrays: both states reordered to off-side registers then side registers
    (``_split_matrix``), one overlap of the two ``(rows, d_b)`` matrices and
    its SVD.  The support read must give this unitary bit for bit."""
    mat_phi, a_names, b_names = _split_matrix(phi, side)
    psi_aligned = psi.reordered(a_names + b_names)
    mat_psi = psi_aligned.amplitudes.reshape(mat_phi.shape)
    m = (mat_phi.conj().T @ mat_psi).T
    w, s, vh = np.linalg.svd(m)
    if float(np.sum(s)) < 1e-12:
        raise UhlmannPreconditionError(
            "marginals are orthogonal (fidelity 0); no useful Uhlmann rotation exists"
        )
    return (w @ vh).conj().T


def to_pure(ens: Ensemble) -> PureState:
    """The one-branch ``ens`` as a ``PureState`` of its whole layout: its
    branch scattered, divided by its ``np.linalg.norm`` and rescaled by the
    ``PureState`` constructor.  The package reads pure states on their
    support (``distances._pure_support``), scaled as this one is."""
    if not ens.is_pure:
        raise StateError(f"ensemble has {len(ens.vectors)} branches, not pure")
    return PureState.from_vector(ens.layout, ens.dense()[0], normalize=True)


def dense_trace_in_extraction(alpha, phi) -> tuple[PureState, float]:
    """``distances.trace_in_extraction`` on whole dense states: ``alpha``
    (a ``PureState`` or a one-branch ``Ensemble``, through ``to_pure``)
    reordered to ``phi``'s registers then the rest, ``phi``'s amplitudes
    aligned to them, one projection, and the bound from ``gram_reduce`` of
    ``alpha`` against ``phi``.  The support read must give ``beta``'s
    amplitudes and the bound bit for bit."""
    alpha, phi = (to_pure(s) if isinstance(s, Ensemble) else s for s in (alpha, phi))
    x_names = list(phi.layout.names)
    y_names = [n for n in alpha.layout.names if n not in set(x_names)]
    if not y_names:
        raise LayoutError("alpha has no registers beyond those of phi")
    ordered = alpha.reordered(x_names + y_names)
    d_y = 1 << sum(alpha.layout.width(n) for n in y_names)
    mat = ordered.amplitudes.reshape(-1, d_y)
    phi_vec = phi.aligned_to(RegisterLayout(tuple((n, alpha.layout.width(n)) for n in x_names)))
    proj = phi_vec.conj() @ mat
    p0 = float(np.vdot(proj, proj).real)
    if p0 < 1e-14:
        raise StateError("projection probability is 0; the X marginal is orthogonal to phi")
    beta_layout = RegisterLayout(tuple((n, alpha.layout.width(n)) for n in y_names))
    beta = PureState.from_vector(beta_layout, proj / math.sqrt(p0))
    eps = trace_distance(gram_reduce(alpha.amplitudes[None], alpha.layout, x_names),
                         DensityOperator.from_pure(phi_vec))
    return beta, math.sqrt(max(eps, 0.0))


def reference_anchors(instance, adversary) -> tuple[dict, dict]:
    """``(anchors, extraction_bounds)`` per even step from runs of their
    own: the honest and the adversarial run on ``basis_input(0, 1)``, each
    step's states then taken through ``TheoremSimulator._extract``.  The
    package reads those two runs off the theorem certificate's planned run
    instead (``privacy._index_one_block``) and must give the same anchors,
    bit for bit, and the same bounds."""
    sim, spec = TheoremSimulator(instance, adversary), instance.spec
    run = instance.basis_input(0, 1)
    honest, adversarial = execute(spec, run), execute(adversary.modified_spec(spec), run)
    anchors, bounds = {}, {}
    for st in spec.schedule:
        if st.party == CLIENT:
            anchors[st.t], bounds[st.t] = sim._extract(st.t, adversarial.ensemble(st.t),
                                                       honest.ensemble(st.t))
    return anchors, bounds
