"""Privacy figures against an independent density-matrix reference.

The other slow references share code with the paths they check: the
per-input loop in ``test_steering.py`` still runs ``execute``, the branch
ensembles and the QR distance.  This one shares none of it.

- Each test input runs on its own, with no steering.  On a protocol that
  measures (the counterexample), its state is one global density tensor,
  one ket and one bra axis per register.
- Each op is applied as ``sum_K K rho K^dagger`` by ``np.einsum`` over that
  op's registers only.  The ``K`` are built on the op's own registers, entry
  by entry, by the builders of ``test_kernel_reference.py``.
- The server's view at step ``t`` is an ``np.einsum`` partial trace over the
  registers that ``spec.schedule`` gives to the client at ``t``.
- A measurement-free protocol runs each branch of an input as one ket, as in
  the theorem section below, and its view at ``t`` is the sum over branches
  of the ket, reshaped to rows over the server's registers, times its
  adjoint; its speciousness is that section's meter.
- A distance is half the absolute eigenvalue sum of the dense difference.

Scope: runs of at most 11 qubits, where ``rho`` has 2,048^2 entries
(64 MiB): ``build_kerenidis(1)``, ``build_kerenidis(2)``,
``build_counterexample(1)`` and the lossy rotation family on
``build_kerenidis(2)``, the index reference included.  The purification
attack on ``build_kerenidis(2)`` (13 qubits) and the purified counterexample
at n = 2 (16 qubits) are out of reach.

The theorem certificate and ``verify_theorem_bound`` have their own
reference in the last section of the module, on measurement-free runs, so each
branch of an input is one ket.  Each op is one ``np.einsum`` of its single
operator into the ket.  The anchor is the recovered run on (db = 0,
i = 1), its honest registers projected onto the honest run's ket and the
rest renormalized.  The simulated view is the anchor (x) the honest run on
(db, i = 1), with the recovery ops applied in reverse order as
``K^dagger``, and the client's registers traced out.  The meter's gamma
compares each recovered global state with the honest one as dense
matrices.  It covers ``build_kerenidis(1)`` with ``honest-purified``,
``purify-db``, ``gamma:0.3`` and ``gamma-lossy:0.3``, and
``build_kerenidis(2)`` with ``honest-purified``, ``gamma:0.3`` and
``gamma-lossy:0.3``.  These recoveries are single ops or ops on distinct
ancillas, which commute, so ``build_kerenidis(1)`` also runs a test-local
adversary whose recovery ops do not commute (a Hadamard after each
rotation).  ``purify-db`` on ``build_kerenidis(2)`` runs on 12 qubits (13
with the index reference) and its server views on up to 10; its
certificate reference takes about as long as the rest of this module, so
it is left out.

The reconstruction attack has its own reference before that section.  Its
runs are measurement-free and start from a pure input, so each run is
one ket, one axis per register, and each op is one ``np.einsum`` of its
single operator into that ket.  Every state the attack measures is a dense
matrix, each Uhlmann unitary comes from an SVD of the dense overlap, and
each bit is measured as ``sqrt(L) rho sqrt(L) / p`` with ``L`` the dense
projector.  It covers ``build_kerenidis(1)`` and ``build_kerenidis(2)`` (10
qubits with the reference), in ``coherent-reference`` mode and in
``classical-per-a`` mode on every database.
"""

import math
from dataclasses import replace
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from qpirlab.adversaries import (adversary_by_name, database_groups, gamma_family,
                                 measure_speciousness, standard_inputs)
from qpirlab.bounds import extraction_attack
from qpirlab.channels import HadamardOp, MeasureOp
from qpirlab.privacy import (FIGURE_TOL, HonestSimulator, TheoremSimulator,
                             privacy_lower_bound, verify_theorem_bound)
from qpirlab.protocols import build_counterexample, build_kerenidis, database_bits, epr_pair_state
from qpirlab.runtime import CLIENT
from qpirlab.states import RegisterLayout
from conftest import random_pure
from span_reference import run_views, steer
from test_kernel_reference import REFERENCE

TOL = 1e-12

INSTANCES = {
    "k1": lambda: build_kerenidis(1),
    "k2": lambda: build_kerenidis(2),
    "cx1": lambda: build_counterexample(1),
}
LOSSY = "gamma-lossy:0.3"


# ---------------------------------------------------------------------------
# dense states: (registers, tensor), one ket then one bra axis per register
# ---------------------------------------------------------------------------


def _branches(state):
    # the rows of a pure state or of a branch ensemble, read without its class
    return state.amplitudes[None] if hasattr(state, "amplitudes") else state.dense()


def _density(parts):
    """The product of ``(layout, branch rows)`` parts as a dense state."""
    regs, rho = (), np.ones((1, 1), dtype=complex)
    for layout, rows in parts:
        regs += layout.registers
        rho = np.kron(rho, rows.T @ rows.conj())
    dims = [1 << w for _, w in regs]
    return regs, rho.reshape(dims + dims)


def _apply(state, op):
    """``sum_K K rho K^dagger`` over the op's registers; the registers it
    creates are appended."""
    regs, rho = state
    names = [n for n, _ in regs]
    sub = RegisterLayout(tuple((n, dict(regs)[n]) for n in op.touches))
    new = tuple(op.creates)
    n, k, m = len(names), len(sub.registers), len(new)
    pos = [names.index(r) for r in sub.names]
    out_dims = [1 << w for _, w in sub.registers + new]
    in_dims = [1 << w for _, w in sub.registers]
    # einsum labels: ket axes 0..n-1, bra axes n..2n-1, then the op's
    # outputs on the ket side (o) and on the bra side (p)
    ket, bra = list(range(n)), list(range(n, 2 * n))
    o = list(range(2 * n, 2 * n + k + m))
    p = list(range(2 * n + k + m, 2 * n + 2 * (k + m)))
    ket_out = [o[pos.index(i)] if i in pos else i for i in range(n)] + o[k:]
    bra_out = [p[pos.index(i)] if i in pos else n + i for i in range(n)] + p[k:]
    total = None
    for mat in REFERENCE[type(op)](op, sub):
        kt = mat.reshape(out_dims + in_dims)
        half = np.einsum(kt, o + pos, rho, ket + bra, ket_out + bra, optimize=True)
        out = np.einsum(kt.conj(), p + [n + i for i in pos], half, ket_out + bra,
                        ket_out + bra_out, optimize=True)
        total = out if total is None else total + out
    return regs + new, total


def _traced(state, drop):
    regs, rho = state
    n = len(regs)
    labels = [i for i in range(n)] + [i if regs[i][0] in drop else n + i for i in range(n)]
    keep = [i for i in range(n) if regs[i][0] not in drop]
    out = np.einsum(rho, labels, keep + [n + i for i in keep])
    return tuple(regs[i] for i in keep), out


def _matrix(state, names):
    """The state as a square matrix over ``names``, big-endian in that order."""
    regs, rho = state
    order = [[r[0] for r in regs].index(name) for name in names]
    assert sorted(order) == list(range(len(regs))), (names, regs)
    dim = int(np.prod([1 << regs[i][1] for i in order], dtype=int))
    return rho.transpose(order + [len(regs) + i for i in order]).reshape(dim, dim)


def _distance(a, b) -> float:
    names = sorted(r[0] for r in a[0])
    diff = _matrix(a, names) - _matrix(b, names)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _kron(a, b):
    (ra, ta), (rb, tb) = a, b
    na, nb = len(ra), len(rb)
    t = np.multiply.outer(ta, tb)
    order = (list(range(na)) + list(range(2 * na, 2 * na + nb))
             + list(range(na, 2 * na)) + list(range(2 * na + nb, 2 * (na + nb))))
    return ra + rb, t.transpose(order)


# ---------------------------------------------------------------------------
# one run per test input
# ---------------------------------------------------------------------------


def _input(spec, database, client):
    parts = [(s.layout, _branches(s)) for s in (database, client, spec.setup) if s is not None]
    return _density(parts)


def _run(spec, database, client, recoveries=None):
    """Per step ``t``: the server's view at even ``t`` and the global state,
    with the step-``t`` recovery applied and its discards traced when
    ``recoveries`` is given."""
    state = _input(spec, database, client)
    views, states = {}, {}
    for st in spec.schedule:
        for op in st.step.ops:
            state = _apply(state, op)
        if st.party == CLIENT:
            views[st.t] = _traced(state, {n for n, tag in st.owner.items() if tag == CLIENT})
        if recoveries is None:
            states[st.t] = state
        else:
            rec = state
            for op in recoveries[st.t - 1].ops:
                rec = _apply(rec, op)
            states[st.t] = _traced(rec, set(recoveries[st.t - 1].discard))
    return views, states


@cache
def _instance(name):
    return INSTANCES[name]()


def _hadamard_after_rotation(inst, theta):
    """``gamma:theta`` with a Hadamard on each ancilla after its rotation.
    The recovery undoes the Hadamard first, so its two ops per ancilla do
    not commute and their order shows in the theorem certificate."""
    adv = gamma_family(inst, theta)
    steps = tuple(replace(step, ops=step.ops + (HadamardOp(step.ops[-1].target[0]),))
                  for step in adv.program.steps)
    recoveries = tuple(replace(rec, ops=tuple(op for a, undo in zip(rec.discard, rec.ops)
                                              for op in (HadamardOp(a), undo)))
                       for rec in adv.recoveries)
    return replace(adv, name=f"gamma-hadamard:{theta}",
                   program=replace(adv.program, steps=steps), recoveries=recoveries)


def _adversary(inst_name, adv_name):
    inst = _instance(inst_name)
    if adv_name is None:
        return None
    if adv_name.startswith("gamma-hadamard:"):
        return _hadamard_after_rotation(inst, float(adv_name.split(":")[1]))
    return adversary_by_name(inst, adv_name)


@cache
def _reference(inst_name, adv_name):
    """Over every standard input, the superposed database included:
    ``{input label: (views, distances)}``.  With an adversary, ``distances``
    holds the speciousness at each step, the recovered global state against
    the honest one; without, it is empty.  Global states are not kept.  A
    protocol that measures runs as density tensors; any other as kets."""
    inst = _instance(inst_name)
    adv = _adversary(inst_name, adv_name)
    inputs = standard_inputs(inst, superposed_db=inst.database_register is not None)
    out = {}
    if not any(isinstance(op, MeasureOp) for st in inst.spec.schedule for op in st.step.ops):
        # measurement-free: one ket per input branch, and the meter's figures
        spec = inst.spec if adv is None else adv.modified_spec(inst.spec)
        meter = {} if adv is None else _meter(inst_name, adv_name)
        for ins in inputs:
            runs = _runs(spec, ins.database, ins.client)
            views = {st.t: _mixed([run[st.t] for run in runs], _server_names(st, runs[0][st.t][0]))
                     for st in spec.schedule if st.party == CLIENT}
            out[ins.label] = views, {t: d for (label, t), d in meter.items() if label == ins.label}
        return out
    for ins in inputs:
        if adv is None:
            views, _ = _run(inst.spec, ins.database, ins.client)
            out[ins.label] = views, {}
            continue
        views, recovered = _run(adv.modified_spec(inst.spec), ins.database, ins.client,
                                adv.recoveries)
        _, honest = _run(inst.spec, ins.database, ins.client)
        out[ins.label] = views, {t: _distance(recovered[t], honest[t]) for t in honest}
    return out


@pytest.fixture(autouse=True, scope="module")
def _free_the_references():
    yield
    for cached in (_reference, _honest_certificate, _meter, _theorem_certificate):
        cached.cache_clear()


CASES = [("k1", None), ("k2", None), ("cx1", None), ("k2", LOSSY)]


@pytest.mark.parametrize("inst_name,adv_name", CASES)
@pytest.mark.parametrize("mode", ["anchored", "full"])
def test_privacy_rows_match_the_density_reference(inst_name, adv_name, mode):
    inst = _instance(inst_name)
    ref = _reference(inst_name, adv_name)
    report = privacy_lower_bound(inst, _adversary(inst_name, adv_name), mode)
    inputs = standard_inputs(inst, superposed_db=(mode == "full"))
    steps = sorted(ref[inputs[0].label][0])
    want = {}
    for members in database_groups(inputs):
        classes = {}
        for ins in members:
            classes.setdefault(ins.marginal_key, []).append(ins.label)
        for labels in classes.values():
            for la, lb in combinations(labels, 2):
                for t in steps:
                    want[(t, members[0].x_label, (la, lb))] = _distance(ref[la][0][t],
                                                                        ref[lb][0][t])
    got = {(r.step, r.x_label, r.pair): r.distance for r in report.rows}
    assert got.keys() == want.keys()
    for key, d in want.items():
        assert abs(got[key] - d) <= TOL, (key, got[key], d)
    assert abs(report.eps_lower - max(want.values(), default=0.0) / 2) <= TOL


def _reference_marginal(ins):
    """The input's client state on its reference registers, or ``None``."""
    if not ins.reference:
        return None
    client = _density([(ins.client.layout, _branches(ins.client))])
    return _traced(client, set(ins.client.layout.names) - set(ins.reference))


@cache
def _honest_certificate(inst_name):
    """``{(input label, t): distance}`` of the honest certificate."""
    inst = _instance(inst_name)
    ref = _reference(inst_name, None)
    want = {}
    for members in database_groups(standard_inputs(inst)):
        # the simulator's view is the honest one on index 1
        own = ref[members[0].label][0]
        assert members[0].label.endswith("i=1")
        for ins in members:
            marginal = _reference_marginal(ins)
            for t, view in ref[ins.label][0].items():
                sim = own[t] if marginal is None else _kron(own[t], marginal)
                want[(ins.label, t)] = _distance(sim, view)
    return want


@pytest.mark.parametrize("inst_name", ["k1", "k2", "cx1"])
def test_honest_certificate_matches_the_density_reference(inst_name):
    inst = _instance(inst_name)
    eps, rows = HonestSimulator(inst).epsilon_upper()
    want = _honest_certificate(inst_name)
    got = {(label, t): d for label, t, d in rows}
    assert got.keys() == want.keys()
    for key, d in want.items():
        assert abs(got[key] - d) <= TOL, (key, got[key], d)
    assert abs(eps - max(want.values())) <= TOL


@pytest.mark.parametrize("inst_name,adv_name", [("k2", LOSSY), ("k1", LOSSY),
                                                ("cx1", "honest-purified")])
def test_speciousness_matches_the_density_reference(inst_name, adv_name):
    inst = _instance(inst_name)
    report = measure_speciousness(inst, _adversary(inst_name, adv_name))
    want = {(label, t): d for label, (_, dists) in _reference(inst_name, adv_name).items()
            for t, d in dists.items()}
    got = {(label, t): d for label, t, d in report.rows}
    assert got.keys() == want.keys()
    for key, d in want.items():
        assert abs(got[key] - d) <= TOL, (key, got[key], d)
    assert abs(report.gamma_hat - max(want.values())) <= TOL


def test_views_of_any_client_state_match_the_density_reference(rng):
    """Complex amplitudes and two references besides the index: the views
    hold for any client state, not only the real standard set."""
    inst = _instance("k2")
    layout = RegisterLayout(((inst.index_register, inst.levels), ("refx", 1), ("refy", 1)))
    clients = [random_pure(rng, layout) for _ in range(2)]
    database = inst.database_state(2)
    steps = [st.t for st in inst.spec.schedule if st.party == CLIENT]
    run = run_views(inst.spec, database, steps)
    for client in clients:
        want, _ = _run(inst.spec, database, client)
        for t in steps:
            got = steer(run[t], client, ("refx", "refy"))
            rows = got.dense()
            dims = [1 << w for _, w in got.layout.registers]
            view = (got.layout.registers, (rows.T @ rows.conj()).reshape(dims + dims))
            assert _distance(view, want[t]) <= TOL, t


# ---------------------------------------------------------------------------
# the reconstruction attack: one ket per run
# ---------------------------------------------------------------------------


def _ket_apply(run, op, adjoint=False):
    """``K |psi>`` (or ``K^dagger |psi>``) for an op with one operator, by
    ``np.einsum`` over its registers; the registers it creates are
    appended."""
    regs, ket = run
    names = [n for n, _ in regs]
    sub = RegisterLayout(tuple((n, dict(regs)[n]) for n in op.touches))
    new = tuple(op.creates)
    n, k = len(names), len(sub.registers)
    pos = [names.index(r) for r in sub.names]
    (mat,) = REFERENCE[type(op)](op, sub)
    if adjoint:
        assert not new
        mat = mat.conj().T
    kt = mat.reshape([1 << w for _, w in sub.registers + new]
                     + [1 << w for _, w in sub.registers])
    o = list(range(n, n + k + len(new)))
    out = [o[pos.index(i)] if i in pos else i for i in range(n)] + o[k:]
    return regs + new, np.einsum(kt, o + pos, ket, list(range(n)), out)


def _kets(spec, parts):
    """``{t: (registers, ket)}`` after each step of a measurement-free run
    on the product of the ``(registers, amplitudes)`` parts."""
    regs, ket = (), np.ones((), dtype=complex)
    for part, amplitudes in parts:
        regs += part
        ket = np.multiply.outer(ket, amplitudes.reshape([1 << w for _, w in part]))
    out = {}
    for st in spec.schedule:
        for op in st.step.ops:
            regs, ket = _ket_apply((regs, ket), op)
        out[st.t] = regs, ket
    return out


def _evolve(spec, state):
    """The final ``(registers, ket)`` of a measurement-free run on a pure
    input."""
    parts = [(s.layout.registers, s.amplitudes) for s in (state, spec.setup) if s is not None]
    return _kets(spec, parts)[spec.schedule[-1].t]


def _rows(run, names):
    """The ket as a matrix: rows over ``names`` big-endian in that order,
    columns over the other registers in layout order."""
    regs, ket = run
    order = [n for n, _ in regs]
    rest = [n for n in order if n not in names]
    axes = [order.index(n) for n in list(names) + rest]
    dim = int(np.prod([1 << dict(regs)[n] for n in names], dtype=int))
    return ket.transpose(axes).reshape(dim, -1)


def _half_norm(diff) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _root(lam):
    """sqrt(L) of a dense projector: its eigenvalues are rounded to the 0 or
    1 they stand for, since the root of eigen-noise 1e-17 is 3e-9."""
    evals, evecs = np.linalg.eigh(lam)
    assert np.all(np.abs(evals - np.round(evals)) <= 1e-10) and set(np.round(evals)) <= {0, 1}
    return (evecs * np.sqrt(np.round(evals))) @ evecs.conj().T


def _attack_reference(inst, mode, db=None):
    """``(probabilities, drifts, delta, epsilon, overall)`` of the attack."""
    n, spec = inst.n, inst.spec
    owner = spec.schedule[-1].owner

    def run(i):
        if mode == "classical-per-a":
            return _evolve(spec, inst.basis_input(db, i))
        client = inst.client_basis_state(i)
        dbpart = epr_pair_state("refdb", inst.database_register, n)
        return _evolve(spec, dbpart.tensor(client) if client.layout.registers else dbpart)

    runs = [run(i) for i in range(1, n + 1)]
    regs = runs[0][0]
    client = [name for name, _ in regs if owner.get(name) == CLIENT]
    server = [name for name, _ in regs if name not in client]
    held = client if mode == "classical-per-a" else ["refdb"] + client
    labels = np.indices([1 << dict(regs)[name] for name in held]).reshape(len(held), -1)
    out = labels[held.index(inst.output_register)]

    # the database bit i that a database label (or the classical database) holds
    def bit(i):
        if mode == "classical-per-a":
            return np.full(out.shape, database_bits(db, n)[i - 1])
        return np.array([database_bits(int(a), n)[i - 1] for a in labels[0]])

    correct = [float(np.sum(np.abs(_rows(r, held)) ** 2, axis=1) @ (out == bit(i)))
               for i, r in enumerate(runs, start=1)]
    views = [_rows(r, server) @ _rows(r, server).conj().T for r in runs]
    eps = max((_half_norm(views[0] - v) / 2 for v in views[1:]), default=0.0)

    # Uhlmann: U maximizes |<run 1| (I (x) U) |run i>| = |tr(U X)|, with
    # X = Psi^T Phi^* over (server, client) splits; U = V W^dagger from
    # X = W S V^dagger.
    phi = _rows(runs[0], server)
    unitaries = [np.eye(phi.shape[1])]
    for r in runs[1:]:
        w, s, vh = np.linalg.svd(_rows(r, server).T @ phi.conj())
        assert np.sum(s) > 1e-12
        unitaries.append(vh.conj().T @ w.conj().T)

    m = _rows(runs[0], held)
    sigma = rho = m @ m.conj().T
    probabilities, drifts = [], []
    for i, u in enumerate(unitaries, start=1):
        # the client's registers (the last ones in ``held``) are rotated by U
        blocks = len(out) // len(u)
        rot = np.kron(np.eye(blocks), u)
        lam = rot.conj().T @ np.diag((out == bit(i)).astype(float)) @ rot
        root = _root(lam)
        p = float(np.trace(lam @ rho).real)
        rho = root @ rho @ root / p
        probabilities.append(p)
        drifts.append(_half_norm(rho - sigma))
    return probabilities, drifts, max(0.0, 1.0 - min(correct)), eps, float(np.prod(probabilities))


ATTACKS = ([("k1", "coherent-reference", None), ("k2", "coherent-reference", None)]
           + [("k1", "classical-per-a", db) for db in range(2)]
           + [("k2", "classical-per-a", db) for db in range(4)])


@pytest.mark.parametrize("inst_name,mode,db", ATTACKS)
def test_reconstruction_attack_matches_the_density_reference(inst_name, mode, db):
    inst = _instance(inst_name)
    trace = extraction_attack(inst, mode, database=db)
    probabilities, drifts, delta, eps, overall = _attack_reference(inst, mode, db)
    assert len(trace.bits) == inst.n
    for b, p, drift in zip(trace.bits, probabilities, drifts):
        assert b.premise_ok
        assert abs(b.probability - p) <= TOL, (b.index, b.probability, p)
        assert abs(b.drift - drift) <= TOL, (b.index, b.drift, drift)
    assert abs(trace.delta - delta) <= TOL
    assert abs(trace.epsilon - eps) <= TOL
    assert abs(trace.overall - overall) <= TOL


# ---------------------------------------------------------------------------
# the theorem certificate: one ket per input branch
# ---------------------------------------------------------------------------


def _runs(spec, database, client):
    """Per branch of ``client``: the ``{t: (registers, ket)}`` of the run on
    ``database`` (x) that branch."""
    states = [s for s in (database, client, spec.setup) if s is not None]
    return [_kets(spec, [(s.layout.registers, row) for s, row in zip(states, rows)])
            for rows in product(*(_branches(s) for s in states))]


def _mixed(kets, names):
    """The branch kets summed as a density on ``names``, the other registers
    traced out."""
    regs = dict(kets[0][0])
    rho = sum(m @ m.conj().T for m in (_rows(k, names) for k in kets))
    dims = [1 << regs[n] for n in names]
    return tuple((n, regs[n]) for n in names), rho.reshape(dims + dims)


def _server_names(st, regs):
    return [n for n, _ in regs if st.owner.get(n) != CLIENT]


def _database_of(inst, db):
    return inst.database_state(db) if inst.database_register else None


@cache
def _meter(inst_name, adv_name):
    """``{(input label, t): distance}`` of the speciousness meter: the
    recovered global state (recovery ops applied to each branch ket, the
    discards traced) against the honest one, on every standard input."""
    inst, adv = _instance(inst_name), _adversary(inst_name, adv_name)
    adv_spec = adv.modified_spec(inst.spec)
    out = {}
    for ins in standard_inputs(inst, superposed_db=inst.database_register is not None):
        honest = _runs(inst.spec, ins.database, ins.client)
        attacked = _runs(adv_spec, ins.database, ins.client)
        for st in inst.spec.schedule:
            recovery = adv.recoveries[st.t - 1]
            kept = [n for n, _ in honest[0][st.t][0]]
            recovered = []
            for run in attacked:
                state = run[st.t]
                for op in recovery.ops:
                    state = _ket_apply(state, op)
                assert {n for n, _ in state[0]} - set(recovery.discard) == set(kept)
                recovered.append(state)
            out[(ins.label, st.t)] = _distance(_mixed(recovered, kept),
                                               _mixed([run[st.t] for run in honest], kept))
    return out


def _anchor(adv, honest, attacked, t):
    """The anchor at step ``t`` as ``(registers, ket)``, or ``None`` when the
    recovery discards nothing: the recovered run on (db = 0, i = 1) with the
    honest run's registers projected onto the honest ket, renormalized."""
    recovery = adv.recoveries[t - 1]
    if not recovery.discard:
        return None
    state = attacked[t]
    for op in recovery.ops:
        state = _ket_apply(state, op)
    names = [n for n, _ in honest[t][0]]
    rest = tuple(r for r in state[0] if r[0] not in names)
    assert {n for n, _ in rest} == set(recovery.discard)
    left = _rows(honest[t], names)[:, 0].conj() @ _rows(state, names)
    return rest, (left / np.linalg.norm(left)).reshape([1 << w for _, w in rest])


@cache
def _theorem_certificate(inst_name, adv_name):
    """``{(input label, t): distance}`` of ``TheoremSimulator(inst,
    adv).certify()``: per anchored input and even step, the simulated view
    beside the input's reference marginal against the adversary's view.
    The simulated view is the anchor (x) the honest run on (db, i = 1), with
    the recovery ops applied in reverse order as ``K^dagger`` and the
    client's registers traced out."""
    inst, adv = _instance(inst_name), _adversary(inst_name, adv_name)
    adv_spec = adv.modified_spec(inst.spec)
    even = [st for st in inst.spec.schedule if st.party == CLIENT]
    first = (_database_of(inst, 0), inst.client_basis_state(1))
    (honest,), (attacked,) = _runs(inst.spec, *first), _runs(adv_spec, *first)
    anchors = {st.t: _anchor(adv, honest, attacked, st.t) for st in even}
    out = {}
    for members in database_groups(standard_inputs(inst)):
        (own,) = _runs(inst.spec, _database_of(inst, members[0].db), inst.client_basis_state(1))
        sims = {}
        for st in even:
            state = own[st.t]
            if anchors[st.t] is not None:
                (ra, ka), (rs, ks) = anchors[st.t], state
                state = ra + rs, np.multiply.outer(ka, ks)
                for op in reversed(adv.recoveries[st.t - 1].ops):
                    state = _ket_apply(state, op, adjoint=True)
            sims[st.t] = _mixed([state], _server_names(st, state[0]))
        for ins in members:
            runs = _runs(adv_spec, ins.database, ins.client)
            marginal = _reference_marginal(ins)
            for st in even:
                kets = [run[st.t] for run in runs]
                view = _mixed(kets, _server_names(st, kets[0][0]))
                sim = sims[st.t] if marginal is None else _kron(sims[st.t], marginal)
                out[(ins.label, st.t)] = _distance(sim, view)
    return out


THEOREM_CASES = {"k1": ("honest-purified", "purify-db", "gamma:0.3", LOSSY, "gamma-hadamard:0.3"),
                 "k2": ("honest-purified", "gamma:0.3", LOSSY)}


@pytest.mark.parametrize("inst_name,adv_name", [(inst, adv) for inst, advs in
                                                THEOREM_CASES.items() for adv in advs])
def test_theorem_certificate_matches_the_density_reference(inst_name, adv_name):
    inst = _instance(inst_name)
    sim = TheoremSimulator(inst, _adversary(inst_name, adv_name))
    eps, rows = sim.certify()
    want = _theorem_certificate(inst_name, adv_name)
    got = {(label, t): d for label, t, d in rows}
    assert got.keys() == want.keys()
    for key, d in want.items():
        assert abs(got[key] - d) <= TOL, (key, got[key], d)
    assert abs(eps - max(want.values())) <= TOL


@pytest.mark.parametrize("inst_name", sorted(THEOREM_CASES))
def test_theorem_bound_rows_match_the_density_reference(inst_name):
    names = THEOREM_CASES[inst_name]
    rows = verify_theorem_bound(_instance(inst_name),
                                [_adversary(inst_name, name) for name in names])
    eps_honest = max(_honest_certificate(inst_name).values())
    assert [row.adversary for row in rows] == list(names)
    for row, name in zip(rows, names):
        gamma = max(_meter(inst_name, name).values())
        bound = eps_honest + 3 * math.sqrt(2 * (gamma if gamma > FIGURE_TOL else 0.0))
        want = {"gamma_hat": gamma, "eps_hat": max(_theorem_certificate(inst_name, name).values()),
                "eps_honest": eps_honest, "bound": bound}
        for field, value in want.items():
            got = getattr(row, field)
            assert abs(got - value) <= TOL, (name, field, got, value)
