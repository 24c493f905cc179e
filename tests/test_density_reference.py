"""Privacy figures against an independent density-matrix reference.

The other slow references share code with the paths they check: the
per-input loop in ``test_steering.py`` still runs ``execute``, the branch
ensembles and the QR distance.  This one shares none of it.

- Each test input runs on its own, with no steering.  Its state is one
  global density tensor, one ket and one bra axis per register.
- Each op is applied as ``sum_K K rho K^dagger`` by ``np.einsum`` over that
  op's registers only.  The ``K`` are built on the op's own registers, entry
  by entry, by the builders of ``test_kernel_reference.py``.
- The server's view at step ``t`` is an ``np.einsum`` partial trace over the
  registers that ``spec.schedule`` gives to the client at ``t``.
- A distance is half the absolute eigenvalue sum of the dense difference.

Scope: runs of at most 11 qubits, where ``rho`` has 2,048^2 entries
(64 MiB): ``build_kerenidis(1)``, ``build_kerenidis(2)``,
``build_counterexample(1)`` and the lossy rotation family on
``build_kerenidis(2)``, the index reference included.  The purification
attack on ``build_kerenidis(2)`` (13 qubits) and the purified counterexample
at n = 2 (16 qubits) are out of reach.
"""

from functools import cache
from itertools import combinations

import numpy as np
import pytest

from qpirlab.adversaries import (adversary_by_name, database_groups, measure_speciousness,
                                 standard_inputs, steer)
from qpirlab.privacy import HonestSimulator, _run_views, privacy_lower_bound
from qpirlab.protocols import build_counterexample, build_kerenidis
from qpirlab.runtime import CLIENT
from qpirlab.states import RegisterLayout
from conftest import random_pure
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
    return state.amplitudes[None] if hasattr(state, "amplitudes") else state.vectors


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


def _adversary(inst_name, adv_name):
    inst = _instance(inst_name)
    return None if adv_name is None else adversary_by_name(inst, adv_name)


@cache
def _reference(inst_name, adv_name):
    """Over every standard input, the superposed database included:
    ``{input label: (views, distances)}``.  With an adversary, ``distances``
    holds the speciousness at each step, the recovered global state against
    the honest one; without, it is empty.  Global states are not kept."""
    inst = _instance(inst_name)
    adv = _adversary(inst_name, adv_name)
    inputs = standard_inputs(inst, superposed_db=inst.database_register is not None)
    out = {}
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
    _reference.cache_clear()


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


@pytest.mark.parametrize("inst_name", ["k1", "k2", "cx1"])
def test_honest_certificate_matches_the_density_reference(inst_name):
    inst = _instance(inst_name)
    ref = _reference(inst_name, None)
    eps, rows = HonestSimulator(inst).epsilon_upper()
    want = {}
    for members in database_groups(standard_inputs(inst)):
        # the simulator's view is the honest one on index 1
        own = ref[members[0].label][0]
        assert members[0].label.endswith("i=1")
        for ins in members:
            views = ref[ins.label][0]
            marginal = None
            if ins.reference:
                client = _density([(ins.client.layout, _branches(ins.client))])
                marginal = _traced(client, set(ins.client.layout.names) - set(ins.reference))
            for t, view in views.items():
                sim = own[t] if marginal is None else _kron(own[t], marginal)
                want[(ins.label, t)] = _distance(sim, view)
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
    run = _run_views(inst.spec, database, steps)
    for client in clients:
        want, _ = _run(inst.spec, database, client)
        for t in steps:
            got = steer(run[t], client, ("refx", "refy"))
            rows = got.vectors
            dims = [1 << w for _, w in got.layout.registers]
            view = (got.layout.registers, (rows.T @ rows.conj()).reshape(dims + dims))
            assert _distance(view, want[t]) <= TOL, t
