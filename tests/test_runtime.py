import numpy as np
import pytest

from conftest import random_pure
from qpirlab import distances, runtime
from qpirlab.adversaries import measure_speciousness, purified_honest, standard_inputs
from qpirlab.channels import CopyOp, HadamardOp, MeasureOp, PrepareOp
from qpirlab.config import CapExceeded
from qpirlab.distances import trace_distance
from qpirlab.protocols import build_counterexample, build_kerenidis, epr_pair_state
from qpirlab.runtime import (
    Ensemble,
    PartyProgram,
    PartyStep,
    ProtocolShapeError,
    ProtocolSpec,
    communication,
    execute,
    fold_setup_into_messages,
    spec_from_json,
    spec_to_json,
)
from qpirlab.states import DensityOperator, LayoutError, PureState, RegisterLayout, StateError


def send_db_spec(n=2):
    server = PartyProgram(
        "A",
        (PartyStep((PrepareOp.zeros((("m", n),)), CopyOp("db", "m")), ("m",)),),
        (("db", n),),
    )
    client = PartyProgram("B", (PartyStep((), ()),), ())
    return ProtocolSpec(1, server, client, None, name="send-db-raw")


def test_send_db_copy_baseline():
    spec = send_db_spec(2)
    inp = PureState.basis(RegisterLayout((("db", 2),)), {"db": 0b10})
    tr = execute(spec, inp)
    probs = tr.final.probabilities(("m",))
    assert probs[0b10] == pytest.approx(1.0)
    bill = communication(tr.spec)
    assert (bill.m_a, bill.m_b) == (2, 0)


def test_shape_errors_report_step():
    # client touches the server's input register, which was never sent over
    server = PartyProgram("A", (PartyStep((), ()),), (("db", 1),))
    bad_client = PartyProgram("B", (PartyStep((HadamardOp("db"),), ()),), ())
    with pytest.raises(ProtocolShapeError, match="step 2"):
        ProtocolSpec(1, server, bad_client, None)


def test_a_cap_error_names_the_step_the_op_and_its_registers(monkeypatch):
    # 2 db + 2 idx/refi + 4 setup qubits fit a cap of 9; the first server
    # step prepares the 2-qubit dbm, which does not
    cx = build_counterexample(2)
    adv = purified_honest(cx)
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "9")
    with pytest.raises(CapExceeded, match=r"^step 1 \(A\): PrepareOp on \['dbm'\]: "
                                          r"layout needs 10 qubits, cap is 9$"):
        measure_speciousness(cx, adv)
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "7")
    with pytest.raises(CapExceeded, match=r"^setup \['r11', 'r11c', 'r21', 'r21c'\]: "
                                          r"state needs 8 qubits, cap is 7$"):
        measure_speciousness(cx, adv)


def test_send_of_unowned_register_rejected():
    server = PartyProgram("A", (PartyStep((), ("idx",)),), (("db", 1),))
    client = PartyProgram("B", (PartyStep((), ()),), (("idx", 1),))
    with pytest.raises(ProtocolShapeError, match="cannot send"):
        ProtocolSpec(1, server, client, None)


def test_degenerate_round_rejected():
    server = PartyProgram("A", (PartyStep((), ()),), (("db", 1),))
    client = PartyProgram("B", (PartyStep((), ()),), ())
    with pytest.raises(ProtocolShapeError, match="degenerate"):
        ProtocolSpec(1, server, client, None)


def test_reference_immunity_and_entangled_reference():
    inst = build_kerenidis(2)
    # client index entangled with an untouched reference register
    layout = RegisterLayout((("idx", 1), ("ref", 1)))
    ent = PureState.from_vector(layout, np.array([1, 0, 0, 1]) / np.sqrt(2))
    inp = inst.input_with_client(0b01, ent)
    tr = execute(inst.spec, inp)
    marginals = [tr.ensemble(t).reduced(["ref"]).matrix for t in range(1, tr.steps + 1)]
    for m in marginals[1:]:
        assert np.max(np.abs(m - marginals[0])) <= 1e-10
    # reference marginal also matches the honest no-reference run's constant I/2
    np.testing.assert_allclose(marginals[0], np.eye(2) / 2, atol=1e-10)


def test_purity_preserved_measurement_free():
    inst = build_kerenidis(2)
    tr = inst.run(0b01, 2)
    for t in range(1, tr.steps + 1):
        v = tr.ensemble(t).dense()
        assert np.sum(np.abs(v.conj() @ v.T) ** 2) == pytest.approx(1.0, abs=1e-9)
        assert tr.ensemble(t).is_pure


def test_ownership_partitions_layout():
    inst = build_kerenidis(2)
    tr = inst.run(0b01, 1)
    for t in range(1, tr.steps + 1):
        own = tr.ownership(t)
        names = set(tr.ensemble(t).layout.names)
        assert set(own) >= names
        assert all(own[n] in ("A", "B", "R", "A->B", "B->A") for n in names)


@pytest.mark.parametrize("label", ["x=01,i=1", "x=01,i-entangled"])
def test_ownership_queries_partition_layout(label):
    inst = build_kerenidis(2)
    ins = next(i for i in standard_inputs(inst) if i.label == label)
    tr = execute(inst.spec, ins.state)
    for t in range(1, tr.steps + 1):
        names = tr.ensemble(t).layout.names
        parts = (tr.owned(t, "A"), tr.owned(t, "B"), tr.in_transit(t), ins.reference)
        assert sorted(n for part in parts for n in part) == sorted(names)
        for part in parts[:3]:
            assert list(part) == [n for n in names if n in part]  # layout order
        view = tr.server_view(t)
        assert view.layout.names == tuple(n for n in names if n not in tr.owned(t, "B"))


def test_in_transit_is_what_the_step_sent():
    tr = build_kerenidis(2).run(0b01, 1)
    assert [tr.in_transit(t) for t in range(1, 5)] == [("q0", "q1"), ("q0", "q1"), ("f",), ()]


def test_ensemble_tensor_appends_registers_and_orders_branches():
    a = Ensemble(RegisterLayout((("a", 1),)), [np.array([1, 0]), np.array([0, 1])])
    b = Ensemble(RegisterLayout((("b", 1),)), [np.array([1, 1]), np.array([1, -1])])
    ab = a.tensor(b)
    assert ab.layout.names == ("a", "b")
    want = [np.kron(x, y) for x in a.dense() for y in b.dense()]
    for got, exp in zip(ab.dense(), want, strict=True):
        np.testing.assert_array_equal(got, exp)


def test_ensemble_probabilities_follow_name_order():
    layout = RegisterLayout((("a", 1), ("b", 1), ("c", 1)))
    ens = Ensemble.from_pure(PureState.basis(layout, {"a": 1, "b": 0, "c": 1}))
    np.testing.assert_array_equal(ens.probabilities(("a", "b")), [0, 0, 1, 0])
    np.testing.assert_array_equal(ens.probabilities(("b", "a")), [0, 1, 0, 0])
    rng = np.random.default_rng(5)
    wide = RegisterLayout((("x", 2), ("y", 1), ("z", 2)))
    vecs = rng.normal(size=(3, wide.dim)) + 1j * rng.normal(size=(3, wide.dim))
    vecs /= np.linalg.norm(vecs)
    mixed = Ensemble(wide, vecs)
    for names in (("z", "x"), ("y", "z", "x"), ("x", "z")):
        want = np.diag(mixed.reduced(names).matrix).real
        np.testing.assert_allclose(mixed.probabilities(names), want, atol=1e-12)


def test_determinism_bit_identical():
    inst = build_kerenidis(2)
    t1 = inst.run(0b10, 2)
    t2 = inst.run(0b10, 2)
    for t in range(1, t1.steps + 1):
        a, b = t1.ensemble(t), t2.ensemble(t)
        assert len(a.vectors) == len(b.vectors)
        for x, y in zip(a.dense(), b.dense()):
            assert np.array_equal(x, y)


def test_streaming_mode_keeps_probes_only():
    inst = build_kerenidis(2)
    tr = execute(inst.spec, inst.basis_input(0b01, 1), keep=(2,))
    assert tr.ensemble(2) is not None
    assert tr.ensemble(tr.steps) is not None
    with pytest.raises(Exception):
        tr.ensemble(1)


class TestFold:
    def test_trivial_setup_unchanged(self):
        spec = send_db_spec(2)
        assert fold_setup_into_messages(spec) is spec

    def test_n4_widths(self):
        inst = build_kerenidis(4)
        before = communication(inst.spec)
        folded = fold_setup_into_messages(inst.spec)
        after = communication(folded)
        assert after.m_a == before.m_a
        # server-side setup widths: levels of width 2 and 1
        assert after.m_b == before.m_b + 3
        assert folded.setup is None

    def test_final_state_equality_20_random(self, rng):
        inst = build_kerenidis(2)
        folded = fold_setup_into_messages(inst.spec)
        layout = RegisterLayout((("db", 2), ("idx", 1)))
        for _ in range(20):
            inp = random_pure(rng, layout)
            a = execute(inst.spec, inp).final
            b = execute(folded, inp).final
            va = a.dense()[0]
            vb = np.asarray(b.aligned_vectors(a.layout.names)[0])
            assert abs(abs(np.vdot(va, vb)) - 1.0) <= 1e-10


def test_communication_counts_declared_widths():
    inst = build_kerenidis(4)
    bill = communication(inst.spec)
    assert (bill.m_a, bill.m_b, bill.total, bill.rounds) == (5, 4, 9, 5)


def test_spec_json_round_trip():
    inst = build_kerenidis(2)
    text = spec_to_json(inst.spec)
    again = spec_from_json(text)
    inp = PureState.basis(RegisterLayout((("db", 2), ("idx", 1))), {"db": 0b01, "idx": 1})
    a = execute(inst.spec, inp).final
    b = execute(again, inp).final
    assert abs(abs(np.vdot(a.dense()[0], b.dense()[0])) - 1.0) <= 1e-12
    bill_a, bill_b = communication(inst.spec), communication(again)
    assert bill_a == bill_b


def test_spec_json_round_trip_with_measurement():
    from qpirlab.protocols import build_counterexample

    inst = build_counterexample(2)
    again = spec_from_json(spec_to_json(inst.spec))
    inp = PureState.basis(RegisterLayout((("db", 2), ("idx", 1))), {"db": 0b10})
    a = execute(inst.spec, inp).final
    b = execute(again, inp).final
    assert len(a.vectors) == len(b.vectors)
    for x, y in zip(a.dense(), b.dense()):
        np.testing.assert_allclose(x, y, atol=1e-12)


def test_mixed_input_via_ensemble():
    inst = build_kerenidis(2)
    layout = RegisterLayout((("idx", 1),))
    mix = Ensemble(layout, [np.array([2**-0.5, 0]), np.array([0, 2**-0.5])])
    inp = inst.input_with_client(0b01, mix)
    tr = execute(inst.spec, inp)
    assert len(tr.final.vectors) == 2
    assert np.vdot(tr.final.dense(), tr.final.dense()).real == pytest.approx(1.0)


def test_mixed_input_from_density_matches_branch_mixture():
    # eigendecomposition into pure branches is the only evolution engine
    from qpirlab.states import DensityOperator
    from qpirlab.distances import paired_distances

    inst = build_kerenidis(2)
    layout = RegisterLayout((("idx", 1),))
    rho = DensityOperator.from_ensemble(np.diag(np.sqrt([0.3, 0.7])))
    ens = Ensemble(layout, rho.branches())
    tr = execute(inst.spec, inst.input_with_client(0b01, ens))
    parts = []
    for w, i in ((0.3, 1), (0.7, 2)):
        run = inst.run(0b01, i)
        parts.extend(np.sqrt(w) * v for v in
                     run.final.aligned_vectors(tr.final.layout.names))
    assert paired_distances([(tr.final.dense(), np.array(parts))])[0] <= 1e-10


def test_missing_input_register():
    inst = build_kerenidis(2)
    with pytest.raises(ProtocolShapeError, match="missing register"):
        execute(inst.spec, PureState.basis(RegisterLayout((("db", 2),))))


def test_epr_state_shape():
    s = epr_pair_state("R", "Rp", 2)
    probs = s.probabilities(("R", "Rp"))
    for r in range(4):
        assert probs[r * 4 + r] == pytest.approx(0.25)


def _front(v, layout, names):
    # One branch as a (2**k, rest) matrix with the qubits of `names` in
    # front, in the given order, and the other qubits in layout order.
    total = layout.total_qubits
    front = layout.ordered_slots(names)
    rest = [a for a in range(total) if a not in front]
    return v.reshape([2] * total).transpose(front + rest).reshape(1 << len(front), -1)


@pytest.mark.parametrize("seed", range(4))
def test_ensemble_methods_match_a_per_row_loop(seed):
    rng = np.random.default_rng(700 + seed)
    regs = [("x", 2), ("y", 1), ("z", 2)]
    layout = RegisterLayout(tuple(regs[i] for i in rng.permutation(3)))
    vecs = rng.normal(size=(3, layout.dim)) + 1j * rng.normal(size=(3, layout.dim))
    # one branch without weight on z = 3, so tracing z drops a row
    vecs[2, _front(np.arange(layout.dim), layout, ["z"])[3]] = 0
    ens = Ensemble(layout, vecs / np.linalg.norm(vecs))
    rows = list(ens.dense())

    for names in (("z",), ("y", "x"), ("x", "z")):
        kept = [n for n in layout.names if n in names]
        want = [r for v in rows for r in _front(v, layout, kept) if np.vdot(r, r).real > 1e-24]
        got = ens.traced(names).dense()
        assert got.shape == (len(want), layout.dim >> sum(layout.width(n) for n in names))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(ens.traced(("z",)).vectors) == 11

    for names in (("z", "x", "y"), ("y", "z", "x"), layout.names):
        want = [_front(v, layout, names).reshape(-1) for v in rows]
        np.testing.assert_allclose(ens.aligned_vectors(names), want, rtol=0, atol=1e-12)

    other = Ensemble(RegisterLayout((("w", 1),)), rng.normal(size=(2, 2)) + 0j)
    want = [np.kron(a, b) for a in rows for b in other.dense()]
    np.testing.assert_allclose(ens.tensor(other).dense(), want, rtol=0, atol=1e-12)

    purity = sum(abs(np.vdot(a, b)) ** 2 for a in rows for b in rows)
    v = ens.dense()
    assert np.sum(np.abs(v.conj() @ v.T) ** 2) == pytest.approx(purity, abs=1e-12)

    for names in (("z", "x"), ("y",), ("x", "y", "z")):
        want_p = sum((np.abs(_front(v, layout, names)) ** 2).sum(axis=1) for v in rows)
        np.testing.assert_allclose(ens.probabilities(names), want_p, rtol=0, atol=1e-12)
        want_rho = sum(m @ m.conj().T for m in (_front(v, layout, names) for v in rows))
        got_rho = ens.reduced(names).matrix
        np.testing.assert_allclose(got_rho, want_rho, rtol=0, atol=1e-12)
        in_order = [n for n in layout.names if n in names]
        want_rho = sum(m @ m.conj().T for m in (_front(v, layout, in_order) for v in rows))
        np.testing.assert_allclose(ens.reduced(in_order).matrix, want_rho, rtol=0, atol=1e-12)


def test_reduced_factor_is_the_nonzero_columns_of_the_dense_one(monkeypatch, rng):
    # the factor reduced() hands DensityOperator, read off the entries, is
    # the nonzero columns, in order, of the one gram_reduce takes from the
    # scattered branch array: sparse multi-branch ensembles, every kept
    # order, and the reconstruction attack's state on refdb and the client
    handed = []

    class Recording(DensityOperator):
        def __init__(self, dimension, factor):
            handed.append(np.array(factor))
            super().__init__(dimension, factor)
    monkeypatch.setattr(runtime, "DensityOperator", Recording)
    monkeypatch.setattr(distances, "DensityOperator", Recording)
    layout = RegisterLayout((("x", 2), ("y", 1), ("z", 3)))
    cases = []
    for density in (0.03, 0.2, 1.0):
        v = rng.normal(size=(4, layout.dim)) + 1j * rng.normal(size=(4, layout.dim))
        v = np.where(rng.random(v.shape) < density, v, 0)
        v[:, 0] = 1.0
        v[1, 1:] = 0  # a branch with one entry
        ens = Ensemble(layout, v / np.linalg.norm(v))
        cases += [(ens, names) for names in (("x",), ("z", "x"), ("y", "z", "x"), layout.names)]
    inst = build_kerenidis(4)
    run = execute(inst.spec, epr_pair_state("refdb", inst.database_register, 4)
                  .tensor(inst.client_basis_state(1)), keep=())
    cases.append((run.final, ("refdb",) + run.owned(run.steps, "B")))
    for ens, names in cases:
        handed.clear()
        got = ens.reduced(names)
        want = distances.gram_reduce(ens.dense(), ens.layout, names)
        (entries, dense) = handed
        assert np.array_equal(entries, dense[:, np.flatnonzero(dense.any(axis=0))]), names
        np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-15)
    ens = cases[0][0]
    with pytest.raises(LayoutError):
        ens.reduced(("x", "w"))
    with pytest.raises(LayoutError):
        ens.reduced(("x", "x"))
    monkeypatch.setenv("QPIRLAB_REDUCED_CAP", "2")
    with pytest.raises(CapExceeded):
        ens.reduced(("z",))


def test_ensemble_rejects_malformed_branch_arrays():
    layout = RegisterLayout((("a", 1), ("b", 1)))
    with pytest.raises(StateError, match="expected"):
        Ensemble(layout, np.ones(4))
    with pytest.raises(StateError, match="expected"):
        Ensemble(layout, np.ones((2, 8)))
    assert Ensemble(layout, [np.ones(4) / 2]).vectors.shape == (1, 4)


def test_aligned_vectors_requires_a_permutation_of_the_layout():
    ens = Ensemble.from_pure(PureState.basis(RegisterLayout((("a", 1), ("b", 1)))))
    for names in (("a", "a"), ("a",), ("a", "b", "c")):
        with pytest.raises(LayoutError, match=r"\('a', 'b'\)"):
            ens.aligned_vectors(names)


def test_reduced_and_probabilities_reject_repeated_names():
    ens = Ensemble.from_pure(PureState.basis(RegisterLayout((("a", 1), ("b", 1)))))
    for call in (ens.reduced, ens.probabilities):
        with pytest.raises(LayoutError, match=r"\('a', 'a'\)"):
            call(["a", "a"])


def test_branch_arrays_stay_within_the_qubit_cap(monkeypatch):
    # At a 6-qubit cap a branch array holds at most 2**6 amplitudes: one
    # 6-qubit state, or eight branches of 3 qubits.
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "6")
    layout = RegisterLayout((("a", 3), ("b", 3)))
    uniform = Ensemble.from_pure(PureState(layout, np.full(64, 1 / 8)))
    basis = Ensemble.from_pure(PureState.basis(layout))
    assert len(basis.apply(MeasureOp("a")).vectors) == 1
    with pytest.raises(CapExceeded, match="measurement of 'a' needs 8 branches x 64"):
        uniform.apply(MeasureOp("a"))

    assert len(uniform.traced(["a"]).vectors) == 8  # 8 x 8 amplitudes fit
    two = Ensemble(layout, np.vstack([uniform.dense(), basis.dense()]) / np.sqrt(2))
    with pytest.raises(CapExceeded, match=r"tracing out \('a',\) needs 9 branches x 8"):
        two.traced(["a"])

    c = Ensemble.from_pure(PureState.basis(RegisterLayout((("c", 3),))))
    assert c.tensor(basis.traced(["b"])).vectors.shape == (1, 64)
    with pytest.raises(CapExceeded, match=r"tensor with \('c',\) needs 8 branches x 64"):
        uniform.traced(["b"]).tensor(c)
