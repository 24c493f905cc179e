import json

import numpy as np
import pytest

from conftest import random_kraus, random_pure, random_unitary
from qpirlab import channels
from qpirlab.channels import (
    ChannelError,
    CnotOp,
    CopyOp,
    DenseOp,
    HadamardOp,
    InnerProductCnotOp,
    MeasureOp,
    PrepareOp,
    RotateOp,
    SelectCnotOp,
    SelectFlipOp,
    SelectPhaseOp,
    SwapOp,
    Support,
    op_from_descriptor,
)
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import Ensemble, spec_from_json, spec_to_json
from qpirlab.states import DensityOperator, PureState, RegisterLayout, slots_to_front
from span_reference import to_pure
from test_kernel_reference import SEEDS, _layout, _ops

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_hadamard_on_zero():
    state = PureState.basis(RegisterLayout((("a", 1),)))
    out = to_pure(Ensemble.from_pure(state).apply(DenseOp((H,), ("a",))))
    np.testing.assert_allclose(out.amplitudes, [2**-0.5, 2**-0.5], atol=1e-12)


def test_identity_kraus_on_density(rng):
    layout = RegisterLayout((("a", 2),))
    rho = DensityOperator(4, np.eye(4) / np.sqrt(4))
    op = DenseOp((np.eye(4),), ("a",), kind="kraus-set")
    out = DensityOperator.from_ensemble(Ensemble(layout, rho.branches()).apply(op).dense())
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_inner_product_cnot_examples():
    layout = RegisterLayout((("r", 2), ("q", 1)))
    s = PureState.basis(layout, {"r": 0b11})
    op = InnerProductCnotOp(source="r", target="q", mask="01")
    out = to_pure(Ensemble.from_pure(s).apply(op))
    assert out.amplitudes[layout.basis_index({"r": 0b11, "q": 1})] == pytest.approx(1)

    s = PureState.basis(layout, {"r": 0b10})
    op = InnerProductCnotOp(source="r", target="q", mask="01")
    out = to_pure(Ensemble.from_pure(s).apply(op))
    assert out.amplitudes[layout.basis_index({"r": 0b10, "q": 0})] == pytest.approx(1)

    # (|00> + |11>)/sqrt2 (x) |0>, mask 11 -> unchanged (1*1 xor 1*1 = 0)
    v = np.zeros(8)
    v[layout.basis_index({"r": 0b00})] = 2**-0.5
    v[layout.basis_index({"r": 0b11})] = 2**-0.5
    s = PureState.from_vector(layout, v)
    op = InnerProductCnotOp(source="r", target="q", mask="11")
    out = to_pure(Ensemble.from_pure(s).apply(op))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_inner_product_cnot_zero_mask_fixes_state(rng):
    layout = RegisterLayout((("r", 2), ("q", 1)))
    s = random_pure(rng, layout)
    op = InnerProductCnotOp(source="r", target="q", mask="00")
    out = to_pure(Ensemble.from_pure(s).apply(op))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_inner_product_cnot_width_mismatch():
    layout = RegisterLayout((("r", 2), ("q", 1)))
    s = PureState.basis(layout)
    with pytest.raises(ChannelError):
        Ensemble.from_pure(s).apply(InnerProductCnotOp(source="r", target="q", mask="011"))


def test_inner_product_register_mask():
    # q ^= r . d, with d read coherently from a register
    layout = RegisterLayout((("r", 2), ("d", 2), ("q", 1)))
    for r in range(4):
        for d in range(4):
            s = PureState.basis(layout, {"r": r, "d": d})
            out = to_pure(Ensemble.from_pure(s).apply(
                InnerProductCnotOp(source="r", target="q", mask_register="d")))
            par = ((r >> 1) & (d >> 1)) ^ (r & d & 1)
            idx = layout.basis_index({"r": r, "d": d, "q": par})
            assert abs(out.amplitudes[idx]) == pytest.approx(1)


def test_hadamard_transform_examples(rng):
    layout = RegisterLayout((("r", 3),))
    s = PureState.basis(layout)
    out = to_pure(Ensemble.from_pure(s).apply(HadamardOp("r")))
    np.testing.assert_allclose(out.amplitudes, np.full(8, 8**-0.5), atol=1e-12)
    # involution
    s = random_pure(rng, layout)
    twice = to_pure(Ensemble.from_pure(s).apply(HadamardOp("r")).apply(HadamardOp("r")))
    np.testing.assert_allclose(twice.amplitudes, s.amplitudes, atol=1e-10)


@pytest.mark.parametrize("d", [0b00, 0b01, 0b10, 0b11])
def test_hadamard_shifted_entangled_pair(d):
    # sum_r (-1)^(r.d) |r>|r> --H(x)H--> sum_y |y>|y xor d>
    w = 2
    layout = RegisterLayout((("R", w), ("Rp", w)))
    v = np.zeros(16, dtype=complex)
    for r in range(4):
        par = bin(r & d).count("1") & 1
        v[layout.basis_index({"R": r, "Rp": r})] = (-1) ** par / 2
    s = PureState.from_vector(layout, v)
    out = to_pure(Ensemble.from_pure(s).apply(HadamardOp("R")).apply(HadamardOp("Rp")))
    want = np.zeros(16, dtype=complex)
    for y in range(4):
        want[layout.basis_index({"R": y, "Rp": y ^ d})] = 0.5
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_measure_branches_to_density():
    layout = RegisterLayout((("a", 1), ("b", 1)))
    bell = PureState.from_vector(layout, np.array([1, 0, 0, 1]) / np.sqrt(2))
    out = DensityOperator.from_ensemble(Ensemble.from_pure(bell).apply(MeasureOp("a")).dense())
    assert isinstance(out, DensityOperator)
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    np.testing.assert_allclose(out.matrix, want, atol=1e-12)


def test_prepare_appends_registers():
    layout = RegisterLayout((("a", 1),))
    s = PureState.basis(layout, {"a": 1})
    out = to_pure(Ensemble.from_pure(s).apply(PrepareOp.zeros((("anc", 2),))))
    assert out.layout.names == ("a", "anc")
    assert out.amplitudes[out.layout.basis_index({"a": 1, "anc": 0})] == pytest.approx(1)


def test_dense_isometry_validation():
    with pytest.raises(ChannelError):
        DenseOp((np.array([[1.0, 0.0], [0.0, 0.5]]),), ("a",))
    with pytest.raises(ChannelError):
        DenseOp((np.eye(2), np.eye(2)), ("a",))  # sum K'K = 2I


def test_dense_kraus_completeness_and_branching(rng):
    ks = random_kraus(rng, 2, 3)
    op = DenseOp(tuple(ks), ("a",), kind="kraus-set")
    s = random_pure(rng, RegisterLayout((("a", 1),)))
    out = DensityOperator.from_ensemble(Ensemble.from_pure(s).apply(op).dense())
    assert isinstance(out, DensityOperator)
    want = sum(k @ np.outer(s.amplitudes, s.amplitudes.conj()) @ k.conj().T for k in ks)
    np.testing.assert_allclose(out.matrix, want, atol=1e-12)


def test_isometry_norm_preservation_property(rng):
    layout = RegisterLayout((("a", 2), ("b", 1)))
    for _ in range(25):
        s = random_pure(rng, layout)
        u = random_unitary(rng, 4)
        out = Ensemble.from_pure(s).apply(DenseOp((u,), ("a",)))
        assert abs(np.linalg.norm(out.dense()) - 1) < 1e-10


def test_select_ops_and_swap_copy():
    layout = RegisterLayout((("sel", 2), ("src", 2), ("t", 1)))
    for v in range(4):
        s = PureState.basis(layout, {"sel": v, "src": 0b10})
        op = SelectCnotOp(sources=tuple((x, ("src", x % 2)) for x in range(4)),
                          target=("t", 0), selector="sel")
        out = to_pure(Ensemble.from_pure(s).apply(op))
        bit = (0b10 >> (1 - (v % 2))) & 1
        assert abs(out.amplitudes[layout.basis_index({"sel": v, "src": 0b10, "t": bit})]) == pytest.approx(1)

    layout = RegisterLayout((("a", 2), ("b", 2)))
    s = PureState.basis(layout, {"a": 0b01, "b": 0b10})
    out = to_pure(Ensemble.from_pure(s).apply(SwapOp("a", "b")))
    assert abs(out.amplitudes[layout.basis_index({"a": 0b10, "b": 0b01})]) == pytest.approx(1)
    out = to_pure(Ensemble.from_pure(s).apply(CopyOp("a", "b")))
    assert abs(out.amplitudes[layout.basis_index({"a": 0b01, "b": 0b11})]) == pytest.approx(1)


def test_select_phase_applies_sign():
    layout = RegisterLayout((("sel", 1), ("q0", 1), ("q1", 1)))
    op = SelectPhaseOp(targets=((0, ("q0", 0)), (1, ("q1", 0))), selector="sel")
    v = np.zeros(8, dtype=complex)
    v[layout.basis_index({"sel": 0, "q0": 1})] = 1 / np.sqrt(2)
    v[layout.basis_index({"sel": 1, "q0": 1})] = 1 / np.sqrt(2)
    out = to_pure(Ensemble.from_pure(PureState.from_vector(layout, v)).apply(op))
    assert out.amplitudes[layout.basis_index({"sel": 0, "q0": 1})] == pytest.approx(-1 / np.sqrt(2))
    assert out.amplitudes[layout.basis_index({"sel": 1, "q0": 1})] == pytest.approx(1 / np.sqrt(2))


def test_rotate_and_inverse(rng):
    layout = RegisterLayout((("c", 1), ("t", 1)))
    s = random_pure(rng, layout)
    op = RotateOp(("t", 0), 0.7, control=("c", 0))
    out = to_pure(Ensemble.from_pure(s).apply(op).apply(op.inverse()))
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def _builder_specs():
    """Both paths of the protocol with and without cleanup, the
    counterexample and the baselines."""
    db = {1: (1,), 2: (1, 0), 4: (1, 0, 1, 1), 8: (1, 0, 1, 1, 0, 0, 1, 0)}
    return [
        *(build_kerenidis(n, cleanup=c, database=d).spec
          for n in (1, 2, 4) for c in (False, True) for d in (None, db[n])),
        build_kerenidis(8, database=db[8]).spec,
        build_counterexample(1).spec,
        build_counterexample(2).spec,
        *(build_baseline(kind, n, database=d).spec
          for kind, n in (("send-db", 1), ("send-db", 2), ("send-index", 2))
          for d in (None, db[n])),
    ]


def _spec_ops(spec):
    """Every op of ``spec`` in schedule order, with the layout it meets."""
    setup = spec.setup.layout.registers if spec.setup is not None else ()
    layout = RegisterLayout(spec.server.input_registers + spec.client.input_registers + setup)
    for st in spec.schedule:
        for op in st.step.ops:
            yield op, layout
            layout = op.output_layout(layout)


def test_descriptor_round_trip():
    # Every op the kernel reference draws and every op of the builder specs
    # survives its text form through JSON: an equal descriptor and
    # bit-identical kernel output.
    cases = []
    for seed in SEEDS:
        rng = np.random.default_rng(9000 + seed)
        layout = _layout(rng)
        cases += [(op, layout) for op in _ops(rng, layout)]
    for spec in _builder_specs():
        assert spec_to_json(spec_from_json(spec_to_json(spec))) == spec_to_json(spec)
        cases += list(_spec_ops(spec))
    rng = np.random.default_rng(9200)
    for op, layout in cases:
        text = json.dumps(op.descriptor())
        clone = op_from_descriptor(json.loads(text))
        assert type(clone) is type(op) and json.dumps(clone.descriptor()) == text
        if not isinstance(op, DenseOp):  # DenseOp compares by identity
            assert clone == op
        v = Support.of(rng.normal(size=(1, layout.dim)) + 1j * rng.normal(size=(1, layout.dim)))
        assert np.array_equal(op.apply_vectors(v, layout).dense(),
                              clone.apply_vectors(v, layout).dense()), op


@pytest.mark.parametrize("d,message", [
    pytest.param({"op": "teleport"}, "unknown op 'teleport'", id="unknown-op"),
    pytest.param({"op": "copy", "source": "a", "target": "b", "width": 1},
                 "'copy' has no field 'width'", id="unknown-key"),
    # a text that still carries a deleted option is rejected by name
    pytest.param({"op": "inner-product-cnot", "source": "a", "target": "b", "mask": "1",
                  "mask_register": None, "mask_offset": 0, "target_qubit": 0},
                 "'inner-product-cnot' has no field 'target_qubit'", id="deleted-key"),
    pytest.param({"op": "copy", "source": "a"}, "'copy' lacks field 'target'", id="missing-key"),
    # ill-typed or ill-shaped values, which used to fail only when applied
    pytest.param({"op": "inner-product-cnot", "source": "a", "target": "b",
                  "mask_register": "m", "mask_offset": "1"},
                 "'inner-product-cnot' field 'mask_offset' is not int", id="mask-offset-str"),
    pytest.param({"op": "inner-product-cnot", "source": "a", "target": "b",
                  "mask_register": "m", "mask_offset": True},
                 "'inner-product-cnot' field 'mask_offset' is not int", id="mask-offset-bool"),
    pytest.param({"op": "rotate", "target": ["t", 0], "theta": 0.3, "control": ["c"]},
                 r"'rotate' field 'control' is not tuple\[str, int\] \| None", id="control-short"),
    pytest.param({"op": "rotate", "target": ["t", 0], "theta": 0.3, "control": [0, "c"]},
                 "'rotate' field 'control'", id="control-swapped"),
    pytest.param({"op": "rotate", "target": ["t", 0], "theta": 0.3, "control": "c"},
                 "'rotate' field 'control'", id="control-str"),
    pytest.param({"op": "cnot", "control": ["a", 0], "target": "b"},
                 "'cnot' field 'target'", id="cnot-target-str"),
    pytest.param({"op": "select-flip", "selector": "s", "bit_table": [0, 1.5],
                  "target": ["t", 0]}, "'select-flip' field 'bit_table'", id="bit-table-float"),
    pytest.param({"op": "prepare", "registers": [["p", 1]], "amplitudes": [[1, 0, 0], [0, 0]]},
                 "'prepare' field 'amplitudes'", id="amplitude-not-re-im"),
    pytest.param({"op": "prepare", "registers": [["p", 1]], "amplitudes": [["1", 0], [0, 0]]},
                 "'prepare' field 'amplitudes'", id="amplitude-str"),
    pytest.param({"op": "dense", "matrices": [[[[1, 0]], [[0, 0], [1, 0]]]], "registers": ["a"]},
                 "'dense' field 'matrices'", id="ragged-matrix"),
    pytest.param({"op": "dense", "matrices": [[[1, 0], [0, 0]]], "registers": ["a"]},
                 "'dense' field 'matrices'", id="matrix-as-vector"),
])
def test_op_from_descriptor_names_what_is_wrong(d, message):
    with pytest.raises(ChannelError, match=message):
        op_from_descriptor(d)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: SelectPhaseOp(((0, ("a", 0)), (1, ("a", 1)))), id="select-phase"),
    pytest.param(lambda: SelectCnotOp(((0, ("a", 0)), (1, ("a", 1))), ("b", 0)),
                 id="select-cnot"),
    pytest.param(lambda: SelectCnotOp((), ("b", 0)), id="select-cnot-empty"),
])
def test_selectorless_table_holds_one_entry(make):
    with pytest.raises(ChannelError, match="without a selector needs exactly one table entry"):
        make()


def test_cap_exceeded_on_prepare(monkeypatch):
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "3")
    layout = RegisterLayout((("a", 2),))
    s = PureState.basis(layout)
    from qpirlab.config import CapExceeded

    with pytest.raises(CapExceeded):
        Ensemble.from_pure(s).apply(PrepareOp.zeros((("b", 2),)))


def test_kraus_branches_are_capped(monkeypatch, rng):
    # m Kraus matrices make m branches of every input branch: at the cap, one
    # 6-qubit branch may not become two, while an isometry still applies.
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "6")
    from qpirlab.config import CapExceeded

    s = Ensemble.from_pure(random_pure(rng, RegisterLayout((("a", 1), ("b", 5)))))
    with pytest.raises(CapExceeded, match="2 branches x 64 amplitudes"):
        s.apply(DenseOp(tuple(random_kraus(rng, 2, 2)), ("a",), kind="kraus-set"))
    assert len(s.apply(DenseOp((H,), ("a",))).vectors) == 1


def test_malformed_op_rejected():
    bad = np.array([[1.0, 0.4], [0.0, 0.6]])
    with pytest.raises(ChannelError):
        DenseOp((bad,), ("a",))


def _hadamard_by_moved_pairs(vectors, layout):
    # HadamardOp's products on the dense array through the move path that
    # DenseOp and the dense reference take, each pair's slots named in
    # reverse order; H (x) H is the same after the swap.
    slots = layout.slots(["r"])
    for k in range(0, len(slots), 2):
        pair = slots[k:k + 2][::-1]
        vectors = channels._apply_local(vectors, layout.total_qubits, pair,
                                        channels._HADAMARD_SIGNS[len(pair)][None], pair)
    return vectors * (1.0 / np.sqrt(2.0)) ** (len(slots) % 2)


@pytest.mark.parametrize("w", [1, 2, 3, 4])
@pytest.mark.parametrize("place", ["high", "middle", "low", "above-low", "moved", "support"])
def test_hadamard_twice_keeps_exact_zeros(rng, w, place, monkeypatch):
    # Each setting of the other qubits of a 16-qubit state holds one label of
    # the register, or nothing.  H then H sums equal terms that cancel, so a
    # rounded product or partial sum would leave dust where a zero belongs.
    # "high", "middle", "low" and "above-low" (three qubits below the
    # register) run two branches on the support form; "support" runs one;
    # "moved" runs the dense move path with every pair reversed.
    before = {"high": 0, "middle": (16 - w) // 2, "low": 16 - w, "above-low": 13 - w,
              "moved": (16 - w) // 2, "support": (16 - w) // 2}[place]
    regs = tuple((n, k) for n, k in (("a", before), ("r", w), ("b", 16 - w - before)) if k)
    layout = RegisterLayout(regs)
    rest = layout.dim >> w
    rows = []
    for _ in range(1 if place in ("moved", "support") else 2):
        amps = rng.normal(size=rest) + 1j * rng.normal(size=rest)
        amps[rng.random(rest) < 0.5] = 0.0
        t = np.zeros((1 << before, 1 << w, rest >> before), dtype=np.complex128)
        t[np.arange(1 << before)[:, None], rng.integers(0, 1 << w, size=t[:, 0].shape),
          np.arange(rest >> before)] = amps.reshape(1 << before, -1)
        rows.append(t.reshape(-1))
    vectors = np.array(rows)
    moves = []
    monkeypatch.setattr(channels, "slots_to_front",
                        lambda *a: moves.append(a[2]) or slots_to_front(*a))
    if place == "moved":
        twice = _hadamard_by_moved_pairs(_hadamard_by_moved_pairs(vectors, layout), layout)
    else:
        apply = HadamardOp("r").apply_vectors
        twice = apply(apply(Support.of(vectors), layout), layout).dense()
    assert bool(moves) == (place == "moved")
    np.testing.assert_array_equal(twice == 0, vectors == 0)
    np.testing.assert_allclose(twice, vectors, rtol=0, atol=1e-14)


@pytest.mark.parametrize("make,name", [
    pytest.param(lambda: CnotOp(("a", 0), ("a", 0)), "CnotOp", id="cnot"),
    pytest.param(lambda: CopyOp("a", "a"), "CopyOp", id="copy"),
    pytest.param(lambda: op_from_descriptor({"op": "copy", "source": "a", "target": "a"}),
                 "CopyOp", id="copy-descriptor"),
    pytest.param(lambda: InnerProductCnotOp(source="a", target="a", mask="1"),
                 "InnerProductCnotOp", id="ip-cnot-source"),
    pytest.param(lambda: InnerProductCnotOp(source="b", target="a", mask_register="a"),
                 "InnerProductCnotOp", id="ip-cnot-mask-register"),
    pytest.param(lambda: SelectFlipOp("a", (0, 1), ("a", 0)), "SelectFlipOp", id="select-flip"),
    pytest.param(lambda: SelectCnotOp(((1, ("b", 0)),), ("a", 0), selector="a"),
                 "SelectCnotOp", id="select-cnot-selector"),
    pytest.param(lambda: SelectCnotOp(((1, ("a", 0)),), ("a", 0), selector="b"),
                 "SelectCnotOp", id="select-cnot-source"),
    pytest.param(lambda: RotateOp(("a", 0), 0.3, ("a", 0)), "RotateOp", id="rotate"),
    pytest.param(lambda: DenseOp((np.eye(4),), ("a", "a")), "DenseOp", id="dense"),
])
def test_ops_reject_controlling_on_what_they_flip(make, name):
    # On |a=1> (x) |+> each of these would leave weight 0 or 0.5, or fail
    # inside numpy, rather than name the op.
    with pytest.raises(ChannelError, match=rf"{name}.*'a'"):
        make()


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_rotate_rejects_an_angle_that_is_not_finite(theta):
    # Built with it, the op ran until a math domain error or an empty
    # reshape inside the run, rather than name the op.
    with pytest.raises(ChannelError, match="RotateOp angle"):
        RotateOp(("t", 0), theta, control=("c", 0))
