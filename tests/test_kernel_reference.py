"""Slow reference for every op kind, built label by label from its definition.

The reference never calls a kernel: it walks every basis assignment of a
layout with ``RegisterLayout.basis_index`` and plain Python bit arithmetic,
writes the op's matrix entry by entry, and the kernels are compared against
it on seeded random layouts with shuffled register order.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

from conftest import random_kraus, random_unitary
from qpirlab import channels
from qpirlab.channels import (
    ChannelError,
    ChannelOp,
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
)
from qpirlab.runtime import Ensemble
from qpirlab.states import BRANCH_PRUNE, RegisterLayout
from span_reference import dense_apply


def _bit(label: int, width: int, j: int) -> int:
    # Qubit j of a register label is its j-th most significant bit.
    return (label >> (width - 1 - j)) & 1


def _flip(label: int, width: int, j: int) -> int:
    return label ^ (1 << (width - 1 - j))


def _assignments(layout: RegisterLayout):
    names = layout.names
    for labels in itertools.product(*(range(1 << w) for _, w in layout.registers)):
        yield dict(zip(names, labels))


def _concat(labels, widths) -> int:
    out = 0
    for label, w in zip(labels, widths):
        out = (out << w) | label
    return out


def _split(value: int, widths) -> list[int]:
    out = []
    for w in reversed(widths):
        out.append(value & ((1 << w) - 1))
        value >>= w
    return out[::-1]


def _matrix(layout, out_layout, image) -> np.ndarray:
    """Matrix whose column for each input assignment lists ``image(a)``'s
    (output assignment, amplitude) pairs."""
    m = np.zeros((out_layout.dim, layout.dim), dtype=np.complex128)
    for a in _assignments(layout):
        col = layout.basis_index(a)
        for b, amp in image(a):
            m[out_layout.basis_index(b), col] += amp
    return m


def _permutation(layout, relabel):
    return [_matrix(layout, layout, lambda a: [(relabel(dict(a)), 1.0)])]


def _hadamard(op, layout):
    r, w = op.register, layout.width(op.register)

    def image(a):
        for y in range(1 << w):
            dots = sum(_bit(a[r], w, j) & _bit(y, w, j) for j in range(w))
            yield {**a, r: y}, (-1) ** dots / math.sqrt(2) ** w

    return [_matrix(layout, layout, image)]


def _ip_cnot(op, layout):
    ws = layout.width(op.source)
    wt = layout.width(op.target)

    def relabel(a):
        par = 0
        for j in range(ws):
            if op.mask is not None:
                m = int(op.mask[j])
            else:
                m = _bit(a[op.mask_register], layout.width(op.mask_register), op.mask_offset + j)
            par ^= _bit(a[op.source], ws, j) & m
        if par:
            a[op.target] = _flip(a[op.target], wt, 0)
        return a

    return _permutation(layout, relabel)


def _chosen_bit(a, layout, table, selector) -> int:
    if selector is None:
        ((_, (reg, q)),) = table
    elif a[selector] in dict(table):
        reg, q = dict(table)[a[selector]]
    else:
        return 0
    return _bit(a[reg], layout.width(reg), q)


def _select_phase(op, layout):
    def image(a):
        bit = _chosen_bit(a, layout, op.targets, op.selector)
        yield a, -1.0 if bit else 1.0

    return [_matrix(layout, layout, image)]


def _select_cnot(op, layout):
    reg, q = op.target

    def relabel(a):
        if _chosen_bit(a, layout, op.sources, op.selector):
            a[reg] = _flip(a[reg], layout.width(reg), q)
        return a

    return _permutation(layout, relabel)


def _select_flip(op, layout):
    reg, q = op.target

    def relabel(a):
        if op.bit_table[a[op.selector]]:
            a[reg] = _flip(a[reg], layout.width(reg), q)
        return a

    return _permutation(layout, relabel)


def _cnot(op, layout):
    (creg, cq), (treg, tq) = op.control, op.target

    def relabel(a):
        if _bit(a[creg], layout.width(creg), cq):
            a[treg] = _flip(a[treg], layout.width(treg), tq)
        return a

    return _permutation(layout, relabel)


def _copy(op, layout):
    def relabel(a):
        a[op.target] ^= a[op.source]
        return a

    return _permutation(layout, relabel)


def _swap(op, layout):
    def relabel(a):
        a[op.first], a[op.second] = a[op.second], a[op.first]
        return a

    return _permutation(layout, relabel)


def _rotate(op, layout):
    treg, tq = op.target
    wt = layout.width(treg)
    c, s = math.cos(op.theta / 2), math.sin(op.theta / 2)
    ry = ((c, -s), (s, c))

    def image(a):
        if op.control is not None and not _bit(a[op.control[0]], layout.width(op.control[0]), op.control[1]):
            yield a, 1.0
            return
        b_in = _bit(a[treg], wt, tq)
        for b_out in (0, 1):
            label = a[treg] if b_out == b_in else _flip(a[treg], wt, tq)
            yield {**a, treg: label}, ry[b_out][b_in]

    return [_matrix(layout, layout, image)]


def _prepare(op, layout):
    out_layout = layout.extended(op.registers)
    widths = [w for _, w in op.registers]

    def image(a):
        for v, amp in enumerate(op.amplitudes):
            yield {**a, **dict(zip((n for n, _ in op.registers), _split(v, widths)))}, amp

    return [_matrix(layout, out_layout, image)]


def _measure(op, layout):
    r = op.register
    return [_matrix(layout, layout, lambda a, x=x: [(a, 1.0)] if a[r] == x else [])
            for x in range(1 << layout.width(r))]


def _dense(op, layout):
    out_layout = layout.extended(op.created)
    w_in = [layout.width(n) for n in op.registers]
    out_names = list(op.registers) + [n for n, _ in op.created]
    w_out = w_in + [w for _, w in op.created]

    def image_of(m):
        def image(a):
            col = _concat([a[n] for n in op.registers], w_in)
            for row in range(m.shape[0]):
                yield {**a, **dict(zip(out_names, _split(row, w_out)))}, m[row, col]
        return image

    return [_matrix(layout, out_layout, image_of(m)) for m in op.matrices]


REFERENCE = {
    HadamardOp: _hadamard,
    InnerProductCnotOp: _ip_cnot,
    SelectPhaseOp: _select_phase,
    SelectCnotOp: _select_cnot,
    SelectFlipOp: _select_flip,
    CnotOp: _cnot,
    CopyOp: _copy,
    SwapOp: _swap,
    RotateOp: _rotate,
    PrepareOp: _prepare,
    MeasureOp: _measure,
    DenseOp: _dense,
}


# ---------------------------------------------------------------------------
# seeded random layouts and ops
# ---------------------------------------------------------------------------


def _layout(rng) -> RegisterLayout:
    """Registers a and b share a width; c is a selector; d is wide enough for
    a mask slice when the budget allows.  At most 8 qubits, shuffled."""
    wa = int(rng.integers(1, 3))
    wc = int(rng.integers(1, 3))
    wd = int(rng.integers(1, 8 - 2 * wa - wc + 1))
    regs = [("a", wa), ("b", wa), ("c", wc), ("d", wd)]
    order = rng.permutation(len(regs))
    return RegisterLayout(tuple(regs[i] for i in order))


def _qubit(rng, layout, names):
    reg = names[int(rng.integers(len(names)))]
    return reg, int(rng.integers(layout.width(reg)))


def _table(rng, layout, selector, names):
    """A selector table with some labels missing, or the one entry that a
    selector-less op applies everywhere."""
    if selector is None:
        return ((1, _qubit(rng, layout, names)),)
    labels = [v for v in range(1 << layout.width(selector)) if rng.random() < 0.6]
    return tuple((v, _qubit(rng, layout, names)) for v in labels)


def _ops(rng, layout):
    wa, wd = layout.width("a"), layout.width("d")
    mask = "".join(rng.choice(["0", "1"], size=wa))
    theta = float(rng.uniform(-math.pi, math.pi))
    k = layout.width("c")
    kraus = random_kraus(rng, 1 << k, 2)
    return [
        HadamardOp(["a", "c", "d"][int(rng.integers(3))]),
        InnerProductCnotOp(source="a", target="d", mask=mask),
        InnerProductCnotOp(source="a", target="c", mask="0" * wa),
        InnerProductCnotOp(source="a", target="c",
                           mask_register="d" if wd >= wa else "b",
                           mask_offset=max(wd - wa, 0)),
        SelectPhaseOp(targets=_table(rng, layout, None, ["a", "b", "d"])),
        SelectPhaseOp(targets=_table(rng, layout, "c", ["a", "c", "d"]), selector="c"),
        SelectCnotOp(sources=_table(rng, layout, None, ["a", "b"]),
                     target=_qubit(rng, layout, ["d"])),
        SelectCnotOp(sources=_table(rng, layout, "c", ["a", "b"]),
                     target=_qubit(rng, layout, ["d"]), selector="c"),
        SelectFlipOp(selector="c", bit_table=tuple(int(b) for b in rng.integers(0, 2, 1 << k)),
                     target=_qubit(rng, layout, ["a", "d"])),
        CnotOp(_qubit(rng, layout, ["a", "c"]), _qubit(rng, layout, ["b", "d"])),
        CopyOp("a", "b"),
        SwapOp("a", "b"),
        SwapOp("b", "a"),
        RotateOp(_qubit(rng, layout, ["a", "d"]), theta),
        RotateOp(_qubit(rng, layout, ["d"]), theta, control=_qubit(rng, layout, ["a", "c"])),
        PrepareOp((("p", 1), ("q", 1)), tuple(random_unitary(rng, 4)[:, 0])),
        MeasureOp(["a", "c", "d"][int(rng.integers(3))]),
        DenseOp((random_unitary(rng, 1 << (wa + k)),), ("c", "a")),
        DenseOp(tuple(kraus), ("c",), kind="kraus-set"),
        DenseOp((np.kron(random_unitary(rng, 1 << k), np.ones((2, 1)) / math.sqrt(2)),),
                ("c",), created=(("e", 1),)),
        DenseOp(tuple(np.kron(km, np.array([[1.0], [0.0]])) for km in kraus),
                ("c",), created=(("e", 1),), kind="measurement"),
    ]


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_kernels_match_reference(seed):
    rng = np.random.default_rng(9000 + seed)
    layout = _layout(rng)
    ops = _ops(rng, layout)
    assert {type(op) for op in ops} == set(REFERENCE)
    vectors = [rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim) for _ in range(2)]
    for op in ops:
        mats = REFERENCE[type(op)](op, layout)
        got = op.apply_vectors(Support.of(np.array(vectors)), layout).dense()
        want = [m @ v for v in vectors for m in mats]
        assert len(got) == len(want), op
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-12, err_msg=repr(op))
        # one branch on its own
        one = op.apply_vectors(Support.of(np.array(vectors[:1])), layout).dense()
        assert len(one) == len(mats), op
        np.testing.assert_allclose(one, want[:len(mats)], atol=1e-12, err_msg=repr(op))


def _op_classes():
    return {cls for cls in map(channels.__dict__.get, channels.__all__)
            if isinstance(cls, type) and issubclass(cls, ChannelOp) and cls is not ChannelOp}


def test_every_op_kind_has_a_reference():
    assert _op_classes() == set(REFERENCE)


def test_op_classes_bind_apply_vectors_in_their_own_body():
    # The benchmark's per-kind spans wrap ``cls.__dict__["apply_vectors"]``;
    # a method inherited from a shared base would not be found there.
    for cls in _op_classes():
        fn = cls.__dict__.get("apply_vectors")
        assert fn is not None, cls.__name__
        assert list(inspect.signature(fn).parameters) == ["self", "vectors", "layout"], cls.__name__


def test_op_classes_declare_their_inverse_or_refuse():
    # every op class binds inverse() in its own body but the three that
    # inherit ChannelOp's refusal
    refusing = {cls for cls in _op_classes() if "inverse" not in cls.__dict__}
    assert refusing == {PrepareOp, MeasureOp, DenseOp}


@pytest.mark.parametrize("seed", SEEDS)
def test_every_op_is_undone_by_its_inverse_or_refuses(seed):
    """Each op, then its ``inverse()``, on two dense branches gives the
    input again, by the kernels and by ``span_reference.dense_apply``:
    exactly for the XOR and sign ops, to 1e-12 for the Hadamard and the
    rotations.  A preparation, a measurement or a dense op refuses, naming
    the op."""
    rng = np.random.default_rng(9900 + seed)
    layout = _layout(rng)
    vectors = rng.normal(size=(2, layout.dim)) + 1j * rng.normal(size=(2, layout.dim))
    for op in _ops(rng, layout):
        if isinstance(op, (PrepareOp, MeasureOp, DenseOp)):
            with pytest.raises(ChannelError, match=type(op).__name__):
                op.inverse()
            continue
        inv = op.inverse()
        got = inv.apply_vectors(op.apply_vectors(Support.of(vectors), layout), layout).dense()
        dense = dense_apply(inv, dense_apply(op, vectors, layout), layout)
        if isinstance(op, (HadamardOp, RotateOp)):
            np.testing.assert_allclose(got, vectors, rtol=0, atol=1e-12, err_msg=repr(op))
            np.testing.assert_allclose(dense, vectors, rtol=0, atol=1e-12, err_msg=repr(op))
        else:
            assert np.array_equal(got, vectors) and np.array_equal(dense, vectors), op


@pytest.mark.parametrize("seed", SEEDS)
def test_ensemble_apply_hands_the_whole_batch_to_one_kernel_call(seed, monkeypatch):
    rng = np.random.default_rng(9100 + seed)
    layout = _layout(rng)
    vectors = rng.normal(size=(3, layout.dim)) + 1j * rng.normal(size=(3, layout.dim))
    ens = Ensemble(layout, vectors / np.linalg.norm(vectors))
    for op in _ops(rng, layout):
        cls = type(op)
        calls = []
        kernel = cls.__dict__["apply_vectors"]

        def counted(self, vectors, layout, kernel=kernel):
            calls.append(vectors.shape)
            return kernel(self, vectors, layout)

        monkeypatch.setattr(cls, "apply_vectors", counted)
        out = ens.apply(op)
        monkeypatch.undo()
        assert calls == [(3, layout.dim)], op
        assert isinstance(out.vectors, Support), op
        v = out.dense()
        assert v.ndim == 2 and v.shape[1] == op.output_layout(layout).dim, op
        assert v.dtype == np.complex128 and v.flags.c_contiguous, op
        if op.kind == "isometry":
            assert len(v) == 3, op


# ---------------------------------------------------------------------------
# the local-matrix kernels at each placement of their qubits
# ---------------------------------------------------------------------------


def _regs(*regs) -> RegisterLayout:
    return RegisterLayout(tuple((n, w) for n, w in regs if w))


def _check_against_reference(op, layout, rows, rng):
    vectors = rng.normal(size=(rows, layout.dim)) + 1j * rng.normal(size=(rows, layout.dim))
    mats = REFERENCE[type(op)](op, layout)
    got = op.apply_vectors(Support.of(vectors), layout).dense()
    want = np.array([m @ v for v in vectors for m in mats])
    assert got.shape == want.shape, op
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=repr(op))


POSTS = [1, 2, 8, 16, 32, 64]


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("post", POSTS)
@pytest.mark.parametrize("w", [1, 2])
def test_contiguous_block_matches_reference(w, post, rows):
    rng = np.random.default_rng(9300 + 10 * w + post + rows)
    layout = _regs(("hi", 1), ("r", w), ("lo", post.bit_length() - 1))
    for op in (HadamardOp("r"), DenseOp((random_unitary(rng, 1 << w),), ("r",))):
        _check_against_reference(op, layout, rows, rng)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("regs,control,target", [
    pytest.param((("hi", 1), ("c", 1), ("t", 1), ("lo", 3)), ("c", 0), ("t", 0), id="right-before"),
    pytest.param((("hi", 1), ("q", 2), ("lo", 5)), ("q", 0), ("q", 1), id="right-before-one-register"),
    pytest.param((("hi", 1), ("t", 1), ("c", 1), ("lo", 3)), ("c", 0), ("t", 0), id="right-after"),
    pytest.param((("c", 1), ("m", 2), ("t", 1), ("lo", 2)), ("c", 0), ("t", 0), id="apart"),
])
def test_controlled_rotate_matches_reference(regs, control, target, rows):
    rng = np.random.default_rng(9400 + rows)
    layout = RegisterLayout(regs)
    _check_against_reference(RotateOp(target, 0.7, control), layout, rows, rng)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("registers", [("a",), ("a", "b"), ("b", "a")])
@pytest.mark.parametrize("count", [1, 3], ids=["one-matrix", "kraus-set"])
def test_dense_op_matches_reference(registers, count, rows):
    rng = np.random.default_rng(9500 + 10 * count + rows)
    layout = RegisterLayout((("hi", 1), ("a", 1), ("b", 2), ("lo", 2)))
    d = 1 << sum(layout.width(r) for r in registers)
    mats = [random_unitary(rng, d)] if count == 1 else random_kraus(rng, d, count)
    _check_against_reference(DenseOp(tuple(mats), registers), layout, rows, rng)


def _labels(layout, name) -> np.ndarray:
    """The label of ``name`` at each basis index of ``layout``."""
    return np.array([a[name] for a in _assignments(layout)])


@pytest.mark.parametrize("seed", SEEDS)
def test_ops_commute_with_the_labels_they_do_not_relabel(seed):
    """Every register an op does not declare in ``relabels`` keeps its label:
    each of the op's operators commutes with that register's label
    projectors, so its entries between two different labels are exact
    zeros (on the output side the label sits beside the created registers).
    A declared register is one the op touches; it may keep its label too,
    as under an all-zero mask."""
    rng = np.random.default_rng(9200 + seed)
    layout = _layout(rng)
    for op in _ops(rng, layout):
        assert set(op.relabels) <= set(op.touches), op
        out_layout = op.output_layout(layout)
        for name in layout.names:
            if name in op.relabels:
                continue
            moved = _labels(out_layout, name)[:, None] != _labels(layout, name)[None, :]
            for m in REFERENCE[type(op)](op, layout):
                assert not np.any(m[moved]), (op, name)


# ---------------------------------------------------------------------------
# the support form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_support_kernels_match_reference(seed):
    """Each op's kernel, on three branches fully dense and with about three
    amplitudes in four exact zeros: the entries are distinct and nonzero,
    they scatter to the reference's rows (lighter outputs of a measurement
    or Kraus set dropped) and to ``span_reference.dense_apply``'s bit for
    bit, and iteration gives one value array per branch."""
    rng = np.random.default_rng(9600 + seed)
    layout = _layout(rng)
    for op in _ops(rng, layout):
        mats = REFERENCE[type(op)](op, layout)
        out_dim = op.output_layout(layout).dim
        full = rng.normal(size=(3, layout.dim)) + 1j * rng.normal(size=(3, layout.dim))
        for vectors in (full, full * (rng.random(full.shape) < 0.25)):
            got = op.apply_vectors(Support.of(vectors), layout)
            assert isinstance(got, Support), op
            pairs = got.branch * out_dim + got.index
            assert len(np.unique(pairs)) == len(pairs) and np.all(got.value != 0), op
            want = [m @ v for v in vectors for m in mats]
            if len(mats) > 1:
                want = [w for w in want if np.vdot(w, w).real > BRANCH_PRUNE]
            assert got.shape == (len(want), out_dim), op
            np.testing.assert_allclose(got.dense(), want, rtol=0, atol=1e-12, err_msg=repr(op))
            assert np.array_equal(got.dense(), dense_apply(op, vectors, layout)), op
            assert [v.size for v in got] == [np.count_nonzero(r) for r in got.dense()], op


@pytest.mark.parametrize("seed", SEEDS)
def test_support_ops_keep_the_labels_they_do_not_relabel(seed):
    """``test_ops_commute_with_the_labels_they_do_not_relabel`` on the
    support form: with every basis state as a branch of its own, each
    output entry keeps the label of every register the op does not
    relabel."""
    rng = np.random.default_rng(9200 + seed)
    layout = _layout(rng)
    basis = Support.of(np.eye(layout.dim, dtype=np.complex128))
    for op in _ops(rng, layout):
        out_layout = op.output_layout(layout)
        got = op.apply_vectors(basis, layout)
        per = len(got) // len(basis)  # outputs per branch: one, or one per Kraus operator
        assert len(got) == per * len(basis), op
        for name in layout.names:
            if name not in op.relabels:
                assert np.array_equal(_labels(out_layout, name)[got.index],
                                      _labels(layout, name)[got.branch // per]), (op, name)


@pytest.mark.parametrize("seed", SEEDS)
def test_ops_leave_their_input_support_unchanged(seed):
    """A kept step or a recovery state shares its support's arrays with the
    ops applied after it (a flip returns its input's branches and values),
    so no op may write into its input: every op kind, a Hadamard on every
    register and so at least one odd width among the seeds, on three
    branches about half of whose amplitudes are exact zeros."""
    rng = np.random.default_rng(9800 + seed)
    layout = _layout(rng)
    vectors = rng.normal(size=(3, layout.dim)) + 1j * rng.normal(size=(3, layout.dim))
    sup = Support.of(vectors * (rng.random(vectors.shape) < 0.5))
    before = [a.copy() for a in (sup.branch, sup.index, sup.value)]
    ops = _ops(rng, layout) + [HadamardOp(name) for name in layout.names]
    assert {type(op) for op in ops} == set(REFERENCE)
    for op in ops:
        op.apply_vectors(sup, layout)
        for got, want in zip((sup.branch, sup.index, sup.value), before):
            assert np.array_equal(got, want), op


def test_support_measurement_drops_the_outcomes_the_dense_kernel_prunes():
    # the dense kernel is span_reference.dense_apply's.  Outcome 1 of
    # branch 0 weighs about 1e-26, at or below BRANCH_PRUNE; outcome 2 has
    # no amplitude in either branch
    layout = RegisterLayout((("a", 2), ("m", 2)))
    vectors = np.random.default_rng(9700).normal(size=(2, 4, 4)).astype(np.complex128)
    vectors[:, :, 2] = 0.0
    vectors[0, :, 1] *= 1e-13
    vectors = vectors.reshape(2, layout.dim)
    got = MeasureOp("m").apply_vectors(Support.of(vectors), layout)
    want = dense_apply(MeasureOp("m"), vectors, layout)
    assert len(got) == len(want) == 5
    assert np.array_equal(got.dense(), want)
