import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qpirlab.config import CapExceeded
from qpirlab.states import (
    DensityOperator,
    LayoutError,
    PureState,
    RegisterLayout,
    StateError,
    _support_blocks,
    hermitize,
)
from span_reference import gather_slots


def test_layout_rejects_duplicates_and_zero_width():
    with pytest.raises(LayoutError):
        RegisterLayout((("a", 1), ("a", 2)))
    with pytest.raises(LayoutError):
        RegisterLayout((("a", 0),))


def test_layout_cap(monkeypatch):
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "4")
    with pytest.raises(CapExceeded):
        RegisterLayout((("a", 5),))
    RegisterLayout((("a", 4),))


def test_big_endian_indexing():
    layout = RegisterLayout((("a", 2), ("b", 1)))
    # index = concat(a label bits, b label bit), a's qubit 0 most significant
    assert layout.basis_index({"a": 0b10, "b": 1}) == 0b101
    assert layout.slots(["b"]) == [2]
    assert layout.qubit("a", 1) == 1
    state = PureState.basis(layout, {"a": 0b10, "b": 1})
    assert state.amplitudes[0b101] == 1.0


def _shuffled_layout(rng) -> RegisterLayout:
    # 1-4 registers of widths 1-5 (at most 20 qubits) in a shuffled order
    names = [f"r{k}" for k in range(int(rng.integers(1, 5)))]
    rng.shuffle(names)
    return RegisterLayout(tuple((n, int(rng.integers(1, 6))) for n in names))


@pytest.mark.parametrize("seed", range(3701, 3741))
def test_labels_and_bit_equal_the_slot_level_reference(seed):
    # labels against gather_slots (one qubit slot at a time, slot s at bit
    # total - 1 - s) over random indices, every single register, the whole
    # layout reversed and random subsets in random orders
    rng = np.random.default_rng(seed)
    lay = _shuffled_layout(rng)
    idx = rng.integers(0, lay.dim, size=64)
    orders = [(n,) for n in lay.names] + [lay.names[::-1], ()]
    for _ in range(4):
        picked = rng.permutation(lay.names)[:int(rng.integers(1, len(lay.names) + 1))]
        orders.append(tuple(str(n) for n in picked))
    for names in orders:
        want = gather_slots(idx, lay.total_qubits, lay.ordered_slots(names))
        got = lay.labels(idx, names)
        assert got.dtype == idx.dtype
        np.testing.assert_array_equal(got, want, err_msg=str((lay.registers, names)))
        assert lay.labels(int(idx[0]), names) == want[0]
    for name, w in lay.registers:
        for j in range(w):
            assert lay.bit(name, j) == lay.total_qubits - 1 - lay.qubit(name, j)
    # repeated and unknown names are refused as ordered_slots refuses them
    first = lay.names[0]
    for bad in [(first, first), (first, "nope"), ("nope",)]:
        with pytest.raises(LayoutError) as refused:
            lay.ordered_slots(bad)
        with pytest.raises(LayoutError, match=re.escape(str(refused.value))):
            lay.labels(idx, bad)
    with pytest.raises(LayoutError, match="qubit 5 out of range"):
        lay.bit(first, 5)


def test_only_states_maps_a_qubit_slot_to_a_bit():
    # The big-endian rule (slot s is bit total - 1 - s) is written in
    # states.RegisterLayout alone: no other module defines _shift or
    # subtracts from a qubit total, and none packs labels by slot.
    src = Path(__file__).resolve().parents[1] / "src" / "qpirlab"
    modules = sorted(src.glob("*.py"))
    assert {p.name for p in modules} >= {"channels.py", "runtime.py", "states.py"}
    for path in modules:
        if path.name == "states.py":
            continue
        text = path.read_text()
        assert not re.search(r"\bdef _shift\b|\b_shift\(|\b_gather\(", text), path.name
        assert not re.search(r"\btotal\w*\s*-(?!=)", text), path.name


def test_pure_probabilities_follow_name_order():
    layout = RegisterLayout((("a", 1), ("b", 1)))
    state = PureState.basis(layout, {"a": 1, "b": 0})
    np.testing.assert_array_equal(state.probabilities(("a", "b")), [0, 0, 1, 0])
    np.testing.assert_array_equal(state.probabilities(("b", "a")), [0, 1, 0, 0])
    np.testing.assert_array_equal(state.probabilities(("b",)), [1, 0])


def test_norm_validation():
    layout = RegisterLayout((("a", 1),))
    with pytest.raises(StateError):
        PureState(layout, np.array([1.0, 1.0]))
    PureState(layout, np.array([1.0, 1.0]) / np.sqrt(2))


def test_reordered_and_overlap():
    layout = RegisterLayout((("a", 1), ("b", 1)))
    bell = PureState.from_vector(layout, np.array([1, 0, 0, 1]) / np.sqrt(2))
    flipped = bell.reordered(["b", "a"])
    assert flipped.layout.names == ("b", "a")
    # Bell state is symmetric under the register swap
    assert abs(bell.overlap(flipped)) == pytest.approx(1.0)
    asym = PureState.basis(layout, {"a": 1, "b": 0})
    asym_flipped = asym.reordered(["b", "a"])
    assert asym_flipped.amplitudes[0b01] == 1.0


def test_density_validation():
    with pytest.raises(StateError):
        DensityOperator(2, np.array([[0.8, 0.0], [0.0, 0.8]]))  # trace 1.28 != 1
    with pytest.raises(StateError):
        DensityOperator(2, np.ones(2) / np.sqrt(2))  # no (d, k) factor
    rho = DensityOperator(4, np.eye(4) / np.sqrt(4))
    assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(0.25)


def test_density_from_ensemble():
    v0 = np.array([1, 0]) / np.sqrt(2)
    v1 = np.array([0, 1]) / np.sqrt(2)
    rho = DensityOperator.from_ensemble([v0, v1])
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)


def test_factor_kept_only_below_half_the_dimension(rng):
    d = 16
    for rank in range(1, d + 3):
        vecs = rng.normal(size=(rank, d)) + 1j * rng.normal(size=(rank, d))
        rho = DensityOperator.from_ensemble(vecs / np.linalg.norm(vecs))
        dense = sum(np.outer(v, v.conj()) for v in vecs) / np.linalg.norm(vecs) ** 2
        np.testing.assert_allclose(rho.matrix, dense, rtol=0, atol=1e-14)
        # the factor is kept at every rank, compressed to at most d columns
        assert rho.factor.shape == (d, min(rank, d))


def test_factor_compresses_repeated_branches(rng):
    v = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    vecs = np.concatenate([v, v, 2 * v]) / np.sqrt(6 * np.vdot(v, v).real)
    rho = DensityOperator.from_ensemble(vecs)
    assert rho.factor.shape == (8, 2)
    back = sum(np.outer(b, b.conj()) for b in rho.branches())
    np.testing.assert_allclose(back, rho.matrix, rtol=0, atol=1e-14)


def block_factor(rng):
    """A (12, 9) factor with three blocks and three zero columns: rows 0-2
    on columns 0 and 4 (tall), rows 5-6 on columns 1, 2 and 7 (wide, rank 2)
    and row 9 on column 8."""
    f = np.zeros((12, 9), dtype=np.complex128)
    for rows, cols in (([0, 1, 2], [0, 4]), ([5, 6], [1, 2, 7]), ([9], [8])):
        f[np.ix_(rows, cols)] = (rng.normal(size=(len(rows), len(cols)))
                                 + 1j * rng.normal(size=(len(rows), len(cols))))
    return f / np.linalg.norm(f)


def test_support_blocks_are_the_components_grouped_by_shape(rng):
    f = block_factor(rng)
    f[[3, 4], 3] = 0.1  # a fourth block, rows 3-4 on column 3
    f[[10, 11], 5] = 0.2  # and a fifth of the same (2, 1) shape
    groups = {(r.shape[1], c.shape[1]): (r.tolist(), c.tolist()) for r, c in _support_blocks(f)}
    assert groups == {(3, 2): ([[0, 1, 2]], [[0, 4]]), (2, 3): ([[5, 6]], [[1, 2, 7]]),
                      (1, 1): ([[9]], [[8]]), (2, 1): ([[3, 4], [10, 11]], [[3], [5]])}
    # a staircase is one component however long the chain of links
    stair = np.eye(64, 63) + np.eye(64, 63, -1)
    ((rows, cols),) = _support_blocks(stair[::-1])
    assert rows.tolist() == [list(range(64))] and cols.tolist() == [list(range(63))]
    dense = rng.normal(size=(5, 7))
    ((rows, cols),) = _support_blocks(dense)
    assert rows.tolist() == [list(range(5))] and cols.tolist() == [list(range(7))]


def test_block_factor_compresses_per_component(rng):
    f = block_factor(rng)
    rho = DensityOperator(12, f)
    dense = f @ f.conj().T
    np.testing.assert_allclose(rho.matrix, dense, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(rho.matrix), np.linalg.eigvalsh(dense),
                               rtol=0, atol=1e-12)
    # rank 2 + 2 + 1, and every column lives on the rows of one block
    assert rho.factor.shape == (12, 5)
    support = [frozenset(np.flatnonzero(col)) for col in rho.factor.T]
    assert sorted(map(sorted, support)) == [[0, 1, 2]] * 2 + [[5, 6]] * 2 + [[9]]
    assert not rho.factor[[3, 4, 7, 8, 10, 11]].any()


def test_dense_factor_keeps_the_one_component_rule(rng):
    # a factor with no zero entry is one component: the factor is the one
    # the smaller Gram eigenproblem of the whole factor gives, bit for bit
    for d, k in ((16, 5), (16, 40), (8, 8)):
        m = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
        m /= np.linalg.norm(m)
        rho = DensityOperator(d, m)
        tr = float(np.vdot(m, m).real)
        if k < d:
            evals, evecs = np.linalg.eigh(m.conj().T @ m)
            keep = evals > 1e-14 * tr
            want = m @ evecs[:, keep] / np.sqrt(tr)
        else:
            evals, evecs = np.linalg.eigh(hermitize(m @ m.conj().T))
            keep = evals > 1e-14 * tr
            want = evecs[:, keep] * np.sqrt(evals[keep] / tr)
        assert rho.factor.shape == (d, min(k, d))
        np.testing.assert_array_equal(rho.factor, want)


def test_kept_columns_are_written_straight_into_the_factor(rng):
    # one component on every row, with and without scattered zeros: no copy
    # of the kept columns beside the factor, so the peak stays below 1.5
    # times the compressed factor's bytes (the one-Gram rule of a factor
    # with no zero entry peaks at 1.5)
    m = rng.normal(size=(512, 128)) + 1j * rng.normal(size=(512, 128))
    for zeros in (0.0, 0.1):
        f = np.where(rng.random(m.shape) < zeros, 0, m)
        f /= np.linalg.norm(f)
        tracemalloc.start()
        try:
            rho = DensityOperator(512, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rho.factor.shape == (512, 128)
        assert peak < 1.5 * rho.factor.nbytes, (zeros, peak / rho.factor.nbytes)


def test_maximally_mixed_compresses_fast():
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rho = DensityOperator(1024, np.eye(1024) / np.sqrt(1024))
        best = min(best, time.perf_counter() - start)
    assert rho.factor.shape == (1024, 1024)
    assert np.array_equal(rho.factor, np.eye(1024) / 32)
    assert best < 0.05, best
