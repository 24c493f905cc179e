import numpy as np
import pytest

from qpirlab.config import CapExceeded
from qpirlab.states import (
    DensityOperator,
    LayoutError,
    PureState,
    RegisterLayout,
    StateError,
)


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
    rho = DensityOperator.maximally_mixed(4)
    assert rho.purity == pytest.approx(0.25)


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
