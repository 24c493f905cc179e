import math
import time

import numpy as np
import pytest

from conftest import random_density, random_kraus, random_pure
from qpirlab.channels import DenseOp
from qpirlab.distances import (
    UhlmannPreconditionError,
    apply_side_unitary,
    gram_reduce,
    paired_distances,
    partial_trace,
    pure_trace_distance,
    trace_distance,
    trace_in_extraction,
    uhlmann_unitary,
)
from qpirlab.runtime import Ensemble
from qpirlab.states import DensityOperator, LayoutError, PureState, RegisterLayout, StateError
from span_reference import dense_trace_in_extraction, dense_uhlmann, to_pure


def dense_distance(a, b) -> float:
    # the halved trace norm of the dense difference, independent of the span
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))


def bell(layout):
    return PureState.from_vector(layout, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestPartialTrace:
    def test_product_state(self):
        layout = RegisterLayout((("a", 1), ("b", 1)))
        v = np.kron([1, 0], [2**-0.5, 2**-0.5])
        s = PureState.from_vector(layout, v)
        rho = partial_trace(s, ["a"])
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_bell_both_sides(self):
        layout = RegisterLayout((("a", 1), ("b", 1)))
        for keep in (["a"], ["b"]):
            rho = partial_trace(bell(layout), keep)
            np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize("d", range(4))
    def test_shifted_pair_is_maximally_mixed(self, d):
        # trace out R' of sum_y |y>|y xor d> / 2^(k/2): mixed for every d
        layout = RegisterLayout((("R", 2), ("Rp", 2)))
        v = np.zeros(16, dtype=complex)
        for y in range(4):
            v[layout.basis_index({"R": y, "Rp": y ^ d})] = 0.5
        rho = partial_trace(PureState.from_vector(layout, v), ["R"])
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_consistency_nested(self, rng):
        layout = RegisterLayout((("a", 2), ("b", 1), ("c", 2)))
        for _ in range(20):
            s = random_pure(rng, layout)
            big = partial_trace(s, ["a", "b"])
            # reduce the reduced state to "a" and compare with direct reduction
            sub_layout = RegisterLayout((("a", 2), ("b", 1)))
            evals, evecs = np.linalg.eigh(big.matrix)
            vecs = [np.sqrt(max(l, 0)) * evecs[:, i] for i, l in enumerate(evals) if l > 1e-14]
            from qpirlab.distances import gram_reduce

            nested = gram_reduce(np.array(vecs), sub_layout, ["a"]).matrix
            direct = partial_trace(s, ["a"]).matrix
            assert np.max(np.abs(nested - direct)) <= 1e-10

    def test_reduced_cap(self, monkeypatch):
        monkeypatch.setenv("QPIRLAB_REDUCED_CAP", "1")
        layout = RegisterLayout((("a", 2), ("b", 1)))
        s = PureState.basis(layout)
        from qpirlab.config import CapExceeded

        with pytest.raises(CapExceeded):
            partial_trace(s, ["a"])


class TestTraceDistance:
    def test_identical(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure(self):
        a = DensityOperator.from_pure([1, 0])
        b = DensityOperator.from_pure([0, 1])
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_zero_vs_plus_is_halved_convention(self):
        a = DensityOperator.from_pure([1, 0])
        b = DensityOperator.from_pure([2**-0.5, 2**-0.5])
        assert trace_distance(a, b) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(StateError):
            trace_distance(DensityOperator(2, np.eye(2) / np.sqrt(2)),
                           DensityOperator(4, np.eye(4) / np.sqrt(4)))

    def test_symmetry_and_triangle(self, rng):
        a, b, c = (random_density(rng, 4) for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_monotone_under_channels(self, rng):
        layout = RegisterLayout((("a", 2),))
        for _ in range(40):
            rho = random_density(rng, 4)
            sigma = random_density(rng, 4)
            ks = random_kraus(rng, 4, 2)
            op = DenseOp(tuple(ks), ("a",), kind="kraus-set")
            d_before = trace_distance(rho, sigma)
            d_after = trace_distance(
                DensityOperator.from_ensemble(Ensemble(layout, rho.branches()).apply(op).dense()),
                DensityOperator.from_ensemble(Ensemble(layout, sigma.branches()).apply(op).dense()))
            assert d_after <= d_before + 1e-9

    def test_pure_state_formula_agreement(self, rng):
        layout = RegisterLayout((("a", 2),))
        for _ in range(50):
            a = random_pure(rng, layout)
            b = random_pure(rng, layout)
            lhs = trace_distance(DensityOperator.from_pure(a), DensityOperator.from_pure(b))
            assert lhs == pytest.approx(pure_trace_distance(a, b), abs=1e-9)

    def test_ensemble_distance_matches_dense(self, rng):
        for _ in range(20):
            ra = random_density(rng, 8, rank=3)
            rb = random_density(rng, 8, rank=2)
            ea, va = np.linalg.eigh(ra.matrix)
            eb, vb = np.linalg.eigh(rb.matrix)
            vecs_a = [np.sqrt(max(l, 0)) * va[:, i] for i, l in enumerate(ea) if l > 1e-14]
            vecs_b = [np.sqrt(max(l, 0)) * vb[:, i] for i, l in enumerate(eb) if l > 1e-14]
            got, = paired_distances([(np.array(vecs_a), np.array(vecs_b))])
            assert got == pytest.approx(trace_distance(ra, rb), abs=1e-10)


    def test_factored_matches_dense_reference(self, rng):
        for d in (4, 16, 64):
            for _ in range(10):
                ra, rb = rng.integers(1, d // 2, size=2)
                a = random_density(rng, d, rank=int(ra))
                b = random_density(rng, d, rank=int(rb))
                assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)

    def test_full_span_and_wide_factors_match_dense_reference(self, rng):
        # the two factors span the whole space: ranks summing to at least d,
        # full rank, and a reduction whose factor has k > d columns
        for d in (4, 16):
            for ra, rb in ((d // 2, d // 2), (d - 1, 3), (d, 1), (d, d)):
                a = random_density(rng, d, rank=ra)
                b = random_density(rng, d, rank=rb)
                assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)
        layout = RegisterLayout((("a", 2), ("b", 3)))
        for _ in range(5):
            vecs = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
            wide = gram_reduce(vecs / np.linalg.norm(vecs), layout, ["a"])  # k = 24 > d = 4
            other = random_density(rng, 4, rank=int(rng.integers(1, 5)))
            assert trace_distance(wide, other) == pytest.approx(dense_distance(wide, other),
                                                                abs=1e-12)


class TestBlockDistance:
    """trace_distance sums over the components of ``[F G]``'s support."""

    @staticmethod
    def on_rows(rng, d, blocks):
        # a density operator from (rows, columns) blocks of random entries
        f = np.zeros((d, sum(k for _, k in blocks)), dtype=np.complex128)
        at = 0
        for rows, k in blocks:
            f[rows, at:at + k] = rng.normal(size=(len(rows), k)) + 1j * rng.normal(size=(len(rows), k))
            at += k
        return DensityOperator(d, f / np.linalg.norm(f))

    def test_block_in_only_one_operator(self, rng):
        for _ in range(5):
            a = self.on_rows(rng, 12, [([0, 1, 2], 2), ([5, 6], 3)])
            b = self.on_rows(rng, 12, [([0, 1, 2], 1), ([9, 10], 2)])
            assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)

    def test_blocks_overlapping_across_the_two(self, rng):
        for _ in range(5):
            a = self.on_rows(rng, 12, [([0, 1, 2, 3], 2), ([8], 1)])
            b = self.on_rows(rng, 12, [([2, 3, 4, 5], 3), ([8, 9], 1)])
            assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)

    def test_same_shape_blocks_with_other_signs(self, rng):
        # two (2, 3) components of [F G]: signs (+, +, -) and (+, -, -)
        for _ in range(5):
            a = self.on_rows(rng, 8, [([0, 1], 2), ([4, 5], 1)])
            b = self.on_rows(rng, 8, [([0, 1], 1), ([4, 5], 2)])
            assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)

    def test_both_dense(self, rng):
        for d, ra, rb in ((8, 3, 2), (16, 16, 5)):
            a, b = random_density(rng, d, rank=ra), random_density(rng, d, rank=rb)
            assert trace_distance(a, b) == pytest.approx(dense_distance(a, b), abs=1e-12)

    def test_maximally_mixed_compares_fast(self):
        mixed = DensityOperator(1024, np.eye(1024) / np.sqrt(1024))
        basis = DensityOperator.from_pure(np.eye(1024)[0])
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            d = trace_distance(mixed, basis)
            best = min(best, time.perf_counter() - start)
        assert d == pytest.approx(1023 / 1024, abs=1e-12)
        assert best < 0.05, best


class TestUhlmann:
    @pytest.mark.parametrize("registers", [
        (("A", 2), ("B", 2)),
        (("B", 2), ("A", 2)),
        (("A", 1), ("B", 2), ("C", 1)),
    ])
    def test_support_read_equals_the_dense_reference(self, rng, registers):
        # random dense states, the side register B last, first and in the
        # middle, each a PureState and a one-branch Ensemble: the unitary
        # bit for bit that of the whole reordered states
        layout = RegisterLayout(registers)
        for _ in range(100):
            phi, psi = random_pure(rng, layout), random_pure(rng, layout)
            assert np.array_equal(uhlmann_unitary(phi, psi, ["B"]), dense_uhlmann(phi, psi, ["B"]))
            phi, psi = Ensemble.from_pure(phi), Ensemble.from_pure(psi)
            assert np.array_equal(uhlmann_unitary(phi, psi, ["B"]),
                                  dense_uhlmann(to_pure(phi), to_pure(psi), ["B"]))

    def test_identical_states(self, rng):
        # full-rank B marginal, so the completion is forced: identity up to phase
        layout = RegisterLayout((("A", 2), ("B", 1)))
        phi = random_pure(rng, layout)
        u = uhlmann_unitary(phi, phi, side=["B"])
        rotated = apply_side_unitary(phi, u, side=["B"])
        assert pure_trace_distance(phi, rotated) == pytest.approx(0.0, abs=1e-9)
        assert abs(np.trace(u)) == pytest.approx(2.0, abs=1e-9)

    def test_equal_marginals_distinct_b(self):
        layout = RegisterLayout((("A", 1), ("B", 1)))
        phi = PureState.basis(layout, {"A": 0, "B": 0})
        psi = PureState.basis(layout, {"A": 0, "B": 1})
        u = uhlmann_unitary(phi, psi, side=["B"])
        rotated = apply_side_unitary(psi, u, side=["B"])
        assert pure_trace_distance(phi, rotated) == pytest.approx(0.0, abs=1e-9)

    def test_bound_200_random_pairs(self, rng):
        layout = RegisterLayout((("A", 2), ("B", 2)))
        checked, attempts = 0, 0
        while checked < 200:
            # every draw of the fixture's seed lands in (0, 0.5); a distance
            # stuck at 0 must fail here rather than loop for ever
            attempts += 1
            assert attempts <= 1000, f"only {checked} of 1000 draws had 0 < eps < 0.5"
            phi = random_pure(rng, layout)
            noise = rng.normal(size=16) + 1j * rng.normal(size=16)
            vec = phi.amplitudes + rng.uniform(0.05, 0.6) * noise / np.linalg.norm(noise)
            psi = PureState.from_vector(layout, vec, normalize=True)
            eps = trace_distance(partial_trace(phi, ["A"]), partial_trace(psi, ["A"]))
            if not 0 < eps < 0.5:
                continue
            u = uhlmann_unitary(phi, psi, side=["B"])
            achieved = pure_trace_distance(phi, apply_side_unitary(psi, u, side=["B"]))
            assert achieved <= math.sqrt(eps * (2 - eps)) + 1e-8
            checked += 1

    def test_two_branch_ensemble_rejected(self, rng):
        layout = RegisterLayout((("A", 1), ("B", 1)))
        phi = random_pure(rng, layout)
        mixed = Ensemble(layout, np.stack([phi.amplitudes, random_pure(rng, layout).amplitudes]))
        with pytest.raises(StateError, match="2 branches"):
            uhlmann_unitary(phi, mixed, side=["B"])
        with pytest.raises(StateError, match="2 branches"):
            uhlmann_unitary(mixed, phi, side=["B"])

    @pytest.mark.parametrize("side", [["C"], []], ids=["unknown", "empty"])
    def test_bad_side_rejected(self, rng, side):
        phi = random_pure(rng, RegisterLayout((("A", 1), ("B", 1))))
        with pytest.raises(LayoutError):
            uhlmann_unitary(phi, Ensemble.from_pure(phi), side=side)

    def test_states_over_other_registers_rejected(self, rng):
        phi = random_pure(rng, RegisterLayout((("A", 1), ("B", 1))))
        psi = random_pure(rng, RegisterLayout((("A", 1), ("B", 1), ("C", 1))))
        with pytest.raises(LayoutError):
            uhlmann_unitary(phi, Ensemble.from_pure(psi), side=["B"])

    def test_orthogonal_marginals_rejected(self):
        layout = RegisterLayout((("A", 1), ("B", 1)))
        phi = PureState.basis(layout, {"A": 0})
        psi = PureState.basis(layout, {"A": 1})
        with pytest.raises(UhlmannPreconditionError):
            uhlmann_unitary(phi, psi, side=["B"])


class TestTraceIn:
    def test_exact_product(self, rng):
        x = random_pure(rng, RegisterLayout((("X", 1),)))
        y = random_pure(rng, RegisterLayout((("Y", 2),)))
        alpha = x.tensor(y)
        beta, bound = trace_in_extraction(alpha, x)
        assert bound == pytest.approx(0.0, abs=1e-6)
        assert abs(beta.overlap(y)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.3])
    def test_two_branch_closed_form(self, eps):
        # alpha = sqrt(1-eps)|0>|b0> + sqrt(eps)|1>|b1>, phi = |0>
        layout = RegisterLayout((("X", 1), ("Y", 1)))
        v = np.zeros(4, dtype=complex)
        v[layout.basis_index({"X": 0, "Y": 0})] = math.sqrt(1 - eps)
        v[layout.basis_index({"X": 1, "Y": 1})] = math.sqrt(eps)
        alpha = PureState.from_vector(layout, v)
        phi = PureState.basis(RegisterLayout((("X", 1),)))
        beta, bound = trace_in_extraction(alpha, phi)
        assert abs(beta.amplitudes[0]) == pytest.approx(1.0)
        achieved = pure_trace_distance(alpha, phi.tensor(beta))
        assert achieved == pytest.approx(math.sqrt(eps), abs=1e-9)
        assert achieved <= bound + 1e-9

    def test_property_200_random(self, rng):
        # random states with a near-pure X marginal; the lemma is the oracle
        layout = RegisterLayout((("X", 1), ("Y", 2)))
        phi_layout = RegisterLayout((("X", 1),))
        done = 0
        while done < 200:
            base = random_pure(rng, phi_layout).tensor(random_pure(rng, RegisterLayout((("Y", 2),))))
            noise = rng.normal(size=8) + 1j * rng.normal(size=8)
            vec = base.amplitudes + rng.uniform(0.0, 0.4) * noise / np.linalg.norm(noise)
            alpha = PureState.from_vector(layout, vec, normalize=True)
            phi = PureState.from_vector(phi_layout, _leading_marginal_vector(alpha), normalize=True)
            eps = trace_distance(partial_trace(alpha, ["X"]), DensityOperator.from_pure(phi.amplitudes))
            if eps >= 0.9:
                continue
            beta, bound = trace_in_extraction(alpha, phi)
            achieved = pure_trace_distance(alpha, phi.tensor(beta))
            assert achieved <= math.sqrt(eps) + 1e-8
            assert bound == pytest.approx(math.sqrt(eps), abs=1e-9)
            done += 1

    @pytest.mark.parametrize("phi_order", [("a", "b"), ("b", "a")])
    def test_phi_register_order_does_not_matter(self, phi_order):
        # alpha = |0>_a |+>_b |0>_y is exactly phi (x) |0>_y whatever order
        # phi declares its registers in.
        plus = PureState.from_vector(RegisterLayout((("b", 1),)), [1, 1], normalize=True)
        zero_a = PureState.basis(RegisterLayout((("a", 1),)))
        alpha = zero_a.tensor(plus).tensor(PureState.basis(RegisterLayout((("y", 1),))))
        phi = zero_a.tensor(plus).reordered(phi_order)
        beta, bound = trace_in_extraction(alpha, phi)
        assert bound == pytest.approx(0.0, abs=1e-6)
        assert abs(beta.amplitudes[0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("registers", [
        (("X", 1), ("Y", 2)),
        (("Y", 2), ("X", 1)),
        (("Y", 1), ("X", 2), ("Z", 2)),
    ])
    def test_support_read_equals_the_dense_reference(self, rng, registers):
        # the lemma suites' near-product states, X first, last and between
        # two Y registers, alpha and phi each a PureState and a one-branch
        # Ensemble: beta's amplitudes and the bound bit for bit
        layout, x = RegisterLayout(registers), RegisterLayout((("X", dict(registers)["X"]),))
        ys = RegisterLayout(tuple(r for r in registers if r[0] != "X"))
        for _ in range(50):
            base = random_pure(rng, x).tensor(random_pure(rng, ys)).reordered(layout.names)
            noise = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
            alpha = PureState.from_vector(
                layout, base.amplitudes + rng.uniform(0.0, 0.5) * noise / np.linalg.norm(noise),
                normalize=True)
            evals, evecs = np.linalg.eigh(partial_trace(alpha, ["X"]).matrix)
            phi = PureState.from_vector(x, evecs[:, int(np.argmax(evals))], normalize=True)
            for a, p in ((alpha, phi), (Ensemble.from_pure(alpha), Ensemble.from_pure(phi))):
                beta, bound = trace_in_extraction(a, p)
                want, want_bound = dense_trace_in_extraction(a, p)
                assert beta.layout == want.layout == ys
                assert np.array_equal(beta.amplitudes, want.amplitudes) and bound == want_bound

    def test_zero_projection_rejected(self):
        layout = RegisterLayout((("X", 1), ("Y", 1)))
        alpha = PureState.basis(layout, {"X": 1})
        phi = PureState.basis(RegisterLayout((("X", 1),)), {"X": 0})
        with pytest.raises(StateError):
            trace_in_extraction(alpha, phi)


def _leading_marginal_vector(alpha):
    mat = alpha.amplitudes.reshape(2, -1)
    rho = mat @ mat.conj().T
    evals, evecs = np.linalg.eigh(rho)
    return evecs[:, int(np.argmax(evals))]
