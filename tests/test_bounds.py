import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from qpirlab import bounds
from qpirlab.bounds import (
    BlockProjector,
    binary_entropy,
    chain_rule_check,
    epsilon_prime,
    extraction_attack,
    gentle_measure,
    nayak_argument,
    nayak_bound,
    reconstruction_bound,
)
from qpirlab.distances import UhlmannPreconditionError, trace_distance
from qpirlab.protocols import build_baseline, build_kerenidis
from qpirlab.runtime import Ensemble
from qpirlab.states import DensityOperator, PureState, StateError
from span_reference import dense_uhlmann, to_pure


def ket(vec):
    return DensityOperator.from_pure(np.asarray(vec, dtype=complex))


def dense_projector(proj: BlockProjector) -> np.ndarray:
    """The slow reference: the block projector as a dense sum of
    ``kron(|a><a|, u^dagger diag(keep[a]) u)``."""
    blocks, d_b = proj.keep.shape
    out = np.zeros((blocks * d_b, blocks * d_b), dtype=complex)
    for a in range(blocks):
        sel = np.zeros((blocks, blocks))
        sel[a, a] = 1.0
        out += np.kron(sel, proj.u.conj().T @ np.diag(proj.keep[a].astype(float)) @ proj.u)
    return out


def random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


class TestGentleMeasurement:
    def test_identity_operator(self, rng):
        rho = random_density(rng, 4)
        out = gentle_measure(rho, np.eye(4))
        assert out.probability == pytest.approx(1.0)
        assert trace_distance(out.post_state, rho) <= 1e-12

    def test_certain_projector(self):
        rho = ket([1, 0])
        out = gentle_measure(rho, np.diag([1.0, 0.0]))
        assert out.probability == pytest.approx(1.0)
        assert trace_distance(out.post_state, rho) <= 1e-12

    def test_property_500_random(self, rng):
        done = 0
        while done < 500:
            rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
            evals = rng.uniform(0, 1, size=4)
            basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
            lam = (basis * evals) @ basis.conj().T
            p = float(np.real(np.trace(lam @ rho.matrix)))
            if p < 0.5:
                continue
            out = gentle_measure(rho, lam)  # certificate asserted internally
            assert trace_distance(out.post_state, rho) <= math.sqrt(1 - p) + 1e-8
            done += 1

    def test_rejects_bad_operator(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(StateError):
            gentle_measure(rho, np.diag([1.5, 0.0]))
        with pytest.raises(StateError):
            gentle_measure(ket([1, 0]), np.diag([0.0, 1.0]))  # probability 0

    def test_rejects_non_hermitian_operator(self):
        # its Hermitian part is 0.5 I, but the operator itself is no effect
        with pytest.raises(StateError, match="Hermitian"):
            gentle_measure(ket([1, 0]), np.array([[0.5, 0.3], [-0.3, 0.5]]))

    def test_projector_path_matches_eigh_path(self, rng):
        # (1 - 1e-6) P is no projector, so it takes the eigh path, yet its
        # post-state is exactly P rho P / tr(P rho), as for P itself
        d = 64
        for rank in (1, 3, 31):
            rho = random_density(rng, d, rank=rank)
            q = np.linalg.qr(rng.normal(size=(d, 20)) + 1j * rng.normal(size=(d, 20)))[0]
            proj = q @ q.conj().T
            fast = gentle_measure(rho, proj)
            slow = gentle_measure(rho, (1 - 1e-6) * proj)
            assert slow.probability == pytest.approx((1 - 1e-6) * fast.probability, rel=1e-12)
            np.testing.assert_allclose(fast.post_state.matrix, slow.post_state.matrix,
                                       rtol=0, atol=1e-12)
            want = proj @ rho.matrix @ proj / fast.probability
            np.testing.assert_allclose(fast.post_state.matrix, want, rtol=0, atol=1e-12)

    def test_scaled_projector_post_state_is_exact(self, rng):
        # eigenvalues of 0.5 P within STATE_ATOL of 0 are snapped to 0, so no
        # eigen-noise leaks outside the range of P
        d = 64
        rho = random_density(rng, d, rank=3)
        q = np.linalg.qr(rng.normal(size=(d, 32)) + 1j * rng.normal(size=(d, 32)))[0]
        proj = q @ q.conj().T
        out = gentle_measure(rho, 0.5 * proj)
        p = float(np.real(np.trace(proj @ rho.matrix)))
        assert out.probability == pytest.approx(0.5 * p, rel=1e-12)
        np.testing.assert_allclose(out.post_state.matrix, proj @ rho.matrix @ proj / p,
                                   rtol=0, atol=1e-12)


class TestBlockProjector:
    @pytest.mark.parametrize("blocks,d_b,rank", [(1, 8, 2), (1, 8, 7), (4, 16, 3), (4, 16, 40)])
    def test_matches_the_dense_reference(self, rng, blocks, d_b, rank):
        # low ranks keep a factor, high ranks a dense matrix
        proj = BlockProjector(1, random_unitary(rng, d_b), rng.random((blocks, d_b)) < 0.5)
        rho = random_density(rng, blocks * d_b, rank=rank)
        fast = gentle_measure(rho, proj)
        slow = gentle_measure(rho, dense_projector(proj))
        assert fast.probability == pytest.approx(slow.probability, rel=0, abs=1e-12)
        np.testing.assert_allclose(fast.post_state.matrix, slow.post_state.matrix,
                                   rtol=0, atol=1e-12)

    def test_rejects_a_non_unitary_rotation(self, rng):
        u = random_unitary(rng, 8)
        u[0] *= 1 + 1e-6
        with pytest.raises(StateError, match="bit 3"):
            BlockProjector(3, u, np.ones((2, 8), dtype=bool))

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(StateError, match="bit 1"):
            BlockProjector(1, random_unitary(rng, 8), np.ones((2, 4), dtype=bool))
        proj = BlockProjector(1, random_unitary(rng, 4), np.ones((2, 4), dtype=bool))
        with pytest.raises(StateError, match="dimension"):
            gentle_measure(random_density(rng, 16), proj)

    def test_zero_probability_is_refused(self):
        proj = BlockProjector(1, np.eye(2), np.array([[False, True]]))
        with pytest.raises(StateError, match="probability 0"):
            gentle_measure(ket([1, 0]), proj)


class TestExtractionAttack:
    def test_send_db_all_bits(self):
        inst = build_baseline("send-db", 2)
        tr = extraction_attack(inst, "classical-per-a", database=(1, 0))
        assert [b.probability for b in tr.bits] == [pytest.approx(1.0)] * 2
        assert tr.overall == pytest.approx(1.0)
        # success formula holds with measured (delta, eps): 1 >= 1 - 0
        assert tr.overall >= reconstruction_bound(2, tr.delta, tr.epsilon) - 1e-6

    def test_send_index_premise_fails_beyond_first_bit(self):
        inst = build_baseline("send-index", 2)
        tr = extraction_attack(inst, "classical-per-a", database=(1, 0))
        assert tr.bits[0].probability == pytest.approx(1.0)
        assert not tr.bits[1].premise_ok
        assert tr.bits[1].probability == pytest.approx(0.5)
        assert tr.overall == pytest.approx(0.5)

    def test_kerenidis_coherent_unqueried_bit_is_coin_flip(self):
        inst = build_kerenidis(2)
        tr = extraction_attack(inst, "coherent-reference")
        assert tr.client_executable
        assert tr.bits[0].probability == pytest.approx(1.0, abs=1e-9)
        assert tr.bits[1].probability == pytest.approx(0.5, abs=1e-9)
        assert tr.epsilon == pytest.approx(0.25, abs=1e-9)

    def test_kerenidis_classical_per_a_not_executable(self):
        inst = build_kerenidis(2)
        tr = extraction_attack(inst, "classical-per-a", database=(1, 1))
        assert not tr.client_executable
        assert "not executable" in tr.notes
        # with the database in hand the rotations extract every bit, and the
        # measured anchored (delta, eps) make the success formula sharp
        assert tr.overall == pytest.approx(1.0, abs=1e-9)
        assert tr.overall >= reconstruction_bound(2, tr.delta, tr.epsilon) - 1e-6

    def test_drift_recursion_and_bounds(self):
        inst = build_kerenidis(2)
        for mode, db in (("coherent-reference", None), ("classical-per-a", (0, 1))):
            tr = extraction_attack(inst, mode, database=db)
            step = math.sqrt(tr.delta + tr.epsilon_prime)
            prev = 0.0
            for k, bit in enumerate(tr.bits, start=1):
                assert bit.drift <= k * step + 1e-8
                assert bit.drift <= prev + step + 1e-8
                prev = bit.drift

    def test_kerenidis_coherent_second_bit_drift_is_exact(self):
        # the attacker's state after measuring the unqueried bit is at
        # distance exactly 1/sqrt(2) from the run-1 state
        tr = extraction_attack(build_kerenidis(2), "coherent-reference")
        assert tr.bits[1].drift == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_kerenidis_n4_coherent_drifts_are_pinned(self):
        # Pinned values: each drift goes through an Uhlmann completion of a
        # rank-deficient overlap, which moves by up to 0.03 under 1e-17
        # rounding dust in the kernels' exact zeros.
        tr = extraction_attack(build_kerenidis(4), "coherent-reference")
        want = [0.0, 0.7067701707935816, 0.8122751958668093, 0.8661925952338183]
        np.testing.assert_allclose([b.drift for b in tr.bits], want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,mode,db", [(2, "coherent-reference", None),
                                           (2, "classical-per-a", (1, 0)),
                                           (4, "coherent-reference", None),
                                           (4, "classical-per-a", (0, 1, 1, 0))])
    def test_block_projectors_match_the_dense_reference(self, monkeypatch, n, mode, db):
        inner = bounds.gentle_measure

        def attack(dense):
            posts = []

            def measured(rho, operator):
                out = inner(rho, dense_projector(operator) if dense else operator)
                posts.append(out.post_state.matrix)
                return out
            monkeypatch.setattr(bounds, "gentle_measure", measured)
            return extraction_attack(build_kerenidis(n), mode, database=db), posts

        fast, fast_posts = attack(False)
        slow, slow_posts = attack(True)
        assert len(fast_posts) == len(slow_posts) == n
        for a, b in zip(fast.bits, slow.bits):
            assert a.probability == pytest.approx(b.probability, rel=0, abs=1e-12)
            assert a.drift == pytest.approx(b.drift, rel=0, abs=1e-12)
        for a, b in zip(fast_posts, slow_posts):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_kerenidis_n4_coherent_memory(self):
        # Bound: the measured tracemalloc peak (18.0 MiB) + 10%.  A dense
        # 2^19-amplitude pure state per run in the Uhlmann step peaked at
        # 42.2 MiB; a dense 1024 x 1024 operator per bit and all n runs kept
        # peaked at 140.5 MiB.
        inst = build_kerenidis(4)
        extraction_attack(inst, "coherent-reference")  # fill the kernel caches
        tracemalloc.start()
        try:
            extraction_attack(inst, "coherent-reference")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 18.0 * 2**20

    @pytest.mark.parametrize("protocol,n,mode,db", [
        ("kerenidis", 2, "coherent-reference", None),
        ("kerenidis", 2, "classical-per-a", (1, 0)),
        ("kerenidis", 4, "coherent-reference", None),
        ("kerenidis", 4, "classical-per-a", (0, 1, 1, 0)),
        ("send-db", 2, "classical-per-a", (1, 0)),
        ("send-index", 2, "classical-per-a", (1, 0))])
    def test_uhlmann_unitaries_equal_the_dense_reference(self, monkeypatch, protocol, n,
                                                         mode, db):
        # every attack behind scripts/figures.py: the support read of run 1
        # and run i must give the dense path's unitary bit for bit
        inner, pairs = bounds.uhlmann_unitary, []

        def recorded(phi, psi, side):
            pairs.append((phi, psi, side))
            return inner(phi, psi, side)
        monkeypatch.setattr(bounds, "uhlmann_unitary", recorded)
        inst = build_kerenidis(n) if protocol == "kerenidis" else build_baseline(protocol, n)
        extraction_attack(inst, mode, database=db)
        assert len(pairs) == n - 1
        for phi, psi, side in pairs:
            try:
                slow = dense_uhlmann(to_pure(phi), to_pure(psi), side)
            except UhlmannPreconditionError:
                with pytest.raises(UhlmannPreconditionError):
                    inner(phi, psi, side)
                continue
            assert np.array_equal(inner(phi, psi, side), slow)

    def test_coherent_attack_makes_no_dense_pure_state(self, monkeypatch):
        layouts, finals = [], []
        post, inner = PureState.__post_init__, bounds.uhlmann_unitary
        monkeypatch.setattr(PureState, "__post_init__",
                            lambda state: layouts.append(state.layout) or post(state))
        monkeypatch.setattr(bounds, "uhlmann_unitary",
                            lambda phi, psi, side: finals.append(phi.layout)
                            or inner(phi, psi, side))
        extraction_attack(build_kerenidis(4), "coherent-reference")
        assert len(finals) == 3 and layouts  # the inputs are PureStates
        assert not hasattr(Ensemble, "to_pure")  # the dense reader is the tests' to_pure
        run = sorted(finals[0].registers)
        assert [lay for lay in layouts if sorted(lay.registers) == run] == []

    def test_first_drift_is_the_certified_distance(self, monkeypatch):
        # bit 1 is measured on sigma_1 itself, so gentle measurement has
        # already computed its drift: 4 certificates and 3 further drifts
        calls = []
        inner = bounds.trace_distance
        monkeypatch.setattr(bounds, "trace_distance",
                            lambda rho, sigma: calls.append(None) or inner(rho, sigma))
        extraction_attack(build_kerenidis(4), "coherent-reference")
        assert len(calls) == 7

    def test_coherent_needs_quantum_path(self):
        inst = build_kerenidis(2, database=(0, 1))
        with pytest.raises(ValueError):
            extraction_attack(inst, "coherent-reference")

    def test_coherent_reference_rejects_a_database(self):
        # the mode runs on the database superposition, so a database given
        # to it is refused rather than ignored
        with pytest.raises(ValueError, match="coherent-reference"):
            extraction_attack(build_kerenidis(2), "coherent-reference", database=(1, 0))


class TestChainRule:
    def test_send_db(self):
        inst = build_baseline("send-db", 2)
        tr = extraction_attack(inst, "classical-per-a", database=(1, 1))
        rep = chain_rule_check(inst, tr)
        assert rep.entropy_drop == 2  # min{2*2, 2+0}
        assert rep.ceiling == pytest.approx(1.0)
        assert rep.consistent

    def test_send_index(self):
        inst = build_baseline("send-index", 2)
        tr = extraction_attack(inst, "classical-per-a", database=(1, 1))
        rep = chain_rule_check(inst, tr)
        assert rep.entropy_drop == 2  # min{2*1, 1+1}
        assert rep.ceiling == pytest.approx(1.0)
        assert rep.attack_success == pytest.approx(0.5)
        assert rep.consistent

    def test_kerenidis_n4_folded_report(self):
        inst = build_kerenidis(4)
        tr = extraction_attack(inst, "classical-per-a", database=(0, 1, 1, 0))
        rep = chain_rule_check(inst, tr)
        # folded bill: m_A untouched, m_B charged for the 3 setup qubits
        assert (rep.m_a, rep.m_b) == (5, 7)
        assert rep.entropy_drop == 10
        assert rep.consistent

    def test_kerenidis_coherent_consistency(self):
        inst = build_kerenidis(2)
        tr = extraction_attack(inst, "coherent-reference")
        assert chain_rule_check(inst, tr).consistent


class TestClosedForms:
    def test_nayak_trivial_cases(self):
        assert nayak_bound(0.0, 0.0, 16) == pytest.approx(16.0)
        assert nayak_bound(0.5, 0.0, 7) == pytest.approx(0.0)

    def test_nayak_numeric(self):
        assert nayak_bound(0.01, 0.0, 100) == pytest.approx(91.92068641040888, abs=1e-9)

    def test_nayak_out_of_range_flagged(self):
        assert nayak_argument(0.0, 1.0) < 0
        assert nayak_bound(0.0, 1.0, 10) == 0.0

    def test_reconstruction_bound(self):
        assert reconstruction_bound(5, 0.0, 0.0) == pytest.approx(1.0)
        assert reconstruction_bound(5, 1.0, 0.0) == pytest.approx(0.0)
        premise = reconstruction_bound(10, 1e-4 / 100, 1e-8 / 100)
        assert premise > 0.5

    def test_epsilon_prime_identity_grid(self):
        for eps in np.linspace(0.0, 0.5, 201):
            tilde = 2.0 * eps
            assert abs(epsilon_prime(eps) - math.sqrt(tilde * (2.0 - tilde))) <= 1e-12

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
