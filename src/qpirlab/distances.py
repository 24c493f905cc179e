"""Distances, purifications and closeness lemmas used by the analyses.

Trace-norm convention: throughout this package the trace distance is the
HALVED norm, ``D(rho, sigma) = (1/2) tr sqrt((rho-sigma)^dagger (rho-sigma))``,
i.e. half the sum of singular values of the difference.  Many libraries omit
the 1/2; every bound quoted in this package (``sqrt(eps (2 - eps))``,
``eps + 3 sqrt(2 gamma)``, gentle-measurement certificates) is stated in the
halved convention, so the factor matters.

For pure states the halved distance reduces to
``sqrt(1 - |<a|b>|^2)``.

Density operators built from branch vectors (``gram_reduce``,
``DensityOperator.from_pure`` / ``from_ensemble``) keep a factor ``F`` with
``rho = F F^dagger`` when their rank is below half the dimension; eigenvalues
at or below 1e-14 are cut, so at most rank x 1e-14 of trace is dropped.
``trace_distance`` of two such operators works in the span of the factors.
"""

from __future__ import annotations

import math

import numpy as np

from .config import check_reduced_cap
from .states import (DensityOperator, LayoutError, PureState, RegisterLayout, StateError, hermitize,
                     slots_to_front)

__all__ = [
    "partial_trace",
    "gram_reduce",
    "trace_distance",
    "pure_trace_distance",
    "ensemble_trace_distance",
    "purify",
    "uhlmann_unitary",
    "UhlmannPreconditionError",
    "trace_in_extraction",
]


def gram_reduce(vectors: np.ndarray, layout: RegisterLayout, keep) -> DensityOperator:
    """Reduced density operator on ``keep`` from a ``(B, dim)`` array of
    unnormalized pure branches.

    The basis is the big-endian concatenation of the ``keep`` registers in
    the order given.  Each branch, viewed as a ``(2**k, rest)`` matrix, is a
    block of columns of one factor ``F`` with ``rho = F F^dagger``; no global
    density operator is materialized, and a low-rank result keeps its factor
    (see :class:`DensityOperator`).
    """
    keep_slots = layout.ordered_slots(keep)
    k = len(keep_slots)
    check_reduced_cap(k)
    t = slots_to_front(vectors, layout.total_qubits, keep_slots)
    # F is (2**k, B * rest); branch b fills columns [b * rest, (b + 1) * rest)
    f = t.transpose(1, 0, 2).reshape(1 << k, -1)
    return DensityOperator(1 << k, f, factored=True)


def partial_trace(state: PureState, keep) -> DensityOperator:
    """Trace out everything but ``keep`` (kept registers in layout order)."""
    return gram_reduce(state.amplitudes[None], state.layout, state.layout.subset(keep).names)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Halved trace distance between two density operators.

    When both operands keep a factor (rank below half the dimension) and
    their ranks sum to less than the dimension, the distance is taken in the
    span of the two factors by :func:`ensemble_trace_distance`.  Otherwise
    it is half the absolute eigenvalue sum of the dense difference, which is
    also the reference the factored path is tested against.
    """
    if rho.dimension != sigma.dimension:
        raise StateError(
            f"dimension mismatch: {rho.dimension} vs {sigma.dimension}"
        )
    fa, fb = rho.factor, sigma.factor
    if fa is not None and fb is not None and fa.shape[1] + fb.shape[1] < rho.dimension:
        return ensemble_trace_distance(fa.T, fb.T)
    diff = hermitize(rho.matrix - sigma.matrix)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _as_vector(state) -> np.ndarray:
    return state.amplitudes if isinstance(state, PureState) else np.asarray(state, dtype=np.complex128)


def pure_trace_distance(a, b) -> float:
    """Halved trace distance of two pure states, sqrt(1 - |<a|b>|^2).

    Accepts ``PureState`` objects (aligned by register name) or raw vectors.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        ov = abs(a.overlap(b))
    else:
        va, vb = _as_vector(a), _as_vector(b)
        ov = abs(np.vdot(va, vb))
    return math.sqrt(max(0.0, 1.0 - min(ov, 1.0) ** 2))


def ensemble_trace_distance(vectors_a, vectors_b) -> float:
    """Halved trace distance between sum(a a^dagger) and sum(b b^dagger).

    Works in the span of the branch vectors, so it stays cheap for low-rank
    states over large layouts.
    """
    a, b = (np.asarray(v, dtype=np.complex128) for v in (vectors_a, vectors_b))
    if len(a) + len(b) == 0:
        return 0.0
    w = np.vstack([m for m in (a, b) if len(m)]).T
    signs = np.repeat([1.0, -1.0], [len(a), len(b)])
    r = np.linalg.qr(w, mode="r")
    g = hermitize((r * signs) @ r.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(g))))


_RANK_TOL = 1e-12


def purify(rho: DensityOperator) -> PureState:
    """A purification of ``rho`` by eigendecomposition, over the registers
    ``system`` and ``purifier``.

    The purifying register has width ``ceil(log2(rank))`` and is omitted
    entirely for rank-one states (layouts do not carry width-0 registers).
    """
    n_sys = rho.dimension.bit_length() - 1
    if 1 << n_sys != rho.dimension:
        raise StateError(f"dimension {rho.dimension} is not a power of two")
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = max(1, int(np.sum(evals > _RANK_TOL)))
    width = max(1, rank - 1).bit_length() if rank > 1 else 0
    if width == 0:
        layout = RegisterLayout((("system", n_sys),))
        return PureState.from_vector(layout, evecs[:, 0], normalize=True)
    layout = RegisterLayout((("system", n_sys), ("purifier", width)))
    amps = np.zeros((rho.dimension, 1 << width), dtype=np.complex128)
    for j in range(rank):
        amps[:, j] = math.sqrt(max(evals[j], 0.0)) * evecs[:, j]
    return PureState.from_vector(layout, amps.reshape(-1), normalize=True)


class UhlmannPreconditionError(ValueError):
    """The two marginals are (numerically) perfectly distinguishable."""


def _split_matrix(state: PureState, side) -> tuple[np.ndarray, list[str], list[str]]:
    side_set = set(side)
    missing = side_set - set(state.layout.names)
    if missing:
        raise LayoutError(f"unknown side registers {sorted(missing)}")
    a_names = [n for n in state.layout.names if n not in side_set]
    b_names = [n for n in state.layout.names if n in side_set]
    if not a_names or not b_names:
        raise LayoutError("both sides of the split must be nonempty")
    ordered = state.reordered(a_names + b_names)
    d_b = 1 << sum(state.layout.width(n) for n in b_names)
    return ordered.amplitudes.reshape(-1, d_b), a_names, b_names


def uhlmann_unitary(phi: PureState, psi: PureState, side) -> np.ndarray:
    """Unitary on the ``side`` registers maximizing |<phi| (I (x) U) |psi>|.

    Returns the matrix of U in the basis given by the big-endian
    concatenation of the ``side`` registers in ``phi``'s layout order.  With
    marginals (off ``side``) at halved trace distance eps < 1, the rotated
    state satisfies ``D(phi, (I (x) U) psi) <= sqrt(eps (2 - eps))``.

    Rank-deficient overlaps are completed to a full unitary through the
    singular-value decomposition, which pairs the orthogonal complements in
    descending singular-value order; any completion satisfies the bound and
    this one is deterministic.
    """
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


def apply_side_unitary(state: PureState, u: np.ndarray, side) -> PureState:
    """Apply a unitary over the ``side`` registers (layout-order basis)."""
    mat, a_names, b_names = _split_matrix(state, side)
    rotated = mat @ u.T
    ordered_layout = RegisterLayout(tuple((n, state.layout.width(n)) for n in a_names + b_names))
    return PureState.from_vector(ordered_layout, rotated.reshape(-1)).reordered(state.layout.names)


def trace_in_extraction(alpha: PureState, phi: PureState) -> tuple[PureState, float]:
    """Split off the non-``phi`` part of a nearly-product pure state.

    ``phi``'s registers name the X side; the remaining registers of
    ``alpha`` form Y.  Projects X onto ``phi`` and renormalizes, returning
    the pure state ``beta`` on Y together with the certified bound
    ``sqrt(eps)`` where ``eps`` is the measured distance of ``alpha``'s X
    marginal from ``phi``; the product ``phi (x) beta`` is then within
    ``sqrt(eps)`` of ``alpha``.
    """
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
        raise StateError(
            "projection probability is 0; the X marginal is orthogonal to phi"
        )
    beta_layout = RegisterLayout(tuple((n, alpha.layout.width(n)) for n in y_names))
    beta = PureState.from_vector(beta_layout, proj / math.sqrt(p0))
    eps = trace_distance(gram_reduce(alpha.amplitudes[None], alpha.layout, x_names),
                         DensityOperator.from_pure(phi_vec))
    return beta, math.sqrt(max(eps, 0.0))
