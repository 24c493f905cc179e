"""Distances and closeness lemmas used by the analyses.

Trace-norm convention: throughout this package the trace distance is the
HALVED norm, ``D(rho, sigma) = (1/2) tr sqrt((rho-sigma)^dagger (rho-sigma))``,
i.e. half the sum of singular values of the difference.  Many libraries omit
the 1/2; every bound quoted in this package (``sqrt(eps (2 - eps))``,
``eps + 3 sqrt(2 gamma)``, gentle-measurement certificates) is stated in the
halved convention, so the factor matters.

For pure states the halved distance reduces to
``sqrt(1 - |<a|b>|^2)``.

Every density operator keeps a compressed factor ``F`` with
``rho = F F^dagger`` (see :class:`~qpirlab.states.DensityOperator`),
compressed one support component at a time and keeping those components;
eigenvalues at or below 1e-14 are cut, so at most rank x 1e-14 of trace is
dropped.  ``rho - sigma`` is block-diagonal over the components of
``[F G]``'s nonzero pattern, so ``trace_distance`` is a sum over
components, each taken in the span of its block's columns; it finds them
by merging the two operators' own components where they share a row.
"""

from __future__ import annotations

import math

import numpy as np

from .config import check_reduced_cap
from .states import (DensityOperator, LayoutError, PureState, RegisterLayout, StateError, _grouped,
                     hermitize, slots_to_front)

__all__ = [
    "partial_trace",
    "gram_reduce",
    "trace_distance",
    "pure_trace_distance",
    "ensemble_trace_distance",
    "paired_distances",
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
    density operator is materialized (see :class:`DensityOperator`).
    """
    keep_slots = layout.ordered_slots(keep)
    k = len(keep_slots)
    check_reduced_cap(k)
    t = slots_to_front(vectors, layout.total_qubits, keep_slots)
    # F is (2**k, B * rest); branch b fills columns [b * rest, (b + 1) * rest)
    f = t.transpose(1, 0, 2).reshape(1 << k, -1)
    return DensityOperator(1 << k, f)


def partial_trace(state: PureState, keep) -> DensityOperator:
    """Trace out everything but ``keep`` (kept registers in layout order)."""
    return gram_reduce(state.amplitudes[None], state.layout, state.layout.subset(keep).names)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Halved trace distance between two density operators.

    ``rho - sigma = W S W^dagger`` with ``W = [F G]`` the two factors side by
    side and ``S`` the column signs (+1 for ``F``, -1 for ``G``).  The
    difference is block-diagonal over the connected components of ``W``'s
    nonzero pattern, so the distance is the sum over components of half the
    absolute eigenvalues of ``R S R^dagger``, with ``R`` the QR factor of the
    component's block of ``W``, as in :func:`ensemble_trace_distance`.

    ``W``'s components are the two operators' own
    (``DensityOperator.components``) merged where they share a row
    (:func:`_merged_labels`), and are grouped by shape by
    ``states._grouped``, as a labelling of ``W`` itself would be.  Each block
    is gathered from ``F`` and ``G``; ``W`` is formed only when one
    component covers it.  Components of one shape share one stacked ``qr``
    and ``eigvalsh``; a ``W`` with no zero entry is one component.
    """
    if rho.dimension != sigma.dimension:
        raise StateError(
            f"dimension mismatch: {rho.dimension} vs {sigma.dimension}"
        )
    d, f, g = rho.dimension, rho.factor, sigma.factor
    (rho_rows, rho_cols), (sigma_rows, sigma_cols) = rho.components, sigma.components
    label = _merged_labels(rho_rows, sigma_rows, d)
    row_labels = np.minimum(label[rho_rows], label[sigma_rows])
    col_labels = label[np.concatenate([rho_cols, sigma_cols])]
    rows, cols = np.flatnonzero(row_labels < d), np.flatnonzero(col_labels < d)
    signs = np.repeat([1.0, -1.0], [f.shape[1], g.shape[1]])
    return sum(float(np.sum(_half_spectrum(_pair_blocks(f, g, rows, cols), signs[cols])))
               for rows, cols in _grouped(rows, row_labels[rows], cols, col_labels[cols]))


def _merged_labels(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """A ``(d + 1,)`` table from each component label of two row labellings
    ``a`` and ``b`` of ``d`` rows (``d`` for a row in no component) to the
    first row of the union of the components linked to it by shared rows.

    A label is its component's first row, so the nodes are the two
    operators' component labels and each row in both labellings an edge;
    min-label propagation with shortcuts takes every node to the least
    label linked to it.  Other entries, ``d`` among them, map to themselves.
    """
    both = (a < d) & (b < d)
    u, v = a[both], b[both]
    table = np.arange(d + 1)
    while True:
        new = table.copy()
        np.minimum.at(new, u, table[v])
        np.minimum.at(new, v, table[u])
        new = new[new]
        if np.array_equal(new, table):
            return table
        table = new


def _pair_blocks(f: np.ndarray, g: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The ``(n, r, c)`` stack of one group of ``[f g]``, whose columns
    ``cols`` number ``f``'s first, gathered from ``f`` and ``g``; ``[f g]``
    itself when the group is one component covering it."""
    k = f.shape[1]
    if rows.shape == (1, len(f)) and cols.shape == (1, k + g.shape[1]):
        return np.concatenate([f, g], axis=1)[None]
    at_f, at_g = np.minimum(cols, k - 1)[:, None, :], np.maximum(cols - k, 0)[:, None, :]
    out = f[rows[:, :, None], at_f]
    np.copyto(out, g[rows[:, :, None], at_g], where=(cols >= k)[:, None, :])
    return out


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


def ensemble_trace_distance(stack: np.ndarray, n_a: int) -> np.ndarray:
    """Halved trace distances between sum(a a^dagger) and sum(b b^dagger)
    for a stack of ``K`` pairs, given as one ``(K, n_a + n_b, d)`` array of
    their ``[a b]`` rows and the count ``n_a``.

    Works in the span of the branch vectors, so it stays cheap for low-rank
    states over large layouts: the ``K`` figures come from one stacked
    ``qr`` and ``eigvalsh``, each equal to the figure of its pair alone.
    """
    signs = np.repeat([1.0, -1.0], [n_a, stack.shape[1] - n_a])
    return _half_spectrum(stack.mT, signs).sum(axis=-1)


def paired_distances(pairs) -> list[float]:
    """The halved trace distance between sum(x x^dagger) and
    sum(y y^dagger) for each ``(x, y)`` pair of ``(B, d)`` branch arrays of
    ``pairs``, in order: the pairs with the same two shapes are written into
    one ``[x y]`` stack and measured in one :func:`ensemble_trace_distance`."""
    by_shape: dict[tuple, list[int]] = {}
    for k, (x, y) in enumerate(pairs):
        by_shape.setdefault((x.shape, y.shape), []).append(k)
    out = np.empty(len(pairs))
    for ((n_x, d), (n_y, _)), ks in by_shape.items():
        stack = np.empty((len(ks), n_x + n_y, d), dtype=np.complex128)
        for rows, k in zip(stack, ks):
            rows[:n_x], rows[n_x:] = pairs[k]
        out[ks] = ensemble_trace_distance(stack, n_x)
    return out.tolist()


def _half_spectrum(w: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Half the absolute eigenvalues of ``W S W^dagger``, per matrix of a
    stack; each matrix's sum is its halved trace norm.

    ``W`` is a ``(..., d, k)`` matrix or stack of matrices and ``signs`` the
    matching ``(..., k)`` diagonal of ``S``.  The eigenvalues are taken in
    the span of ``W``'s columns: with ``R`` the QR factor of ``W``, they are
    those of ``R S R^dagger``.  The caller sums them, per matrix or over a
    whole stack.
    """
    r = np.linalg.qr(w, mode="r")
    g = hermitize((r * signs[..., None, :]) @ r.conj().mT)
    return 0.5 * np.abs(np.linalg.eigvalsh(g))


class UhlmannPreconditionError(ValueError):
    """The two marginals are (numerically) perfectly distinguishable."""


def _side_names(layout: RegisterLayout, side) -> tuple[list[str], list[str]]:
    """The off-``side`` and ``side`` register names, each in layout order."""
    side_set = set(side)
    missing = side_set - set(layout.names)
    if missing:
        raise LayoutError(f"unknown side registers {sorted(missing)}")
    a_names = [n for n in layout.names if n not in side_set]
    b_names = [n for n in layout.names if n in side_set]
    if not a_names or not b_names:
        raise LayoutError("both sides of the split must be nonempty")
    return a_names, b_names


def _split_matrix(state: PureState, side) -> tuple[np.ndarray, list[str], list[str]]:
    a_names, b_names = _side_names(state.layout, side)
    ordered = state.reordered(a_names + b_names)
    d_b = 1 << sum(state.layout.width(n) for n in b_names)
    return ordered.amplitudes.reshape(-1, d_b), a_names, b_names


def _rescaled(value: np.ndarray) -> np.ndarray:
    # the PureState constructor's rescale, over every entry in memory order
    return value / np.sqrt(float(np.vdot(value, value).real))


def _pure_support(state) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and amplitudes of the nonzero entries of a ``PureState``
    or a one-branch ``Ensemble``, scaled as the whole dense state was: an
    ensemble's by ``np.linalg.norm`` and a ``vdot`` rescale (``to_pure`` of
    ``tests/span_reference.py``).  A reader that reorders the registers
    rescales the matrix it fills, as ``PureState.reordered`` did."""
    if isinstance(state, PureState):
        index = np.flatnonzero(state.amplitudes)
        return index, state.amplitudes[index]
    if len(state.vectors) != 1:
        raise StateError(f"ensemble has {len(state.vectors)} branches, not pure")
    value = state.vectors.value
    return state.vectors.index, _rescaled(value / np.linalg.norm(value))


def uhlmann_unitary(phi, psi, side) -> np.ndarray:
    """Unitary on the ``side`` registers maximizing |<phi| (I (x) U) |psi>|,
    for two ``PureState`` objects or one-branch ensembles over the same
    registers.

    Returns the matrix of U in the basis given by the big-endian
    concatenation of the ``side`` registers in ``phi``'s layout order.  With
    marginals (off ``side``) at halved trace distance eps < 1, the rotated
    state satisfies ``D(phi, (I (x) U) psi) <= sqrt(eps (2 - eps))``.

    Both states are read on their support (:func:`_pure_support`): each
    entry's index splits (``RegisterLayout.labels``) into an off-side row
    and a side column label, and the union of the two states' nonzero rows,
    ascending, fills two ``(rows, d_b)`` matrices, each rescaled over its
    entries in that order, as ``PureState.reordered`` rescaled the dense
    reordered state.  The rows left out are zero in both, so the overlap
    handed to the SVD is that of the dense reordered states bit for bit, and
    LAPACK returns the same completion.

    Rank-deficient overlaps are completed to a full unitary through the
    singular-value decomposition, which pairs the orthogonal complements in
    descending singular-value order.  Any completion satisfies the bound;
    this one pairs whatever bases of the null spaces LAPACK returns, which
    are not unique and may differ across LAPACK builds.
    """
    a_names, b_names = _side_names(phi.layout, side)
    if sorted(psi.layout.registers) != sorted(phi.layout.registers):
        raise LayoutError(f"layouts hold different registers: {phi.layout.names} vs "
                          f"{psi.layout.names}")
    split = []
    for state in (phi, psi):
        (index, value), lay = _pure_support(state), state.layout
        split.append((lay.labels(index, a_names), lay.labels(index, b_names), value))
    rows = np.union1d(split[0][0], split[1][0])
    mat_phi, mat_psi = np.zeros((2, len(rows), 1 << sum(phi.layout.width(n) for n in b_names)),
                                dtype=np.complex128)
    for mat, (row, col, value) in zip((mat_phi, mat_psi), split):
        mat[np.searchsorted(rows, row), col] = value
    mat_phi, mat_psi = _rescaled(mat_phi), _rescaled(mat_psi)  # as PureState.reordered
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


def trace_in_extraction(alpha, phi) -> tuple[PureState, float]:
    """Split off the non-``phi`` part of a nearly-product pure state.

    ``alpha`` and ``phi`` are each a ``PureState`` or a one-branch
    ``Ensemble``.  ``phi``'s registers name the X side; the remaining
    registers of ``alpha`` form Y.  Projects X onto ``phi`` and
    renormalizes, returning the pure state ``beta`` on Y together with the
    certified bound ``sqrt(eps)`` where ``eps`` is the measured distance of
    ``alpha``'s X marginal from ``phi``; the product ``phi (x) beta`` is
    then within ``sqrt(eps)`` of ``alpha``.

    Both are read on their support (:func:`_pure_support`): ``alpha``'s
    entries, split by ``RegisterLayout.labels`` into an X row (``phi``'s
    register order) and a Y column, fill the ``(X, Y)`` factor of
    its X marginal, which is rescaled as ``PureState.reordered`` rescaled
    the dense state and projected, so the figures keep their bits."""
    lay = alpha.layout
    y_names = [n for n in lay.names if not phi.layout.has(n)]
    if not y_names:
        raise LayoutError("alpha has no registers beyond those of phi")
    if any(lay.width(n) != w for n, w in phi.layout.registers):
        raise LayoutError(f"layouts hold different registers: {phi.layout.names} vs {lay.names}")
    x_width = phi.layout.total_qubits
    check_reduced_cap(x_width)
    (index, value), (phi_index, phi_value) = _pure_support(alpha), _pure_support(phi)
    factor = np.zeros((1 << x_width, lay.dim >> x_width), dtype=np.complex128)
    factor[lay.labels(index, phi.layout.names), lay.labels(index, y_names)] = value
    phi_vec = np.zeros(len(factor), dtype=np.complex128)
    phi_vec[phi_index] = phi_value
    proj = phi_vec.conj() @ _rescaled(factor)
    p0 = float(np.vdot(proj, proj).real)
    if p0 < 1e-14:
        raise StateError("projection probability is 0; the X marginal is orthogonal to phi")
    beta_layout = RegisterLayout(tuple((n, lay.width(n)) for n in y_names))
    beta = PureState.from_vector(beta_layout, proj / math.sqrt(p0))
    eps = trace_distance(DensityOperator(len(factor), factor), DensityOperator.from_pure(phi_vec))
    return beta, math.sqrt(max(eps, 0.0))
