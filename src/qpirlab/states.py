"""Multi-register pure states and density operators.

Index convention (used everywhere in this package): the amplitude index of a
basis state is the big-endian concatenation of the per-register basis labels
in declaration order.  Within a register of width ``w``, bit ``j`` of the
label is qubit ``j``, reading the label as a ``w``-character bit string
(so label ``0b10`` of a 2-qubit register sets qubit 0 and clears qubit 1).
Equivalently, the flat amplitude array reshaped to ``[2] * total_qubits``
has one axis per qubit slot, most significant first: slot ``s`` is bit
``total_qubits - 1 - s`` of the flat index.  This module alone writes the
convention down.  Flat indices are read through :meth:`RegisterLayout.bit`
and :meth:`RegisterLayout.labels`, dense arrays through
:func:`slots_to_front` and built through :meth:`RegisterLayout.basis_index`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import STATE_ATOL, check_cap

__all__ = [
    "LayoutError",
    "StateError",
    "RegisterLayout",
    "PureState",
    "DensityOperator",
]


# Branches with squared norm at or below this are dropped wherever branches
# multiply: measurement outcomes, Kraus outputs and traced-out labels.
BRANCH_PRUNE = 1e-24


def slots_to_front(vectors: np.ndarray, total: int, slots) -> np.ndarray:
    """View a ``(B, 2**total)`` branch array as ``(B, 2**k, rest)``.

    Row ``r`` of branch ``b`` holds the amplitudes whose bits at the ``k``
    qubit ``slots`` spell ``r`` big-endian, in the order the slots are
    given; the columns keep the remaining slots in layout order.
    """
    b, k = len(vectors), len(slots)
    t = np.moveaxis(vectors.reshape([b] + [2] * total), [s + 1 for s in slots], range(1, k + 1))
    return t.reshape(b, 1 << k, 1 << (total - k))


def slots_from_front(mat: np.ndarray, slots) -> np.ndarray:
    """Inverse of :func:`slots_to_front`: a contiguous ``(B, dim)`` array
    whose row bits return to ``slots``.

    The row count may exceed the one it was taken with; slots at or past the
    input width then name qubits appended to the layout.
    """
    b = mat.shape[0]
    total = (mat.shape[1] * mat.shape[2]).bit_length() - 1
    t = np.moveaxis(mat.reshape([b] + [2] * total), range(1, len(slots) + 1),
                    [s + 1 for s in slots])
    return np.ascontiguousarray(t).reshape(b, 1 << total)


def slot_weights(vectors: np.ndarray, total: int, slots) -> np.ndarray:
    """``(B, 2**k)`` squared norms of the rows of
    ``slots_to_front(vectors, total, slots)``.  The amplitudes are squared
    before they are moved, so the move copies real numbers only."""
    return slots_to_front(np.abs(vectors) ** 2, total, slots).sum(axis=2)


def nonzero_rows(weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row-major indices of the branch ``weights`` (squared norms) above
    :data:`BRANCH_PRUNE`; the lighter branches are dropped."""
    return np.nonzero(weights > BRANCH_PRUNE)


def marginal(vectors: np.ndarray, layout: RegisterLayout, names) -> np.ndarray:
    """Outcome distribution of ``names`` summed over the ``(B, dim)`` pure
    branches ``vectors`` on ``layout``, indexed big-endian in the given name
    order."""
    return slot_weights(vectors, layout.total_qubits, layout.ordered_slots(names)).sum(axis=0)


class LayoutError(ValueError):
    """Register layout is malformed or a named register is missing."""


class StateError(ValueError):
    """A state object violates its invariants beyond tolerance."""


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, named qubit registers backing one amplitude array.

    The layout is frozen, so its qubit count, dimension, names and register
    table (``{name: (first slot, width)}``) are worked out once, when it is
    built; every lookup reads the table.  Two readers carry the index
    convention to flat indices, and no other code in the package maps a
    qubit slot to a bit: :meth:`bit` (the bit of one qubit) and
    :meth:`labels` (the label a set of registers spells)."""

    registers: tuple[tuple[str, int], ...]
    total_qubits: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _table: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        registers = tuple((str(n), int(w)) for n, w in self.registers)
        names = tuple(n for n, _ in registers)
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {list(names)}")
        table, total = {}, 0
        for name, width in registers:
            if width < 1:
                raise LayoutError(f"register {name!r} has width {width}, must be >= 1")
            table[name] = (total, width)
            total += width
        check_cap(total, what="layout")
        for key, value in (("registers", registers), ("total_qubits", total), ("dim", 1 << total),
                           ("names", names), ("_table", table)):
            object.__setattr__(self, key, value)

    def _entry(self, name: str) -> tuple[int, int]:
        if name not in self._table:
            raise LayoutError(f"no register named {name!r} in {self.names}")
        return self._table[name]

    def _entries(self, names) -> list[tuple[int, int]]:
        """``(first slot, width)`` of each name; repeated or unknown names raise."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise LayoutError(f"register names {names} repeat")
        return [self._entry(n) for n in names]

    def width(self, name: str) -> int:
        return self._entry(name)[1]

    def has(self, name: str) -> bool:
        return name in self._table

    def offset(self, name: str) -> int:
        """Qubit slot of the register's first (most significant) qubit."""
        return self._entry(name)[0]

    def qubit(self, name: str, j: int) -> int:
        """Global qubit slot of qubit ``j`` of register ``name``."""
        off, w = self._entry(name)
        if not 0 <= j < w:
            raise LayoutError(f"qubit {j} out of range for {name!r} (width {w})")
        return off + j

    def bit(self, name: str, j: int) -> int:
        """Flat-index bit of qubit ``j`` of register ``name``: slot ``s`` is
        bit ``total_qubits - 1 - s``."""
        return self.total_qubits - 1 - self.qubit(name, j)

    def labels(self, index, names):
        """The big-endian label of ``names``, register by register in the
        given order, at each flat ``index`` (an integer array or an int): a
        register's qubits are consecutive bits, so one shift and one mask
        each.  Names are refused as :meth:`ordered_slots` refuses them."""
        out = index & 0
        for off, w in self._entries(names):
            out = (out << w) | ((index >> (self.total_qubits - off - w)) & ((1 << w) - 1))
        return out

    def slots(self, names) -> list[int]:
        """Global qubit slots covered by ``names``, in layout order."""
        return self.ordered_slots(sorted(self._known(names), key=self.offset))

    def ordered_slots(self, names) -> list[int]:
        """Global qubit slots of ``names``, register by register in the
        given order."""
        return [off + j for off, w in self._entries(names) for j in range(w)]

    def _known(self, names) -> set[str]:
        wanted = set(names)
        missing = wanted - self._table.keys()
        if missing:
            raise LayoutError(f"unknown registers {sorted(missing)}")
        return wanted

    def subset(self, names) -> "RegisterLayout":
        """Sub-layout of ``names`` in declaration order."""
        wanted = self._known(names)
        return RegisterLayout(tuple((n, w) for n, w in self.registers if n in wanted))

    def without(self, names) -> "RegisterLayout":
        drop = self._known(names)
        return RegisterLayout(tuple((n, w) for n, w in self.registers if n not in drop))

    def extended(self, new_registers) -> "RegisterLayout":
        return RegisterLayout(self.registers + tuple(new_registers))

    def basis_index(self, assignment: dict[str, int] | None = None) -> int:
        """Flat amplitude index of the basis state with the given labels.

        Registers absent from ``assignment`` default to label 0.
        """
        assignment = assignment or {}
        for name in assignment:
            self.width(name)
        idx = 0
        for n, w in self.registers:
            label = int(assignment.get(n, 0))
            if not 0 <= label < (1 << w):
                raise LayoutError(f"label {label} out of range for {n!r} (width {w})")
            idx = (idx << w) | label
        return idx


def _as_amplitudes(amplitudes, dim: int) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (dim,):
        raise StateError(f"amplitude array has shape {amps.shape}, expected ({dim},)")
    return amps


@dataclass(frozen=True)
class PureState:
    """A unit-norm amplitude array over a register layout.

    Amplitudes are copied on construction, renormalized (drift must stay
    within 1e-10 of unit squared norm) and frozen.
    """

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_amplitudes(self.amplitudes, self.layout.dim).copy()
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > STATE_ATOL:
            raise StateError(f"squared norm {norm2!r} is not 1 within {STATE_ATOL}")
        amps /= np.sqrt(norm2)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def __repr__(self):  # amplitude dumps are never useful in tracebacks
        return f"PureState(layout={self.layout.registers})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def basis(cls, layout: RegisterLayout, assignment: dict[str, int] | None = None) -> "PureState":
        amps = np.zeros(layout.dim, dtype=np.complex128)
        amps[layout.basis_index(assignment)] = 1.0
        return cls(layout, amps)

    @classmethod
    def from_vector(cls, layout: RegisterLayout, vector, normalize: bool = False) -> "PureState":
        amps = _as_amplitudes(vector, layout.dim)
        if normalize:
            n = np.linalg.norm(amps)
            if n < 1e-150:
                raise StateError("cannot normalize the zero vector")
            amps = amps / n
        return cls(layout, amps)

    def tensor(self, other: "PureState") -> "PureState":
        """Product state; ``other``'s registers are appended to the layout."""
        layout = self.layout.extended(other.layout.registers)
        amps = np.multiply.outer(self.amplitudes, other.amplitudes).reshape(-1)
        return PureState(layout, amps)

    # -- views and helpers --------------------------------------------------

    def aligned_to(self, layout: RegisterLayout) -> np.ndarray:
        """Amplitudes permuted to another ordering of the same registers."""
        if layout.registers == self.layout.registers:
            return self.amplitudes
        if sorted(layout.registers) != sorted(self.layout.registers):
            raise LayoutError(
                f"layouts hold different registers: {self.layout.names} vs {layout.names}"
            )
        perm = self.layout.ordered_slots(layout.names)
        return slots_to_front(self.amplitudes[None], self.layout.total_qubits, perm).reshape(-1)

    def reordered(self, names) -> "PureState":
        target = RegisterLayout(tuple((n, self.layout.width(n)) for n in names))
        return PureState(target, self.aligned_to(target))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>; both must hold the same registers."""
        return complex(np.vdot(self.amplitudes, other.aligned_to(self.layout)))

    def probabilities(self, names) -> np.ndarray:
        """Marginal outcome distribution of ``names``, indexed big-endian in
        the given name order."""
        return marginal(self.amplitudes[None], self.layout, names)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize before eigen-solving, as (M + M^dagger) / 2, over the last
    two axes of a matrix or a stack of matrices."""
    return 0.5 * (m + m.conj().mT)


def _support_labels(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's and each column's component label in the nonzero pattern
    of a ``(d, k)`` array: the first row of its connected component, or
    ``d`` for a line with no nonzero.

    Row ``i`` and column ``j`` are linked when ``f[i, j] != 0``.  An array
    with no zero entry is one component, labelled 0.
    """
    nz = f != 0
    d, k = nz.shape
    if nz.all():
        return np.zeros(d, dtype=np.int64), np.zeros(k, dtype=np.int64)
    # Min-label propagation over the boolean support, by masked reductions
    # that allocate nothing per entry: every column takes the least label of
    # its rows, every row the least label of its columns and then its
    # label's own label, until no label moves; a label is then the first row
    # of its component.  The initial value d marks a line with no nonzero.
    lab = np.arange(d)
    while True:
        col_lab = np.minimum.reduce(np.broadcast_to(lab[:, None], nz.shape), axis=0,
                                    where=nz, initial=d)
        row_min = np.minimum.reduce(np.broadcast_to(col_lab, nz.shape), axis=1,
                                    where=nz, initial=d)
        new = np.minimum(row_min, lab)
        new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    return np.where(row_min < d, lab, d), col_lab


def _grouped(rows: np.ndarray, row_labels: np.ndarray, cols: np.ndarray,
             col_labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Components grouped by shape, from the ascending ``rows`` and ``cols``
    that belong to one and their component labels (each component's first
    row).

    Each group is a pair of index arrays ``(rows, cols)`` of shapes ``(n, r)``
    and ``(n, c)`` for its ``n`` components of ``r`` rows and ``c`` columns:
    line ``m`` of each holds the ascending row and column indices of
    component ``m``, and the components are ordered by first row.
    """
    if not len(rows):
        return []
    row_order = np.argsort(row_labels, kind="stable")
    col_order = np.argsort(col_labels, kind="stable")
    _, row_first, r_count = np.unique(row_labels[row_order], return_index=True, return_counts=True)
    _, col_first, c_count = np.unique(col_labels[col_order], return_index=True, return_counts=True)
    shapes, group = np.unique(r_count * (len(cols) + 1) + c_count, return_inverse=True)
    out = []
    for g, shape in enumerate(shapes):
        r, c = divmod(int(shape), len(cols) + 1)
        members = np.flatnonzero(group == g)
        out.append((rows[row_order[row_first[members, None] + np.arange(r)]],
                    cols[col_order[col_first[members, None] + np.arange(c)]]))
    return out


def _blocks(f: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The ``(n, r, c)`` stack of one :func:`_grouped` group of ``f``;
    a view of ``f`` when the group is one component covering it."""
    if rows.shape == (1, f.shape[0]) and cols.shape == (1, f.shape[1]):
        return f[None]
    return f[rows[:, :, None], cols[:, None, :]]


def _gram_eigh(b: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether an ``(n, r, c)`` block stack is wide (``c >= r``), and the
    ascending eigenpairs of its smaller Gram: ``B B^dagger`` when wide, else
    ``B^dagger B``."""
    wide = b.shape[2] >= b.shape[1]
    return (wide, *np.linalg.eigh(hermitize(b @ b.conj().mT) if wide else b.conj().mT @ b))


# Eigenvalues at or below this fraction of the trace are dropped when a
# density operator's factor is compressed.
_EIGEN_CUTOFF = 1e-14


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator ``rho = F F^dagger``.

    It is built from a ``(dimension, k)`` factor whose columns are
    unnormalized pure branches, so it is positive semidefinite by
    construction; only its trace is checked.  Exact zeros in the factor are
    structure: ``rho`` is block-diagonal over the connected components of
    the factor's nonzero pattern (rows and columns linked by a nonzero
    entry), and the factor is compressed one component at a time, to
    orthogonal columns ``sqrt(lam) v``, from the smaller of the two Gram
    eigenproblems of the component's ``(r, c)`` block: ``eigh(B^dagger B)``
    when ``c < r``, else ``eigh(B B^dagger)``.  Components of one shape share
    one stacked ``eigh``.  Eigenvalues at or below 1e-14 of the whole trace
    are dropped, so at most rank x 1e-14 of trace is lost.  The compressed
    ``factor`` holds exact zeros off each component's rows; a factor with no
    zero entry is one component.  ``components`` keeps what the compression
    found: each row's and each factor column's component label (its first
    row, ``dimension`` for none), relabelled where exact zeros in the kept
    columns split a component, so ``trace_distance`` need not label the
    factor again.  The dense ``matrix`` is formed only on first use.
    """

    __slots__ = ("dimension", "factor", "components", "_matrix")

    def __init__(self, dimension: int, factor):
        m = np.asarray(factor, dtype=np.complex128)
        d = int(dimension)
        if m.ndim != 2 or m.shape[0] != d:
            raise StateError(f"factor has shape {m.shape}, expected ({d}, k)")
        tr = float(np.vdot(m, m).real)
        if abs(tr - 1.0) > STATE_ATOL:
            raise StateError(f"trace {tr!r} is not 1 within {STATE_ATOL}")
        # Every group's eigenpairs first, for the count of kept columns; then
        # its kept columns sqrt(lam) v, written straight into the factor.
        cut = _EIGEN_CUTOFF * tr
        row_labels, col_labels = _support_labels(m)
        rows, cols = np.flatnonzero(row_labels < d), np.flatnonzero(col_labels < d)
        solved = [(rows, cols, *_gram_eigh(_blocks(m, rows, cols)))
                  for rows, cols in _grouped(rows, row_labels[rows], cols, col_labels[cols])]
        total = sum(int((e > cut).sum()) for *_, e, _ in solved)
        # each row's and each kept column's component label, and the labels
        # of the components that exact zeros in their kept columns may split
        row_labels, col_labels, suspect = np.full(d, d), np.empty(total, dtype=np.int64), []
        f, at = None, 0
        for rows, cols, wide, evals, evecs in solved:
            keep = evals > cut
            counts = keep.sum(axis=1)
            # eigh sorts ascending, so each component keeps a suffix
            first = keep.shape[1] - int(counts.max())
            v = evecs[..., first:]
            kept = (v * np.sqrt(np.where(keep, evals, 0.0)[:, None, first:] / tr) if wide
                    else _blocks(m, rows, cols) @ v / np.sqrt(tr))
            nonempty = counts > 0
            row_labels[rows[nonempty]] = rows[nonempty, :1]
            col_labels[at:at + int(counts.sum())] = np.repeat(rows[:, 0], counts)
            if not np.all(kept):
                # a component stays whole while a kept column is nonzero on all its rows
                whole = ((kept != 0).all(axis=1) & keep[:, first:]).any(axis=1)
                suspect += rows[nonempty & ~whole, 0].tolist()
            if rows.shape == (1, d):
                # one component on every row: its kept columns are the factor
                f = kept[0]
                break
            if f is None:
                # allocated once the first block stack is freed
                f = np.zeros((d, total), dtype=np.complex128)
            # component i's columns go to f[rows[i], offset[i] + (0..counts[i])]
            offset = at + np.cumsum(counts) - counts
            # a set, not np.unique: np.unique imports numpy.ma on first use
            for c in set(counts.tolist()) - {0}:
                members = np.flatnonzero(counts == c)
                part = kept if len(members) == len(counts) else kept[members, :, kept.shape[2] - c:]
                f[rows[members, :, None], offset[members, None, None] + np.arange(c)] = part
            at += int(counts.sum())
        if suspect:
            # label those components' compressed block of the factor itself
            rows, cols = (np.flatnonzero(np.isin(x, suspect)) for x in (row_labels, col_labels))
            sub_rows, sub_cols = _support_labels(f[rows[:, None], cols])
            row_at = np.append(rows, d)
            row_labels[rows], col_labels[cols] = row_at[sub_rows], row_at[sub_cols]
        for a in (f, row_labels, col_labels):
            a.flags.writeable = False
        self.dimension = d
        self.factor = f
        self.components = (row_labels, col_labels)
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = hermitize(self.factor @ self.factor.conj().T)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    def __repr__(self):
        return f"DensityOperator(dimension={self.dimension})"

    @classmethod
    def from_pure(cls, state_or_vector) -> "DensityOperator":
        vec = getattr(state_or_vector, "amplitudes", state_or_vector)
        return cls.from_ensemble(np.asarray(vec, dtype=np.complex128).reshape(1, -1))

    @classmethod
    def from_ensemble(cls, vectors) -> "DensityOperator":
        """Density operator sum(v v^dagger) over the rows of a ``(B, dim)``
        array of unnormalized branch vectors."""
        vecs = np.asarray(vectors, dtype=np.complex128)
        if vecs.ndim != 2 or not len(vecs):
            raise StateError(f"branch array has shape {vecs.shape}, expected (B, dim)")
        return cls(vecs.shape[1], np.ascontiguousarray(vecs.T))

    def branches(self) -> np.ndarray:
        """``(k, dim)`` unnormalized pure branches ``sqrt(lam) v``, the
        columns of ``factor``; their outer products sum back to the matrix."""
        return np.ascontiguousarray(self.factor.T)
