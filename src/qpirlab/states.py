"""Multi-register pure states and density operators.

Index convention (used everywhere in this package): the amplitude index of a
basis state is the big-endian concatenation of the per-register basis labels
in declaration order.  Within a register of width ``w``, bit ``j`` of the
label is qubit ``j``, reading the label as a ``w``-character bit string
(so label ``0b10`` of a 2-qubit register sets qubit 0 and clears qubit 1).
Equivalently, the flat amplitude array reshaped to ``[2] * total_qubits``
has one axis per qubit slot, most significant first.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

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
    ``slots_to_front(vectors, total, slots)``, summed in place without
    moving the amplitudes."""
    keep = sorted(slots)
    b = len(vectors)
    p = np.abs(vectors.reshape([b] + [2] * total)) ** 2
    drop = tuple(a + 1 for a in range(total) if a not in keep)
    p = p.sum(axis=drop) if drop else p
    return p.transpose([0] + [1 + keep.index(s) for s in slots]).reshape(b, 1 << len(slots))


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
    """Ordered, named qubit registers backing one amplitude array."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "registers", tuple((str(n), int(w)) for n, w in self.registers)
        )
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        for name, width in self.registers:
            if width < 1:
                raise LayoutError(f"register {name!r} has width {width}, must be >= 1")
        check_cap(self.total_qubits, what="layout")

    @property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)

    def width(self, name: str) -> int:
        for n, w in self.registers:
            if n == name:
                return w
        raise LayoutError(f"no register named {name!r} in {self.names}")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.registers)

    def offset(self, name: str) -> int:
        """Qubit slot of the register's first (most significant) qubit."""
        off = 0
        for n, w in self.registers:
            if n == name:
                return off
            off += w
        raise LayoutError(f"no register named {name!r} in {self.names}")

    def qubit(self, name: str, j: int) -> int:
        """Global qubit slot of qubit ``j`` of register ``name``."""
        w = self.width(name)
        if not 0 <= j < w:
            raise LayoutError(f"qubit {j} out of range for {name!r} (width {w})")
        return self.offset(name) + j

    def slots(self, names) -> list[int]:
        """Global qubit slots covered by ``names``, in layout order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise LayoutError(f"unknown registers {sorted(missing)}")
        out = []
        off = 0
        for n, w in self.registers:
            if n in wanted:
                out.extend(range(off, off + w))
            off += w
        return out

    def ordered_slots(self, names) -> list[int]:
        """Global qubit slots of ``names``, register by register in the
        given order."""
        out = []
        for n in names:
            off = self.offset(n)
            out.extend(range(off, off + self.width(n)))
        return out

    def subset(self, names) -> "RegisterLayout":
        """Sub-layout of ``names`` in declaration order."""
        wanted = set(names)
        missing = wanted - set(self.names)
        if missing:
            raise LayoutError(f"unknown registers {sorted(missing)}")
        return RegisterLayout(tuple((n, w) for n, w in self.registers if n in wanted))

    def without(self, names) -> "RegisterLayout":
        drop = set(names)
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

    # -- binary fixture format ----------------------------------------------

    _MAGIC = b"QPST"

    def to_bytes(self) -> bytes:
        """Serialize: magic, u32 header length, JSON register table, then
        little-endian f64 re/im pairs in amplitude order."""
        header = json.dumps(
            {"registers": [[n, w] for n, w in self.layout.registers]}
        ).encode()
        payload = np.empty(2 * self.layout.dim, dtype="<f8")
        payload[0::2] = self.amplitudes.real
        payload[1::2] = self.amplitudes.imag
        return self._MAGIC + struct.pack("<I", len(header)) + header + payload.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PureState":
        if blob[:4] != cls._MAGIC:
            raise StateError("not a serialized pure state")
        (hlen,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8 : 8 + hlen])
        layout = RegisterLayout(tuple((n, w) for n, w in header["registers"]))
        raw = np.frombuffer(blob[8 + hlen :], dtype="<f8")
        if raw.size != 2 * layout.dim:
            raise StateError("payload size does not match layout")
        return cls(layout, raw[0::2] + 1j * raw[1::2])


def hermitize(m: np.ndarray) -> np.ndarray:
    """Symmetrize before eigen-solving, as (M + M^dagger) / 2."""
    return 0.5 * (m + m.conj().T)


# Eigenvalues at or below this are dropped when a density operator is
# compressed or split into branches.
_EIGEN_CUTOFF = 1e-14


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace matrix.

    A dense ``matrix`` is checked for Hermiticity, unit trace and, by an
    eigenvalue scan, positivity.  With ``factored=True``, ``matrix`` is
    instead a ``(dimension, k)`` factor ``F`` whose columns are unnormalized
    pure branches, and ``rho = F F^dagger`` is positive semidefinite by
    construction; only its trace is checked.

    A factor with fewer columns than the dimension is compressed once,
    through the small Gram eigenproblem ``eigh(F^dagger F)``, to orthogonal
    columns ``sqrt(lam) v``; eigenvalues at or below 1e-14 are dropped, so at
    most rank x 1e-14 of trace is lost.  The compressed factor is kept as
    ``factor`` when its rank is below ``dimension / 2``, and the dense
    ``matrix`` is then formed only on first use.  Otherwise ``factor`` is
    None and the matrix is dense from the start.
    """

    __slots__ = ("dimension", "factor", "_matrix")

    def __init__(self, dimension: int, matrix, *, factored: bool = False):
        m = np.asarray(matrix, dtype=np.complex128)
        d = int(dimension)
        self.dimension = d
        self.factor = None
        self._matrix = None
        if factored:
            if m.ndim != 2 or m.shape[0] != d:
                raise StateError(f"factor has shape {m.shape}, expected ({d}, k)")
            tr = float(np.vdot(m, m).real)
            if abs(tr - 1.0) > STATE_ATOL:
                raise StateError(f"trace {tr!r} is not 1 within {STATE_ATOL}")
            if m.shape[1] < d:
                evals, evecs = np.linalg.eigh(m.conj().T @ m)
                keep = evals > _EIGEN_CUTOFF * tr
                if 2 * np.count_nonzero(keep) < d:
                    f = m @ evecs[:, keep] / np.sqrt(tr)
                    f.flags.writeable = False
                    self.factor = f
                    return
            m = hermitize(m @ m.conj().T) / tr
        else:
            if m.shape != (d, d):
                raise StateError(f"matrix has shape {m.shape}, expected ({d}, {d})")
            if np.max(np.abs(m - m.conj().T)) > STATE_ATOL:
                raise StateError("matrix is not Hermitian within tolerance")
            m = hermitize(m)
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > STATE_ATOL:
                raise StateError(f"trace {tr!r} is not 1 within {STATE_ATOL}")
            m /= tr
            if np.min(np.linalg.eigvalsh(m)) < -STATE_ATOL:
                raise StateError(f"matrix has an eigenvalue below -{STATE_ATOL}")
        m.flags.writeable = False
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = hermitize(self.factor @ self.factor.conj().T)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    def __repr__(self):
        return f"DensityOperator(dimension={self.dimension})"

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and self.dimension == other.dimension
            and np.array_equal(self.matrix, other.matrix)
        )

    @classmethod
    def from_pure(cls, state_or_vector) -> "DensityOperator":
        vec = getattr(state_or_vector, "amplitudes", state_or_vector)
        return cls.from_ensemble(np.asarray(vec, dtype=np.complex128).reshape(1, -1))

    @classmethod
    def maximally_mixed(cls, dimension: int) -> "DensityOperator":
        return cls(dimension, np.eye(dimension) / np.sqrt(dimension), factored=True)

    @classmethod
    def from_ensemble(cls, vectors) -> "DensityOperator":
        """Density operator sum(v v^dagger) over the rows of a ``(B, dim)``
        array of unnormalized branch vectors."""
        vecs = np.asarray(vectors, dtype=np.complex128)
        if vecs.ndim != 2 or not len(vecs):
            raise StateError(f"branch array has shape {vecs.shape}, expected (B, dim)")
        return cls(vecs.shape[1], np.ascontiguousarray(vecs.T), factored=True)

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def branches(self) -> np.ndarray:
        """``(k, dim)`` unnormalized pure branches ``sqrt(lam) v`` from the
        eigenpairs with ``lam > 1e-14``; their outer products sum back to the
        matrix."""
        if self.factor is not None:
            return np.ascontiguousarray(self.factor.T)
        evals, evecs = np.linalg.eigh(self.matrix)
        keep = evals > _EIGEN_CUTOFF
        return np.ascontiguousarray((np.sqrt(evals[keep]) * evecs[:, keep]).T)
