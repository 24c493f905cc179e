"""Quantum operations over named registers.

Every op declares its ``kind`` (``isometry``, ``kraus-set`` or
``measurement``), the registers it touches (reads or may change), the
registers it may relabel, any registers it creates and its ``inverse()``.
A flip op relabels its flipped register (a swap both of its registers), a
Hadamard, rotate or dense op its target registers, and a phase,
measurement or preparation none: it commutes with the label projectors of
every register it does not relabel.  The flip ops, the Hadamard and the
phase are their own inverses, a rotation's turns by ``-theta``, and a
preparation, measurement or dense op refuses (:class:`ChannelError`).

Every op applies through one ``apply_vectors(vectors, layout)`` call, which
takes a set of unnormalized branches as a :class:`Support`, the (branch,
flat index, value) entries of their nonzero amplitudes, and returns a new
one.  A run of the lab holds a classical database, so almost all of its
amplitudes are exact zeros.  The output branches are in the order ``for row
in vectors: for outcome or matrix``.  A measurement or Kraus set multiplies
branches; total squared norm is conserved, and outputs at or below
``states.BRANCH_PRUNE`` are dropped.  No op writes into its input, whose
arrays a kept step or a recovery state may share; the output holds no zeros.

Ops apply through three kernel shapes, all under the big-endian convention
of :mod:`qpirlab.states`, whose ``RegisterLayout.bit`` and
``RegisterLayout.labels`` give every bit and register label they read:

* XOR permutation: ``InnerProductCnotOp``, ``SelectCnotOp``,
  ``SelectFlipOp``, ``CnotOp``, ``CopyOp`` and ``SwapOp`` each supply only a
  ``_flip(idx, layout)`` mask, read register by register where it can; the
  shared kernel moves each entry to ``index ^ flip(index)``;
* diagonal sign: ``SelectPhaseOp`` multiplies each value by its index's
  sign;
* local matrices, ``_apply_local_support``: ``HadamardOp`` and ``RotateOp``
  group the entries by (branch, index with the op's qubits' bits cleared) and
  multiply the ``(groups, 2**k)`` block of their values by a
  ``2**k``-square matrix.  ``HadamardOp`` multiplies by ``H`` (entries +-1)
  or ``H (x) H / 2`` (entries +-1/2), two qubits at a time, and scales an
  odd width once by ``1/sqrt(2)``: each output then sums at most four exact
  products, so equal amplitudes that cancel give exact zeros.  A normalized
  matrix, or one ``2**w``-term sum, leaves ~1e-17 dust there, which costs
  the analyses' QR and eigh work and moves figures that go through an
  Uhlmann completion.  ``DenseOp`` covers anything else (general
  isometries, Kraus sets, measurement operator sets), embedded as identity
  on untouched registers: it scatters the branches, brings its qubits to
  the front with ``states.slots_to_front``, applies one ``np.matmul``,
  moves them back (``_apply_local``) and takes the support of the result.

``PrepareOp`` gives ``(index << w) | j`` for each nonzero amplitude ``j`` of
its state, and ``MeasureOp`` makes each (branch, label) pair above the
prune level a new branch.  Every support expansion (a local product's
groups times ``2**k``, a preparation's entries times its nonzero amplitudes
and a measurement's new branches) is checked against
``config.check_branches`` before it allocates.  An op that flips a qubit it
also controls on is rejected when it is built.  Every concrete op class
binds ``apply_vectors(self, vectors, layout)`` in its own class body (the
XOR ops as ``apply_vectors = _apply_flip``), never by inheritance:
per-kind instrumentation looks the method up in each class's ``__dict__``.

The text form of an op is derived from its dataclass fields in one place:
``descriptor()`` writes ``{"op": name}`` and then each field in declaration
order, tuples as lists and the complex ``amplitudes`` / ``matrices`` as
``[re, im]`` leaves; ``op_from_descriptor`` reverses it and rejects an
unknown op, an unknown key, a missing required field or a value whose type
or shape does not match its field's annotation, naming the op and the key.
"""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .config import STATE_ATOL, check_branches, check_cap
from .states import PureState, RegisterLayout, nonzero_rows, slots_from_front, slots_to_front

__all__ = [
    "ChannelError",
    "Support",
    "ChannelOp",
    "DenseOp",
    "HadamardOp",
    "InnerProductCnotOp",
    "SelectPhaseOp",
    "SelectCnotOp",
    "SelectFlipOp",
    "CnotOp",
    "CopyOp",
    "SwapOp",
    "RotateOp",
    "PrepareOp",
    "MeasureOp",
    "op_from_descriptor",
    "to_json_value",
    "from_json_value",
]


class ChannelError(ValueError):
    """An operation is malformed or does not fit the state it is applied to."""


class Support:
    """A ``(B, dim)`` branch array held on its support.

    Entry ``e`` is the amplitude ``value[e]`` (complex128) at the flat
    big-endian index ``index[e]`` (int64) of branch ``branch[e]``; every
    (branch, index) pair appears at most once, no value is an exact zero and
    the entries are in no particular order.  ``shape`` is the shape of the
    dense array the entries stand for.  Like that array, ``len`` gives the
    branch count and iteration one value array per branch.
    """

    __slots__ = ("shape", "branch", "index", "value")

    def __init__(self, shape, branch, index, value):
        self.shape = shape
        self.branch, self.index, self.value = branch, index, value

    @classmethod
    def of(cls, vectors: np.ndarray) -> "Support":
        branch, index = np.nonzero(vectors)
        return cls(vectors.shape, branch, index, vectors[branch, index])

    def __len__(self):
        return self.shape[0]

    def __iter__(self):
        return (self.value[self.branch == b] for b in range(len(self)))

    def tensor(self, amplitudes: np.ndarray, *, what: str) -> "Support":
        """The branches ``row (x) amplitudes``: entry ``(b, i, v)`` gives
        ``(b, i * n + j, v * amplitudes[j])`` per nonzero ``amplitudes[j]`` of
        the ``n``, entry-major, less the exact-zero products; checked with
        ``config.check_branches``, naming ``what``, before it allocates."""
        j = np.flatnonzero(amplitudes)
        check_branches(len(self.value), len(j), what=what)
        value = np.multiply.outer(self.value, amplitudes[j]).reshape(-1)
        nz = value != 0
        index = (self.index[:, None] * len(amplitudes) + j).reshape(-1)
        return Support((len(self), self.shape[1] * len(amplitudes)),
                       np.repeat(self.branch, len(j))[nz], index[nz], value[nz])

    def split(self, labels: np.ndarray, w: int, dim: int, *, what: str) -> "Support":
        """One branch per (branch, label) above ``states.BRANCH_PRUNE``,
        branch-major, where ``labels`` holds each entry's ``w``-bit label
        (``RegisterLayout.labels`` of the registers its caller splits on);
        the entries keep their index and value, under ``dim`` columns.
        Checked with ``config.check_branches``, naming ``what``, before it
        allocates."""
        key = (self.branch << w) | labels
        weights = np.bincount(key, np.abs(self.value) ** 2, minlength=len(self) << w)
        rows, seen = nonzero_rows(weights.reshape(len(self), 1 << w))
        check_branches(len(rows), dim, what=what)
        new = np.full(len(self) << w, -1)
        new[(rows << w) | seen] = np.arange(len(rows))
        branch = new[key]
        kept = branch >= 0
        return Support((len(rows), dim), branch[kept], self.index[kept], self.value[kept])

    def dense(self) -> np.ndarray:
        """The ``(B, dim)`` array: one zeroed array and one scatter."""
        out = np.zeros(self.shape, dtype=np.complex128)
        out[self.branch, self.index] = self.value
        return out


def _apply_local(vectors, total, slots, matrices, dest):
    """The dense local-matrix kernel: apply each matrix of the ``(m, dout,
    din)`` stack ``matrices`` to the qubit ``slots`` of every row of the
    ``(B, 2**total)`` array ``vectors``, with the matrix basis big-endian in
    the given slot order, and return the output row bits at ``dest``, which
    may name slots appended past ``total``.  The slots move to the front,
    one ``np.matmul`` multiplies and they move back.  Outputs are
    branch-major, one per (branch, matrix); with several matrices, outputs
    at or below ``states.BRANCH_PRUNE`` are dropped."""
    # (B, m, dout, rest): one block per (branch, matrix), branch-major
    blocks = np.matmul(matrices, slots_to_front(vectors, total, slots)[:, None])
    if len(matrices) > 1:
        blocks = blocks[nonzero_rows((np.abs(blocks) ** 2).sum(axis=(2, 3)))]
    else:
        blocks = blocks[:, 0]
    return slots_from_front(blocks, dest)


def _apply_local_support(sup: Support, layout: RegisterLayout, qubits, m: np.ndarray) -> Support:
    """Apply one ``2**k``-square matrix to the ``k`` ``(register, qubit)``
    pairs ``qubits`` of every branch, its basis big-endian in the given
    order, written back in place: the entries are grouped by (branch, index
    with the qubits' bits cleared), each group is one row of a ``(groups,
    2**k)`` block and one product ``block @ m.T`` maps them all.  Each
    output sums the nonzero terms of the dense product in the same order
    (its other terms are exact zeros); outputs that are exact zeros are
    dropped."""
    k, total = len(qubits), layout.total_qubits
    bits, labels = [layout.bit(*q) for q in qubits], np.arange(1 << k)
    spread = np.zeros(1 << k, dtype=np.int64)  # each local label's bits at its qubits
    for j, b in enumerate(bits):
        spread |= ((labels >> (k - 1 - j)) & 1) << b
    keys, group = np.unique((sup.branch << total) | (sup.index & ~spread[-1]),
                            return_inverse=True)
    check_branches(len(keys), 1 << k,
                   what=f"a local product on qubits {[layout.qubit(*q) for q in qubits]}")
    local = np.zeros_like(sup.index)  # each entry's label at its qubits
    for b in bits:
        local = (local << 1) | ((sup.index >> b) & 1)
    block = np.zeros((len(keys), 1 << k), dtype=np.complex128)
    block[group, local] = sup.value
    out = block @ m.T
    g, y = np.nonzero(out)
    keys = keys[g]
    return Support(sup.shape, keys >> total, (keys & ((1 << total) - 1)) | spread[y], out[g, y])


# H with exact +-1 entries and H (x) H / 2 with exact +-1/2 entries (see the
# module docstring for why not a normalized matrix).  A pair's 1/2 is a power
# of two, so scaling inside the product rounds nothing; only an odd width's
# last qubit leaves a 1/sqrt(2).
_H_SIGNS = np.array([[1, 1], [1, -1]], dtype=np.complex128)
_HADAMARD_SIGNS = {1: _H_SIGNS, 2: np.kron(_H_SIGNS, _H_SIGNS) / 2}


class ChannelOp:
    """Base class; subclasses implement :meth:`apply_vectors` and may declare :meth:`inverse`."""

    kind = "isometry"

    @property
    def touches(self) -> tuple[str, ...]:
        """Registers the op reads or may change, each named once."""
        raise NotImplementedError

    @property
    def relabels(self) -> tuple[str, ...]:
        """Registers whose label the op may change: a basis state with label
        ``l`` there may go to one with another label.  The op commutes with
        the label projectors of every other register, which it at most reads
        (controls, selectors, sources and masks)."""
        raise NotImplementedError

    @property
    def creates(self) -> tuple[tuple[str, int], ...]:
        """Fresh registers appended to the layout by this op."""
        return ()

    def output_layout(self, layout: RegisterLayout) -> RegisterLayout:
        for name in self.touches:
            if not layout.has(name):
                raise ChannelError(f"{type(self).__name__} references missing register {name!r}")
        for name, _ in self.creates:
            if layout.has(name):
                raise ChannelError(f"{type(self).__name__} would recreate register {name!r}")
        return layout.extended(self.creates) if self.creates else layout

    def apply_vectors(self, vectors: Support, layout: RegisterLayout) -> Support:
        """Apply to the :class:`Support` of a ``(B, dim)`` array of
        unnormalized branches; returns that of a ``(B', dim')`` one and may
        multiply branches."""
        raise NotImplementedError

    def inverse(self) -> "ChannelOp":
        """The op that undoes this one; an op that declares none refuses."""
        raise ChannelError(f"{type(self).__name__} is not invertible")

    def descriptor(self) -> dict:
        """The op's text form: ``{"op": name}``, then each field in declaration order."""
        return {"op": _OP_NAMES[type(self)],
                **{f.name: to_json_value(getattr(self, f.name), f.name in _COMPLEX_FIELDS)
                   for f in fields(self)}}


# ---------------------------------------------------------------------------
# structured permutation / phase ops
# ---------------------------------------------------------------------------


def _self_inverse(self):
    return self  # applied twice, the op is the identity


@dataclass(frozen=True)
class HadamardOp(ChannelOp):
    """Qubit-wise Hadamard transform on one register."""

    register: str

    @property
    def touches(self):
        return (self.register,)

    @property
    def relabels(self):
        return (self.register,)

    inverse = _self_inverse

    def apply_vectors(self, vectors, layout):
        qubits = [(self.register, j) for j in range(layout.width(self.register))]
        out = vectors
        # Two qubits per product: a sum of 2**w equal terms that cancel
        # would round at its partial sum 3y and leave dust for a zero.
        for k in range(0, len(qubits), 2):
            pair = qubits[k:k + 2]
            out = _apply_local_support(out, layout, pair, _HADAMARD_SIGNS[len(pair)])
        if len(qubits) % 2:
            out = Support(out.shape, out.branch, out.index, out.value * (1.0 / math.sqrt(2.0)))
        return out


def _apply_flip(self, vectors, layout):
    """The XOR-permutation kernel: each entry moves to ``index ^ flip``,
    where the op's ``_flip(idx, layout)`` gives the bits to flip at each
    flat index.  The map is its own inverse, since no op flips a bit that
    its flip reads; the output shares its branches and values with the
    input."""
    index = vectors.index ^ self._flip(vectors.index, layout)
    return Support(vectors.shape, vectors.branch, index, vectors.value)


def _distinct(*names) -> tuple[str, ...]:
    """``names`` in order, each once: two qubits of an op may share a register."""
    return tuple(dict.fromkeys(names))


def _check_flips_no_control(op: "ChannelOp", flipped, controls) -> None:
    """An op that flips ``flipped`` while it controls on it is not unitary;
    names are compared as given, before any layout resolves them."""
    if flipped in controls:
        raise ChannelError(
            f"{type(op).__name__} flips {flipped!r}, which it also controls on "
            f"(controls {tuple(controls)!r})"
        )


def _check_table(op: "ChannelOp", table, selector) -> None:
    """Without a selector, a table holds the one entry that applies everywhere."""
    if selector is None and len(table) != 1:
        raise ChannelError(f"{type(op).__name__} without a selector needs exactly one "
                           f"table entry, got {len(table)}")


def _selected_bit(idx, layout, table, selector):
    """At each flat index, the bit of the ``(register, qubit)`` that
    ``table`` assigns to the selector's label; 0 for labels without an entry.
    With ``selector=None`` the table's one entry applies everywhere."""
    if selector is None:
        ((_, (reg, q)),) = table
        return (idx >> layout.bit(reg, q)) & 1
    shifts = np.full(1 << layout.width(selector), -1, dtype=np.int32)
    for v, (reg, q) in table:
        shifts[v] = layout.bit(reg, q)
    sh = shifts[layout.labels(idx, (selector,))]
    return np.where(sh >= 0, (idx >> np.maximum(sh, 0)) & 1, 0)


@dataclass(frozen=True)
class InnerProductCnotOp(ChannelOp):
    """Flip qubit 0 of the target register by the inner product (mod 2) of a
    source register with either a classical bit mask or an equal-width slice
    of another register.

    Source qubit ``j`` pairs with mask character ``j`` (classical mask) or
    with qubit ``mask_offset + j`` of ``mask_register``.
    """

    source: str
    target: str
    mask: str | None = None
    mask_register: str | None = None
    mask_offset: int = 0

    def __post_init__(self):
        if (self.mask is None) == (self.mask_register is None):
            raise ChannelError("exactly one of mask / mask_register is required")
        if self.mask is not None and set(self.mask) - {"0", "1"}:
            raise ChannelError(f"mask {self.mask!r} is not a bit string")
        _check_flips_no_control(self, self.target, (self.source, self.mask_register))

    @property
    def touches(self):
        if self.mask_register is None:
            return (self.source, self.target)
        return _distinct(self.source, self.mask_register, self.target)

    @property
    def relabels(self):
        return (self.target,)

    def _flip(self, idx, layout):
        w = layout.width(self.source)
        if self.mask is not None:
            if len(self.mask) != w:
                raise ChannelError(
                    f"mask length {len(self.mask)} != width {w} of {self.source!r}"
                )
            const = int(self.mask, 2) << layout.bit(self.source, w - 1)
            if const == 0:
                return 0
            paired = idx & const
        else:
            mw = layout.width(self.mask_register)
            if self.mask_offset < 0 or self.mask_offset + w > mw:
                raise ChannelError(
                    f"mask slice [{self.mask_offset}, {self.mask_offset + w}) "
                    f"out of range for {self.mask_register!r} (width {mw})"
                )
            mask = layout.labels(idx, (self.mask_register,)) >> (mw - self.mask_offset - w)
            paired = layout.labels(idx, (self.source,)) & mask & ((1 << w) - 1)
        parity = np.bitwise_count(paired).astype(np.int64) & 1
        return parity << layout.bit(self.target, 0)

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class SelectPhaseOp(ChannelOp):
    """Apply Z to a per-value chosen qubit, selected by a register's label.

    ``targets`` maps selector label -> (register, qubit).  Labels without an
    entry get identity.  With ``selector=None`` the table holds one entry,
    applied unconditionally.
    """

    targets: tuple[tuple[int, tuple[str, int]], ...]
    selector: str | None = None

    def __post_init__(self):
        _check_table(self, self.targets, self.selector)

    @property
    def touches(self):
        regs = [r for _, (r, _) in self.targets]
        return _distinct(*regs) if self.selector is None else _distinct(self.selector, *regs)

    @property
    def relabels(self):
        return ()

    def _sign(self, idx, layout):
        return 1.0 - 2.0 * _selected_bit(idx, layout, self.targets, self.selector)

    inverse = _self_inverse

    def apply_vectors(self, vectors, layout):
        value = vectors.value * self._sign(vectors.index, layout)
        return Support(vectors.shape, vectors.branch, vectors.index, value)


@dataclass(frozen=True)
class SelectCnotOp(ChannelOp):
    """CNOT into a fixed target from a per-value chosen source qubit; the
    ``sources`` table reads as ``SelectPhaseOp.targets`` does."""

    sources: tuple[tuple[int, tuple[str, int]], ...]
    target: tuple[str, int]
    selector: str | None = None

    def __post_init__(self):
        _check_table(self, self.sources, self.selector)
        _check_flips_no_control(self, self.target[0], (self.selector,))
        _check_flips_no_control(self, tuple(self.target), [tuple(q) for _, q in self.sources])

    @property
    def touches(self):
        regs = [r for _, (r, _) in self.sources] + [self.target[0]]
        return _distinct(*regs) if self.selector is None else _distinct(self.selector, *regs)

    @property
    def relabels(self):
        return (self.target[0],)

    def _flip(self, idx, layout):
        par = _selected_bit(idx, layout, self.sources, self.selector)
        return par << layout.bit(*self.target)

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class SelectFlipOp(ChannelOp):
    """Flip the target qubit iff a classical bit table says so for the
    selector's label (an X gate controlled on a classical function)."""

    selector: str
    bit_table: tuple[int, ...]
    target: tuple[str, int]

    def __post_init__(self):
        _check_flips_no_control(self, self.target[0], (self.selector,))

    @property
    def touches(self):
        return (self.selector, self.target[0])

    @property
    def relabels(self):
        return (self.target[0],)

    def _flip(self, idx, layout):
        if len(self.bit_table) != (1 << layout.width(self.selector)):
            raise ChannelError("bit table length does not match selector width")
        vals = layout.labels(idx, (self.selector,))
        par = np.asarray(self.bit_table, dtype=np.int32)[vals]
        return par << layout.bit(*self.target)

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class CnotOp(ChannelOp):
    """Plain CNOT between two addressed qubits."""

    control: tuple[str, int]
    target: tuple[str, int]

    def __post_init__(self):
        _check_flips_no_control(self, tuple(self.target), (tuple(self.control),))

    @property
    def touches(self):
        return _distinct(self.control[0], self.target[0])

    @property
    def relabels(self):
        return (self.target[0],)

    def _flip(self, idx, layout):
        return ((idx >> layout.bit(*self.control)) & 1) << layout.bit(*self.target)

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class CopyOp(ChannelOp):
    """Qubit-wise CNOT of one register into an equal-width register."""

    source: str
    target: str

    def __post_init__(self):
        _check_flips_no_control(self, self.target, (self.source,))

    @property
    def touches(self):
        return (self.source, self.target)

    @property
    def relabels(self):
        return (self.target,)

    def _flip(self, idx, layout):
        if layout.width(self.source) != layout.width(self.target):
            raise ChannelError(
                f"copy width mismatch: {self.source!r} vs {self.target!r}"
            )
        # a register's qubits are consecutive bits, its last the least
        last = layout.width(self.target) - 1
        return layout.labels(idx, (self.source,)) << layout.bit(self.target, last)

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class SwapOp(ChannelOp):
    """Swap the contents of two equal-width registers."""

    first: str
    second: str

    @property
    def touches(self):
        return _distinct(self.first, self.second)

    @property
    def relabels(self):
        return self.touches

    def _flip(self, idx, layout):
        if layout.width(self.first) != layout.width(self.second):
            raise ChannelError(f"swap width mismatch: {self.first!r} vs {self.second!r}")
        last = layout.width(self.first) - 1
        diff = layout.labels(idx, (self.first,)) ^ layout.labels(idx, (self.second,))
        return (diff << layout.bit(self.first, last)) | (diff << layout.bit(self.second, last))

    apply_vectors = _apply_flip
    inverse = _self_inverse


@dataclass(frozen=True)
class RotateOp(ChannelOp):
    """Y-rotation of one qubit, optionally controlled on another qubit."""

    target: tuple[str, int]
    theta: float
    control: tuple[str, int] | None = None

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ChannelError(f"RotateOp angle {self.theta!r} is not finite")
        if self.control is not None:
            _check_flips_no_control(self, tuple(self.target), (tuple(self.control),))

    @property
    def touches(self):
        if self.control is None:
            return (self.target[0],)
        return _distinct(self.control[0], self.target[0])

    @property
    def relabels(self):
        return (self.target[0],)

    def inverse(self) -> "RotateOp":
        return RotateOp(self.target, -self.theta, self.control)

    def apply_vectors(self, vectors, layout):
        qubits = [self.target] if self.control is None else [self.control, self.target]
        c = math.cos(self.theta / 2.0)
        s = math.sin(self.theta / 2.0)
        # rows 0/1 (uncontrolled) or 2/3 (control set) hold target 0/1
        m = np.eye(1 << len(qubits), dtype=np.complex128)
        m[-2:, -2:] = [[c, -s], [s, c]]
        return _apply_local_support(vectors, layout, qubits, m)


@dataclass(frozen=True)
class PrepareOp(ChannelOp):
    """Create fresh registers initialized to a given pure state.

    The isometry |psi> -> |psi> (x) |prep>; new registers are appended to the
    layout in the declared order.
    """

    registers: tuple[tuple[str, int], ...]
    amplitudes: tuple[complex, ...] = ()

    def __post_init__(self):
        dim = 1 << sum(w for _, w in self.registers)
        if not self.amplitudes:
            amps = [0.0] * dim
            amps[0] = 1.0
            object.__setattr__(self, "amplitudes", tuple(amps))
        elif len(self.amplitudes) != dim:
            raise ChannelError("preparation amplitudes do not match register widths")
        vec = np.asarray(self.amplitudes, dtype=np.complex128)
        if abs(np.vdot(vec, vec).real - 1.0) > STATE_ATOL:
            raise ChannelError("preparation state is not normalized")

    @classmethod
    def zeros(cls, registers) -> "PrepareOp":
        return cls(tuple(registers))

    @classmethod
    def of_state(cls, state: PureState) -> "PrepareOp":
        return cls(state.layout.registers, tuple(state.amplitudes))

    @property
    def touches(self):
        return ()

    @property
    def relabels(self):
        return ()

    @property
    def creates(self):
        return tuple(self.registers)

    def apply_vectors(self, vectors, layout):
        prep = np.asarray(self.amplitudes, dtype=np.complex128)
        width = sum(w for _, w in self.registers)
        check_cap(layout.total_qubits + width, what="state")
        return vectors.tensor(prep, what=f"preparing {[n for n, _ in self.registers]}")


@dataclass(frozen=True)
class MeasureOp(ChannelOp):
    """Complete computational-basis measurement of one register.

    Branches the state over observed labels (:meth:`Support.split`); outcome
    registers keep their post-measurement content (projective, non-destructive).
    """

    register: str

    kind = "measurement"

    @property
    def touches(self):
        return (self.register,)

    @property
    def relabels(self):
        return ()

    def apply_vectors(self, vectors, layout):
        return vectors.split(layout.labels(vectors.index, (self.register,)),
                             layout.width(self.register), layout.dim,
                             what=f"measurement of {self.register!r}")


# ---------------------------------------------------------------------------
# dense operator sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DenseOp(ChannelOp):
    """Explicit operator matrices on the tensor product of named registers.

    The matrix basis is the big-endian concatenation of the listed registers'
    labels, inputs ordered as ``registers`` and outputs as ``registers``
    followed by ``created``.  A single matrix with orthonormal columns is an
    isometry; several matrices form a Kraus set (``kind`` distinguishes a
    measurement-operator set from a generic Kraus set).
    """

    matrices: tuple[np.ndarray, ...]
    registers: tuple[str, ...]
    created: tuple[tuple[str, int], ...] = ()
    kind: str = ""

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=np.complex128) for m in self.matrices)
        if not mats:
            raise ChannelError("empty operator list")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise ChannelError("operator matrices must share one shape")
        comp = sum(m.conj().T @ m for m in mats)
        if np.max(np.abs(comp - np.eye(shape[1]))) > STATE_ATOL:
            raise ChannelError("operators are not complete: sum K^dagger K != I")
        kind = self.kind or ("isometry" if len(mats) == 1 else "kraus-set")
        if kind not in ("isometry", "kraus-set", "measurement"):
            raise ChannelError(f"unknown operation kind {kind!r}")
        if kind == "isometry" and len(mats) != 1:
            raise ChannelError("an isometry has exactly one operator")
        names = [*self.registers, *(n for n, _ in self.created)]
        if len(set(names)) != len(names):
            raise ChannelError(f"DenseOp names a register twice: {tuple(names)!r}")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "registers", tuple(self.registers))
        object.__setattr__(self, "created", tuple(self.created))

    @property
    def touches(self):
        return self.registers

    @property
    def relabels(self):
        return self.registers

    @property
    def creates(self):
        return self.created

    def apply_vectors(self, vectors, layout):
        # no builder makes a DenseOp: it runs on the scattered branches
        total = layout.total_qubits
        slots = layout.ordered_slots(self.registers)
        k = len(slots)
        knew = sum(w for _, w in self.created)
        din, dout = 1 << k, 1 << (k + knew)
        if self.matrices[0].shape != (dout, din):
            raise ChannelError(
                f"operator shape {self.matrices[0].shape} does not match registers "
                f"({k} qubits in, {k + knew} out)"
            )
        if knew:
            check_cap(total + knew, what="state")
        check_branches(len(vectors) * len(self.matrices), 1 << (total + knew),
                       what=f"{self.kind} on {self.registers!r}")
        dest = slots + list(range(total, total + knew))
        return Support.of(_apply_local(vectors.dense(), total, slots, np.stack(self.matrices),
                                       dest))


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def to_json_value(value, is_complex: bool):
    """``value`` in the text form: tuples and arrays become lists and, where
    ``is_complex``, every number a ``[re, im]`` leaf."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [to_json_value(v, is_complex) for v in value]
    if is_complex:
        z = complex(value)
        return [z.real, z.imag]
    return value


def from_json_value(value, is_complex: bool):
    """The inverse of :func:`to_json_value`: lists become tuples and, where
    ``is_complex``, ``[re, im]`` leaves complex numbers."""
    if not isinstance(value, list):
        return value
    if is_complex and value and not isinstance(value[0], list):
        re, im = value
        return complex(re, im)
    return tuple(from_json_value(v, is_complex) for v in value)


# The op name of each class in the text form, and the fields whose numbers
# are complex there (``PrepareOp.amplitudes``, ``DenseOp.matrices``).
_OPS = {"hadamard": HadamardOp, "inner-product-cnot": InnerProductCnotOp,
        "select-phase": SelectPhaseOp, "select-cnot": SelectCnotOp,
        "select-flip": SelectFlipOp, "cnot": CnotOp, "copy": CopyOp, "swap": SwapOp,
        "rotate": RotateOp, "prepare": PrepareOp, "measure": MeasureOp, "dense": DenseOp}
_OP_NAMES = {cls: name for name, cls in _OPS.items()}
_COMPLEX_FIELDS = ("amplitudes", "matrices")


# The number type each scalar field hint admits; bool, a JSON ``true``, is
# never a number here.
_NUMBERS = {int: numbers.Integral, float: numbers.Real, complex: numbers.Complex}


def _fits(value, hint) -> bool:
    """Whether a decoded text-form value has the type and shape of a field's
    type hint (``str``, ``int``, ``float``, ``complex``, ``None``, unions,
    fixed and ``...`` tuples; an ``np.ndarray`` matrix arrives as nested
    tuples)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (types.UnionType, typing.Union):
        return any(_fits(value, a) for a in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if hint is type(None):
        return value is None
    if hint is np.ndarray:  # a matrix; a ragged one raises ValueError
        return np.asarray(value, dtype=np.complex128).ndim == 2
    if hint in _NUMBERS:
        return isinstance(value, _NUMBERS[hint]) and not isinstance(value, bool)
    return isinstance(value, hint)


def op_from_descriptor(d: dict) -> ChannelOp:
    """Rebuild an operation from its text form.  An unknown op, an unknown
    key, a missing field without a default or a value whose type or shape
    does not match its field raises :class:`ChannelError`."""
    name = d.get("op")
    cls = _OPS.get(name)
    if cls is None:
        raise ChannelError(f"unknown op {name!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = [k for k in d if k != "op" and k not in known]
    missing = [k for k, f in known.items() if k not in d and f.default is MISSING]
    if unknown or missing:
        problem = f"has no field {unknown[0]!r}" if unknown else f"lacks field {missing[0]!r}"
        raise ChannelError(f"op {name!r} {problem}")
    hints = typing.get_type_hints(cls)
    values = {}
    for k, text in d.items():
        if k == "op":
            continue
        try:
            values[k] = from_json_value(text, k in _COMPLEX_FIELDS)
            fits = _fits(values[k], hints[k])
        except (TypeError, ValueError):  # a bad [re, im] leaf or a ragged matrix
            fits = False
        if not fits:
            raise ChannelError(f"op {name!r} field {k!r} is not {known[k].type}: {text!r}")
    return cls(**values)
