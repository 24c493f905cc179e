"""Concrete QPIR protocol builders and output decoding.

``build_kerenidis`` unrolls the recursive log-communication protocol into one
flat alternating spec.  Register naming: ``db`` is the server's database
input (present only on the quantum-database path), ``idx`` the client's index
input holding ``i - 1``, ``r{k}``/``r{k}c`` the server/client halves of the
level-``k`` pre-shared entangled pair, ``q0``/``q1`` the two shuttle qubits
(reused across levels; they return to zero after each level), ``f`` the
response register and ``out`` the cleanup-mode output copy.

Databases are bit tuples ``bits[j] = DB[j+1]``; register qubit ``j`` of
``db`` carries ``bits[j]``, so the low-order half of the database occupies
qubits ``0 .. n/2-1``.  Index registers hold the label ``i - 1``.

Server gates are controlled on the database register on the quantum path,
so superposed databases evolve coherently; the classical fast path bakes the
database into gate masks and drops ``db`` from the layout.  Client gates are
always controlled on ``idx``, so superposed or reference-entangled indices
run in superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelOp,
    CopyOp,
    HadamardOp,
    InnerProductCnotOp,
    MeasureOp,
    PrepareOp,
    SelectCnotOp,
    SelectFlipOp,
    SelectPhaseOp,
)
from .config import check_cap
from .runtime import (
    CLIENT,
    SERVER,
    Ensemble,
    ExecutionTranscript,
    PartyProgram,
    PartyStep,
    ProtocolSpec,
    execute,
)
from .states import LayoutError, PureState, RegisterLayout, StateError

__all__ = [
    "QpirInstance",
    "database_bits",
    "database_label",
    "epr_pair_state",
    "build_kerenidis",
    "build_baseline",
    "build_counterexample",
    "decode_output",
    "decode_distribution",
]


def database_bits(db, n: int) -> tuple[int, ...]:
    """Normalize a database given as bit sequence, bit string, or label."""
    if isinstance(db, int):
        if not 0 <= db < (1 << n):
            raise ValueError(f"database label {db} out of range for n={n}")
        return tuple((db >> (n - 1 - j)) & 1 for j in range(n))
    bits = tuple(int(b) for b in db)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"database {db!r} is not {n} bits")
    return bits


def database_label(bits) -> int:
    label = 0
    for b in bits:
        label = (label << 1) | int(b)
    return label


def epr_pair_state(name_a: str, name_b: str, width: int) -> PureState:
    """The shared register pair sum_r |r>|r> / 2^(w/2)."""
    dim = 1 << width
    amps = np.zeros(dim * dim, dtype=np.complex128)
    amps[[r * dim + r for r in range(dim)]] = 1.0 / math.sqrt(dim)
    return PureState(RegisterLayout(((name_a, width), (name_b, width))), amps)


@dataclass(frozen=True)
class QpirInstance:
    """A built QPIR protocol plus the bookkeeping the analyses need."""

    name: str
    n: int
    levels: int
    spec: ProtocolSpec
    database_register: str | None
    index_register: str | None
    output_register: str
    classical_database: tuple[int, ...] | None = None

    # -- input construction ---------------------------------------------------

    def database_state(self, db) -> PureState:
        if self.database_register is None:
            raise StateError(f"{self.name} was built on the classical-database path")
        bits = database_bits(db, self.n)
        return PureState.basis(
            RegisterLayout(((self.database_register, self.n),)),
            {self.database_register: database_label(bits)},
        )

    def client_basis_state(self, index: int) -> PureState:
        if self.index_register is None:
            if index != 1:
                raise ValueError("n=1 instances only accept index 1")
            return PureState(RegisterLayout(()), np.ones(1, dtype=np.complex128))
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of range 1..{self.n}")
        return PureState.basis(
            RegisterLayout(((self.index_register, self.levels),)),
            {self.index_register: index - 1},
        )

    def basis_input(self, db=None, index: int = 1) -> PureState:
        """Product input |db> (x) |i>, dropping elided registers."""
        parts = []
        if self.database_register is not None:
            if db is None:
                raise ValueError("this instance needs a database input")
            parts.append(self.database_state(db))
        client = self.client_basis_state(index)
        if client.layout.registers:
            parts.append(client)
        if not parts:
            return PureState(RegisterLayout(()), np.ones(1, dtype=np.complex128))
        state = parts[0]
        for p in parts[1:]:
            state = state.tensor(p)
        return state

    def input_with_client(self, db, client_state: PureState | Ensemble):
        """Input from a database plus an arbitrary client-side state (which
        may carry extra reference registers)."""
        if self.database_register is None:
            return client_state
        db_state = self.database_state(db)
        if isinstance(client_state, PureState):
            return db_state.tensor(client_state)
        return Ensemble.from_pure(db_state).tensor(client_state)

    def run(self, db=None, index: int = 1, *, input_state=None,
            keep_states: bool = True, probe_steps=()) -> ExecutionTranscript:
        if input_state is None:
            input_state = self.basis_input(db, index)
        return execute(self.spec, input_state, keep_states=keep_states,
                       probe_steps=probe_steps)

    def decode(self, transcript: ExecutionTranscript, index: int = 1):
        return decode_output(transcript, index,
                             output_register=self.output_register,
                             index_register=self.index_register)


# ---------------------------------------------------------------------------
# the recursive protocol, unrolled
# ---------------------------------------------------------------------------


@dataclass
class _Assembly:
    server_ops: list[list[ChannelOp]]
    server_sends: list[tuple[str, ...]]
    client_ops: list[list[ChannelOp]]
    client_sends: list[tuple[str, ...]]
    setup_pairs: list[tuple[str, str, int]]
    f_name: str


def _assemble_pi(n: int, *, db_register: str | None, db: tuple[int, ...] | None,
                 index_register: str | None, tag: str = "", create_shuttle: bool = True) -> _Assembly:
    """Per-round op lists for one forward execution of the recursive protocol.

    ``db_register`` selects the quantum-database path (gates controlled on
    that register); ``db`` the classical fast path (masks baked in).  The
    shuttle registers q0/q1 are created in the first server round unless the
    caller already owns them from a previous execution.
    """
    if n & (n - 1) or n < 1:
        raise ValueError(f"database size {n} is not a power of two")
    if (db_register is None) == (db is None):
        raise ValueError("exactly one of db_register / db must be given")
    levels = n.bit_length() - 1
    f_name = f"f{tag}" if tag else "f"

    if n == 1:
        if db_register is not None:
            ops: list[ChannelOp] = [PrepareOp.zeros(((f_name, 1),)), CopyOp(db_register, f_name)]
        else:
            amps = (0.0, 1.0) if db[0] else (1.0, 0.0)
            ops = [PrepareOp(((f_name, 1),), amps)]
        return _Assembly([ops], [(f_name,)], [[]], [()], [], f_name)

    if index_register is None:
        raise ValueError("n >= 2 requires an index register")

    def r(k):
        return f"r{tag}{k}"

    def rc(k):
        return f"r{tag}{k}c"

    widths = [n >> k for k in range(1, levels + 1)]
    setup_pairs = [(r(k), rc(k), widths[k - 1]) for k in range(1, levels + 1)]

    def ip_pair(level: int) -> list[ChannelOp]:
        w = widths[level - 1]
        if level == 1:
            if db_register is not None:
                return [
                    InnerProductCnotOp(source=r(1), target="q0",
                                       mask_register=db_register, mask_offset=0),
                    InnerProductCnotOp(source=r(1), target="q1",
                                       mask_register=db_register, mask_offset=w),
                ]
            half0 = "".join(str(b) for b in db[:w])
            half1 = "".join(str(b) for b in db[w:])
            return [
                InnerProductCnotOp(source=r(1), target="q0", mask=half0),
                InnerProductCnotOp(source=r(1), target="q1", mask=half1),
            ]
        return [
            InnerProductCnotOp(source=r(level), target="q0",
                               mask_register=r(level - 1), mask_offset=0),
            InnerProductCnotOp(source=r(level), target="q1",
                               mask_register=r(level - 1), mask_offset=w),
        ]

    def z_select(level: int) -> ChannelOp:
        table = tuple(
            (v, ("q1" if (v >> (levels - level)) & 1 else "q0", 0))
            for v in range(n)
        )
        return SelectPhaseOp(targets=table, selector=index_register)

    def correction(level: int) -> ChannelOp:
        w = widths[level - 1]
        table = tuple((v, (rc(level), v & (w - 1))) for v in range(n))
        return SelectCnotOp(sources=table, target=(f_name, 0), selector=index_register)

    server_ops: list[list[ChannelOp]] = []
    server_sends: list[tuple[str, ...]] = []
    client_ops: list[list[ChannelOp]] = []
    client_sends: list[tuple[str, ...]] = []

    first: list[ChannelOp] = []
    if create_shuttle:
        first.append(PrepareOp.zeros((("q0", 1), ("q1", 1))))
    first.extend(ip_pair(1))
    server_ops.append(first)
    server_sends.append(("q0", "q1"))
    client_ops.append([z_select(1)])
    client_sends.append(("q0", "q1"))

    for k in range(2, levels + 1):
        server_ops.append(ip_pair(k - 1) + [HadamardOp(r(k - 1))] + ip_pair(k))
        server_sends.append(("q0", "q1"))
        client_ops.append([HadamardOp(rc(k - 1)), z_select(k)])
        client_sends.append(("q0", "q1"))

    server_ops.append(
        ip_pair(levels)
        + [HadamardOp(r(levels)), PrepareOp.zeros(((f_name, 1),)), CopyOp(r(levels), f_name)]
    )
    server_sends.append((f_name,))
    client_ops.append(
        [HadamardOp(rc(levels))] + [correction(k) for k in range(levels, 0, -1)]
    )
    client_sends.append(())

    return _Assembly(server_ops, server_sends, client_ops, client_sends,
                     setup_pairs, f_name)


def _non_prepare(ops) -> list[ChannelOp]:
    return [op for op in ops if not isinstance(op, PrepareOp)]


def _setup_state(pairs) -> PureState | None:
    state = None
    for ra, rb, w in pairs:
        part = epr_pair_state(ra, rb, w)
        state = part if state is None else state.tensor(part)
    return state


def build_kerenidis(n: int, cleanup: bool = False, database=None) -> QpirInstance:
    """The recursive log-communication protocol, unrolled to a flat spec.

    With ``database=None`` the database lives in the quantum register ``db``
    and every server gate is controlled on it; passing a database builds the
    classical fast path with that database baked into the masks.  ``cleanup``
    appends the rewind phase that restores the shared entanglement, copying
    the output to ``out`` first; corrections are applied before rewinding.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"database size {n} is not a power of two")
    levels = n.bit_length() - 1
    quantum = database is None
    bits = None if quantum else database_bits(database, n)
    asm = _assemble_pi(
        n,
        db_register="db" if quantum else None,
        db=bits,
        index_register="idx" if levels >= 1 else None,
        tag="",
    )

    server_ops = [list(ops) for ops in asm.server_ops]
    server_sends = list(asm.server_sends)
    client_ops = [list(ops) for ops in asm.client_ops]
    client_sends = list(asm.client_sends)

    output = asm.f_name
    if cleanup:
        base = levels + 1
        # merge copy-out and un-correction into the last forward client round
        last = client_ops[base - 1]
        client_ops[base - 1] = (
            last
            + [PrepareOp.zeros((("out", 1),)), CopyOp(asm.f_name, "out")]
            + list(reversed(_non_prepare(last)))
        )
        client_sends[base - 1] = (asm.f_name,)
        for j in range(1, base + 1):
            src = base - j  # forward server round index (0-based) being undone
            server_ops.append(list(reversed(_non_prepare(server_ops[src]))))
            server_sends.append(client_sends[src - 1] if src >= 1 else ())
            if j < base:
                bsrc = base - 1 - j  # forward client round being undone
                client_ops.append(list(reversed(_non_prepare(client_ops[bsrc]))))
                client_sends.append(server_sends[bsrc])
            else:
                client_ops.append([])
                client_sends.append(())
        output = "out"

    rounds = len(server_ops)
    input_a = (("db", n),) if quantum else ()
    input_b = (("idx", levels),) if levels >= 1 else ()
    setup = _setup_state(asm.setup_pairs)
    spec = ProtocolSpec(
        rounds,
        PartyProgram(SERVER, tuple(PartyStep(tuple(o), tuple(s))
                                   for o, s in zip(server_ops, server_sends)),
                     input_a, tuple(p[0] for p in asm.setup_pairs)),
        PartyProgram(CLIENT, tuple(PartyStep(tuple(o), tuple(s))
                                   for o, s in zip(client_ops, client_sends)),
                     input_b, tuple(p[1] for p in asm.setup_pairs)),
        setup,
        name=f"kerenidis(n={n}{', cleanup' if cleanup else ''}{', classical' if not quantum else ''})",
    )
    check_cap(sum(spec.validate().values()), what=f"protocol {spec.name} register bill")
    return QpirInstance(
        name="kerenidis",
        n=n,
        levels=levels,
        spec=spec,
        database_register="db" if quantum else None,
        index_register="idx" if levels >= 1 else None,
        output_register=output,
        classical_database=bits,
    )


def build_baseline(kind: str, n: int, database=None) -> QpirInstance:
    """One-round reference protocols: ``send-db`` ships the whole database,
    ``send-index`` ships the index and returns the addressed bit."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"database size {n} is not a power of two")
    levels = n.bit_length() - 1
    quantum = database is None
    bits = None if quantum else database_bits(database, n)
    input_a = (("db", n),) if quantum else ()
    input_b = (("idx", levels),) if levels >= 1 else ()

    if kind == "send-db":
        if quantum:
            a1 = [PrepareOp.zeros((("m", n),)), CopyOp("db", "m")]
        else:
            vec = np.zeros(1 << n, dtype=np.complex128)
            vec[database_label(bits)] = 1.0
            a1 = [PrepareOp((("m", n),), tuple(vec))]
        sources = tuple((v, ("m", v)) for v in range(n))
        b1 = [PrepareOp.zeros((("f", 1),)),
              SelectCnotOp(sources=sources, target=("f", 0),
                           selector="idx" if levels >= 1 else None)]
        spec = ProtocolSpec(
            1,
            PartyProgram(SERVER, (PartyStep(tuple(a1), ("m",)),), input_a, ()),
            PartyProgram(CLIENT, (PartyStep(tuple(b1), ()),), input_b, ()),
            None,
            name=f"send-db(n={n})",
        )
    elif kind == "send-index":
        if levels < 1:
            raise ValueError("send-index needs n >= 2")
        b1 = [PrepareOp.zeros((("ic", levels),)), CopyOp("idx", "ic")]
        if quantum:
            a2 = [PrepareOp.zeros((("f", 1),)),
                  SelectCnotOp(sources=tuple((v, ("db", v)) for v in range(n)),
                               target=("f", 0), selector="ic")]
        else:
            a2 = [PrepareOp.zeros((("f", 1),)),
                  SelectFlipOp(selector="ic", bit_table=tuple(bits), target=("f", 0))]
        spec = ProtocolSpec(
            2,
            PartyProgram(SERVER, (PartyStep((), ()), PartyStep(tuple(a2), ("f",))),
                         input_a, ()),
            PartyProgram(CLIENT, (PartyStep(tuple(b1), ("ic",)), PartyStep((), ())),
                         input_b, ()),
            None,
            name=f"send-index(n={n})",
        )
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return QpirInstance(
        name=kind, n=n, levels=levels, spec=spec,
        database_register="db" if quantum else None,
        index_register="idx" if levels >= 1 else None,
        output_register="f", classical_database=bits,
    )


def build_counterexample(n: int) -> QpirInstance:
    """Two chained executions of the recursive protocol: the first on a
    freshly generated and measured database (output tossed), the second on
    the real database.  The mid-protocol measurement makes the honest run
    mixed; it is the protocol whose purified server breaks anchored privacy.
    """
    if n not in (1, 2):
        raise ValueError("the counterexample is built for n in {1, 2}")
    levels = n.bit_length() - 1
    idx = "idx" if levels >= 1 else None
    asm1 = _assemble_pi(n, db_register="dbm", db=None, index_register=idx, tag="1")
    asm2 = _assemble_pi(n, db_register="db", db=None, index_register=idx, tag="2",
                        create_shuttle=(n == 1))

    gen = [PrepareOp.zeros((("dbm", n),)), HadamardOp("dbm"), MeasureOp("dbm")]
    server_ops = [gen + list(asm1.server_ops[0])] + [list(o) for o in asm1.server_ops[1:]]
    server_ops += [list(o) for o in asm2.server_ops]
    server_sends = list(asm1.server_sends) + list(asm2.server_sends)
    client_ops = [list(o) for o in asm1.client_ops] + [list(o) for o in asm2.client_ops]
    client_sends = list(asm1.client_sends) + list(asm2.client_sends)

    pairs = asm1.setup_pairs + asm2.setup_pairs
    rounds = len(server_ops)
    spec = ProtocolSpec(
        rounds,
        PartyProgram(SERVER, tuple(PartyStep(tuple(o), tuple(s))
                                   for o, s in zip(server_ops, server_sends)),
                     (("db", n),), tuple(p[0] for p in pairs)),
        PartyProgram(CLIENT, tuple(PartyStep(tuple(o), tuple(s))
                                   for o, s in zip(client_ops, client_sends)),
                     (("idx", levels),) if levels >= 1 else (),
                     tuple(p[1] for p in pairs)),
        _setup_state(pairs),
        name=f"counterexample(n={n})",
    )
    return QpirInstance(
        name="counterexample", n=n, levels=levels, spec=spec, database_register="db",
        index_register=idx, output_register=asm2.f_name,
        classical_database=None,
    )


# ---------------------------------------------------------------------------
# output decoding
# ---------------------------------------------------------------------------


def _resolve_output(layout: RegisterLayout, output_register: str | None) -> str:
    if output_register is not None:
        if not layout.has(output_register):
            raise LayoutError(f"output register {output_register!r} absent from the final state")
        return output_register
    for cand in ("out", "f", "f2"):
        if layout.has(cand):
            return cand
    raise LayoutError("F register absent from the final state")


def decode_output(transcript: ExecutionTranscript, index: int = 1, *,
                  output_register: str | None = None,
                  index_register: str | None = "idx") -> tuple[int, float]:
    """Standard-basis readout of the client's response register.

    When the run carried a (possibly superposed) index register, the readout
    conditions on the branch ``idx = index - 1``; returns the likelier bit
    and its probability.
    """
    ens = transcript.final
    out = _resolve_output(ens.layout, output_register)
    if index_register and ens.layout.has(index_register):
        probs = ens.probabilities((index_register, out))
        width = ens.layout.width(index_register)
        v = index - 1
        if not 0 <= v < (1 << width):
            raise ValueError(f"index {index} out of range")
        p0, p1 = probs[2 * v], probs[2 * v + 1]
        total = p0 + p1
        if total <= 1e-30:
            raise StateError(f"index branch {index} has zero probability in this run")
        p0, p1 = p0 / total, p1 / total
    else:
        if index != 1:
            # no index register recorded; only a fixed run can be decoded
            raise ValueError("run has no index register; only index=1 is decodable")
        p = ens.probabilities((out,))
        p0, p1 = float(p[0]), float(p[1])
    return (1, p1) if p1 >= p0 else (0, p0)


def decode_distribution(transcript: ExecutionTranscript, *,
                        output_register: str | None = None,
                        index_register: str | None = "idx") -> np.ndarray:
    """Joint outcome distribution over (index register, output bit).

    Shape (2**index_width, 2); without an index register, shape (1, 2).
    """
    ens = transcript.final
    out = _resolve_output(ens.layout, output_register)
    if index_register and ens.layout.has(index_register):
        return ens.probabilities((index_register, out)).reshape(-1, 2)
    return ens.probabilities((out,)).reshape(1, 2)
