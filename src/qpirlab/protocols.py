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

Every builder writes one alternating list of global steps, the server's
first, in the order :attr:`ProtocolSpec.schedule` walks them.  The cleanup
rewind undoes the earlier steps in reverse, the counterexample concatenates
two forward runs, and one constructor splits the list by parity into the two
party programs over the EPR setup.
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

    def client_uniform_state(self) -> PureState:
        """The uniform superposition of the indices 1..n on the index
        register; with n = 1 the register is elided and the state is empty."""
        if self.index_register is None:
            return self.client_basis_state(1)
        return PureState(RegisterLayout(((self.index_register, self.levels),)),
                         np.full(self.n, 1 / math.sqrt(self.n), dtype=np.complex128))

    def basis_input(self, db=None, index: int = 1) -> PureState:
        """Product input |db> (x) |i>, dropping elided registers."""
        if self.database_register is not None and db is None:
            raise ValueError("this instance needs a database input")
        return self.input_with_client(db, self.client_basis_state(index))

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
            keep_states: bool = True) -> ExecutionTranscript:
        if input_state is None:
            input_state = self.basis_input(db, index)
        return execute(self.spec, input_state, keep=None if keep_states else ())

    def decode(self, transcript: ExecutionTranscript, index: int):
        return decode_output(transcript, index,
                             output_register=self.output_register,
                             index_register=self.index_register)


# ---------------------------------------------------------------------------
# the recursive protocol, unrolled
# ---------------------------------------------------------------------------


def _assemble_pi(n: int, *, db_register: str | None, db: tuple[int, ...] | None,
                 index_register: str | None, tag: str, create_shuttle: bool = True):
    """One forward execution of the recursive protocol as alternating global
    steps, the server's first; returns ``(steps, pairs, output)`` with the
    pre-shared ``(server half, client half, width)`` pairs.

    ``db_register`` selects the quantum-database path (gates controlled on
    that register); ``db`` the classical fast path (masks baked in).  The
    shuttle registers q0/q1 are created in the first server step unless the
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
            ops = (PrepareOp.zeros(((f_name, 1),)), CopyOp(db_register, f_name))
        else:
            ops = (PrepareOp(((f_name, 1),), (0.0, 1.0) if db[0] else (1.0, 0.0)),)
        return [PartyStep(ops, (f_name,)), PartyStep()], [], f_name

    if index_register is None:
        raise ValueError("n >= 2 requires an index register")

    def r(k):
        return f"r{tag}{k}"

    def rc(k):
        return f"r{tag}{k}c"

    widths = [n >> k for k in range(1, levels + 1)]
    pairs = [(r(k), rc(k), widths[k - 1]) for k in range(1, levels + 1)]

    def ip_pair(level: int) -> tuple[ChannelOp, ...]:
        w = widths[level - 1]
        if level == 1:
            if db_register is not None:
                return (
                    InnerProductCnotOp(source=r(1), target="q0",
                                       mask_register=db_register, mask_offset=0),
                    InnerProductCnotOp(source=r(1), target="q1",
                                       mask_register=db_register, mask_offset=w),
                )
            half0 = "".join(str(b) for b in db[:w])
            half1 = "".join(str(b) for b in db[w:])
            return (
                InnerProductCnotOp(source=r(1), target="q0", mask=half0),
                InnerProductCnotOp(source=r(1), target="q1", mask=half1),
            )
        return (
            InnerProductCnotOp(source=r(level), target="q0",
                               mask_register=r(level - 1), mask_offset=0),
            InnerProductCnotOp(source=r(level), target="q1",
                               mask_register=r(level - 1), mask_offset=w),
        )

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

    shuttle = ("q0", "q1")
    create = (PrepareOp.zeros((("q0", 1), ("q1", 1))),) if create_shuttle else ()
    steps = [PartyStep(create + ip_pair(1), shuttle), PartyStep((z_select(1),), shuttle)]
    for k in range(2, levels + 1):
        steps += [PartyStep(ip_pair(k - 1) + (HadamardOp(r(k - 1)),) + ip_pair(k), shuttle),
                  PartyStep((HadamardOp(rc(k - 1)), z_select(k)), shuttle)]
    steps += [
        PartyStep(ip_pair(levels) + (HadamardOp(r(levels)), PrepareOp.zeros(((f_name, 1),)),
                                     CopyOp(r(levels), f_name)), (f_name,)),
        PartyStep((HadamardOp(rc(levels)),) + tuple(correction(k) for k in range(levels, 0, -1))),
    ]
    return steps, pairs, f_name


def _undone(step: PartyStep) -> tuple[ChannelOp, ...]:
    """The step undone: the inverses (``ChannelOp.inverse``) of its ops in
    reverse, without its preparations, whose fresh registers stay."""
    return tuple(op.inverse() for op in reversed(step.ops) if not isinstance(op, PrepareOp))


def _instance(name: str, n: int, bits, steps, pairs, output: str, flags: str) -> QpirInstance:
    """Split alternating global steps (the server's first) into the two party
    programs over the EPR setup of ``pairs``.  ``bits`` is the classical
    database, or ``None`` for the quantum register ``db``."""
    levels = n.bit_length() - 1
    db = "db" if bits is None else None
    idx = "idx" if levels >= 1 else None
    setup = None
    for ra, rb, w in pairs:
        part = epr_pair_state(ra, rb, w)
        setup = part if setup is None else setup.tensor(part)
    spec = ProtocolSpec(
        len(steps) // 2,
        PartyProgram(SERVER, tuple(steps[0::2]), ((db, n),) if db else (),
                     tuple(p[0] for p in pairs)),
        PartyProgram(CLIENT, tuple(steps[1::2]), ((idx, levels),) if idx else (),
                     tuple(p[1] for p in pairs)),
        setup,
        name=f"{name}(n={n}{flags})",
    )
    return QpirInstance(name=name, n=n, levels=levels, spec=spec, database_register=db,
                        index_register=idx, output_register=output, classical_database=bits)


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
    quantum = database is None
    bits = None if quantum else database_bits(database, n)
    steps, pairs, output = _assemble_pi(
        n, db_register="db" if quantum else None, db=bits,
        index_register="idx" if n >= 2 else None, tag="")
    if cleanup:
        *fwd, last = steps
        # the last client step copies the output out, then undoes itself; the
        # rewind undoes every earlier step in reverse, each sending what the
        # step before it sent
        copy_out = (PrepareOp.zeros((("out", 1),)), CopyOp(output, "out"))
        steps = fwd + [PartyStep(last.ops + copy_out + _undone(last), (output,))]
        steps += [PartyStep(_undone(st), before.sends)
                  for before, st in zip([PartyStep()] + fwd, fwd)][::-1] + [PartyStep()]
        output = "out"
    inst = _instance("kerenidis", n, bits, steps, pairs, output,
                     (", cleanup" if cleanup else "") + ("" if quantum else ", classical"))
    check_cap(sum(inst.spec.validate().values()),
              what=f"protocol {inst.spec.name} register bill")
    return inst


def build_baseline(kind: str, n: int, database=None) -> QpirInstance:
    """One-round reference protocols: ``send-db`` ships the whole database,
    ``send-index`` ships the index and returns the addressed bit."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"database size {n} is not a power of two")
    levels = n.bit_length() - 1
    quantum = database is None
    bits = None if quantum else database_bits(database, n)
    f = PrepareOp.zeros((("f", 1),))

    if kind == "send-db":
        if quantum:
            ship = (PrepareOp.zeros((("m", n),)), CopyOp("db", "m"))
        else:
            vec = np.zeros(1 << n, dtype=np.complex128)
            vec[database_label(bits)] = 1.0
            ship = (PrepareOp((("m", n),), tuple(vec)),)
        read = SelectCnotOp(sources=tuple((v, ("m", v)) for v in range(n)), target=("f", 0),
                            selector="idx" if levels >= 1 else None)
        steps = [PartyStep(ship, ("m",)), PartyStep((f, read))]
    elif kind == "send-index":
        if levels < 1:
            raise ValueError("send-index needs n >= 2")
        if quantum:
            answer = SelectCnotOp(sources=tuple((v, ("db", v)) for v in range(n)),
                                  target=("f", 0), selector="ic")
        else:
            answer = SelectFlipOp(selector="ic", bit_table=tuple(bits), target=("f", 0))
        steps = [PartyStep(),
                 PartyStep((PrepareOp.zeros((("ic", levels),)), CopyOp("idx", "ic")), ("ic",)),
                 PartyStep((f, answer), ("f",)),
                 PartyStep()]
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return _instance(kind, n, bits, steps, [], "f", "")


def build_counterexample(n: int) -> QpirInstance:
    """Two chained executions of the recursive protocol: the first on a
    freshly generated and measured database (output tossed), the second on
    the real database.  The mid-protocol measurement makes the honest run
    mixed; it is the protocol whose purified server breaks anchored privacy.
    """
    if n not in (1, 2):
        raise ValueError("the counterexample is built for n in {1, 2}")
    idx = "idx" if n >= 2 else None
    steps1, pairs1, _ = _assemble_pi(n, db_register="dbm", db=None, index_register=idx, tag="1")
    steps2, pairs2, output = _assemble_pi(n, db_register="db", db=None, index_register=idx,
                                          tag="2", create_shuttle=(n == 1))
    gen = (PrepareOp.zeros((("dbm", n),)), HadamardOp("dbm"), MeasureOp("dbm"))
    steps = [PartyStep(gen + steps1[0].ops, steps1[0].sends)] + steps1[1:] + steps2
    return _instance("counterexample", n, None, steps, pairs1 + pairs2, output, "")


# ---------------------------------------------------------------------------
# output decoding
# ---------------------------------------------------------------------------


def decode_output(transcript: ExecutionTranscript, index: int, *,
                  output_register: str,
                  index_register: str | None = "idx") -> tuple[int, float]:
    """Standard-basis readout of the client's response register.

    When the run carried a (possibly superposed) index register, the readout
    conditions on the branch ``idx = index - 1``; returns the likelier bit
    and its probability.
    """
    dist = decode_distribution(transcript, output_register=output_register,
                               index_register=index_register)
    if len(dist) == 1 and index != 1:
        # no index register recorded; only a fixed run can be decoded
        raise ValueError("run has no index register; only index=1 is decodable")
    if not 1 <= index <= len(dist):
        raise ValueError(f"index {index} out of range")
    p0, p1 = dist[index - 1]
    total = p0 + p1
    if total <= 1e-30:
        raise StateError(f"index branch {index} has zero probability in this run")
    p0, p1 = p0 / total, p1 / total
    return (1, p1) if p1 >= p0 else (0, p0)


def decode_distribution(transcript: ExecutionTranscript, *,
                        output_register: str,
                        index_register: str | None = "idx") -> np.ndarray:
    """Joint outcome distribution over (index register, output bit).

    Shape (2**index_width, 2); without an index register, shape (1, 2).
    Computed once per transcript and kept on it, read-only.
    """
    ens, out = transcript.final, output_register
    if not ens.layout.has(out):
        raise LayoutError(f"output register {out!r} absent from the final state")
    index = index_register if index_register and ens.layout.has(index_register) else None
    dist = transcript.decoded.get((out, index))
    if dist is None:
        dist = ens.probabilities((index, out) if index else (out,)).reshape(-1, 2)
        dist.flags.writeable = False
        transcript.decoded[(out, index)] = dist
    return dist
