"""Two-party protocol representation and execution.

A protocol is an alternating sequence of party steps: the server acts at odd
global steps, the client at even ones.  Step ``t`` odd is server round
``(t+1)/2``; step ``t`` even is client round ``t/2``.  Each party step applies
its operations and then hands off zero or more registers to the other party.

Message passing is modeled as ownership relabeling, never data movement: a
sent register is marked in transit for the snapshot taken right after the
sending step and belongs to the receiver from the next step on.  Reference
registers (any extra registers carried by the input state) are never touched
by either program.  :class:`ExecutionTranscript` is the only reader of these
owner tags; :meth:`ExecutionTranscript.server_view` is the server's view that
every privacy analysis compares, and :meth:`Ensemble.distance` is the one
comparison.

Evolution runs on one ``(B, dim)`` array of unnormalized pure branches
(:class:`Ensemble`): a measurement multiplies branches and mixed inputs
enter as ensembles of pure branches, so :meth:`Ensemble.apply` is the only
evolution engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channels import ChannelOp, ChannelError, PrepareOp, op_from_descriptor
from .config import check_cap, check_reduced_cap
from .distances import ensemble_trace_distance, gram_reduce
from .states import (DensityOperator, LayoutError, PureState, RegisterLayout, StateError, marginal,
                     nonzero_rows, slots_to_front)

__all__ = [
    "ProtocolShapeError",
    "PartyStep",
    "PartyProgram",
    "ProtocolSpec",
    "Ensemble",
    "StepRecord",
    "ExecutionTranscript",
    "execute",
    "CommunicationBill",
    "communication",
    "fold_setup_into_messages",
    "spec_to_json",
    "spec_from_json",
]

SERVER = "A"
CLIENT = "B"
REFEREE = "R"  # reference-side owner tag


class ProtocolShapeError(ValueError):
    """The protocol does not fit the alternating two-party shape."""


@dataclass(frozen=True)
class PartyStep:
    ops: tuple[ChannelOp, ...] = ()
    sends: tuple[str, ...] = ()


@dataclass(frozen=True)
class PartyProgram:
    party: str
    steps: tuple[PartyStep, ...]
    input_registers: tuple[tuple[str, int], ...] = ()
    setup_registers: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """Alternating two-party protocol with optional pre-shared setup state."""

    rounds: int
    server: PartyProgram
    client: PartyProgram
    setup: PureState | None = None
    name: str = ""

    def __post_init__(self):
        self.validate()

    # -- structural validation ------------------------------------------------

    def validate(self) -> dict[str, int]:
        """Walk the protocol checking shape and ownership; returns the
        register width table for everything the protocol ever holds."""
        s = self.rounds
        if s < 1:
            raise ProtocolShapeError("a protocol has at least one round")
        if len(self.server.steps) != s or len(self.client.steps) != s:
            raise ProtocolShapeError(
                f"programs must have exactly {s} steps each "
                f"(server {len(self.server.steps)}, client {len(self.client.steps)})"
            )
        if self.server.party != SERVER or self.client.party != CLIENT:
            raise ProtocolShapeError("server program must be party A, client party B")

        widths: dict[str, int] = {}
        owner: dict[str, str] = {}

        def declare(name, width, who):
            if name in widths:
                raise ProtocolShapeError(f"register {name!r} declared twice")
            widths[name] = width
            owner[name] = who

        for n, w in self.server.input_registers:
            declare(n, w, SERVER)
        for n, w in self.client.input_registers:
            declare(n, w, CLIENT)
        setup_names = set()
        if self.setup is not None:
            setup_names = set(self.setup.layout.names)
            claimed = set(self.server.setup_registers) | set(self.client.setup_registers)
            if claimed != setup_names or set(self.server.setup_registers) & set(self.client.setup_registers):
                raise ProtocolShapeError(
                    "setup registers must be partitioned between the parties"
                )
            for n, w in self.setup.layout.registers:
                declare(n, w, SERVER if n in self.server.setup_registers else CLIENT)
        elif self.server.setup_registers or self.client.setup_registers:
            raise ProtocolShapeError("setup registers declared but no setup state")

        for t in range(1, 2 * s + 1):
            party = SERVER if t % 2 else CLIENT
            program = self.server if party == SERVER else self.client
            step = program.steps[(t - 1) // 2]
            for op in step.ops:
                for name in op.touches:
                    if name not in widths:
                        raise ProtocolShapeError(
                            f"step {t} ({party}): op references unknown register {name!r}"
                        )
                    if owner[name] != party:
                        raise ProtocolShapeError(
                            f"step {t} ({party}): op touches register {name!r} "
                            f"owned by {owner[name]}"
                        )
                for name, w in op.creates:
                    declare(name, w, party)
            for name in step.sends:
                if name not in widths:
                    raise ProtocolShapeError(
                        f"step {t} ({party}): cannot send unknown register {name!r}"
                    )
                if owner[name] != party:
                    raise ProtocolShapeError(
                        f"step {t} ({party}): cannot send register {name!r} "
                        f"owned by {owner[name]}"
                    )
                owner[name] = CLIENT if party == SERVER else SERVER

        for k in range(s):
            a, b = self.server.steps[k], self.client.steps[k]
            received = self.client.steps[k - 1].sends if k >= 1 else ()
            a_active = a.ops or a.sends or received
            if not (a_active or b.ops or b.sends):
                raise ProtocolShapeError(
                    f"round {k + 1} is degenerate: nothing done, sent, or received"
                )
        return widths


@dataclass(frozen=True)
class CommunicationBill:
    m_a: int
    m_b: int
    total: int
    rounds: int


def communication(spec: ProtocolSpec) -> CommunicationBill:
    """Exact qubit counts from declared message-register widths.

    ``rounds`` counts nonempty messages, matching the usual round tally of
    an alternating protocol (width-0 message slots contribute nothing).
    """
    widths = spec.validate()
    m_a = sum(widths[n] for st in spec.server.steps for n in st.sends)
    m_b = sum(widths[n] for st in spec.client.steps for n in st.sends)
    messages = sum(1 for st in (*spec.server.steps, *spec.client.steps) if st.sends)
    return CommunicationBill(m_a, m_b, m_a + m_b, messages)


# ---------------------------------------------------------------------------
# ensembles of pure branches
# ---------------------------------------------------------------------------


class Ensemble:
    """A mixed state as unnormalized pure branches over one layout.

    ``vectors`` is one C-contiguous ``(B, dim)`` complex128 array: row ``b``
    is branch ``b``'s flat amplitude vector under the big-endian convention
    of :mod:`qpirlab.states`, and the state is the sum of the rows' outer
    products.  Every method acts on the whole array at once.
    """

    __slots__ = ("layout", "vectors")

    def __init__(self, layout: RegisterLayout, vectors):
        vecs = np.ascontiguousarray(vectors, dtype=np.complex128)
        if vecs.ndim != 2 or vecs.shape[1] != layout.dim:
            raise StateError(f"branch array has shape {vecs.shape}, expected (B, {layout.dim})")
        self.layout = layout
        self.vectors = vecs

    @classmethod
    def from_pure(cls, state: PureState) -> "Ensemble":
        return cls(state.layout, state.amplitudes[None])

    @classmethod
    def from_density(cls, layout: RegisterLayout, rho: DensityOperator) -> "Ensemble":
        if rho.dimension != layout.dim:
            raise StateError("density operator does not match the layout")
        return cls(layout, rho.branches())

    @property
    def weight(self) -> float:
        return float(np.vdot(self.vectors, self.vectors).real)

    @property
    def is_pure(self) -> bool:
        return len(self.vectors) == 1

    def to_pure(self) -> PureState:
        if not self.is_pure:
            raise StateError(f"ensemble has {len(self.vectors)} branches, not pure")
        return PureState.from_vector(self.layout, self.vectors[0], normalize=True)

    def apply(self, op: ChannelOp) -> "Ensemble":
        new_layout = op.output_layout(self.layout)
        return Ensemble(new_layout, op.apply_vectors(self.vectors, self.layout))

    def tensor(self, other: "Ensemble") -> "Ensemble":
        """Product ensemble; ``other``'s registers are appended to the layout
        and the branches are ``a (x) b for a in self for b in other``."""
        layout = self.layout.extended(other.layout.registers)
        prod = self.vectors[:, None, :, None] * other.vectors[None, :, None, :]
        return Ensemble(layout, prod.reshape(-1, layout.dim))

    def purity(self) -> float:
        g = self.vectors.conj() @ self.vectors.T
        return float(np.sum(np.abs(g) ** 2))

    def reduced(self, names, *, ordered: bool = False) -> DensityOperator:
        """Reduced density operator on ``names``.

        With ``ordered=True`` the basis follows the given name sequence
        instead of layout order.
        """
        if not ordered:
            names = self.layout.subset(names).names
        return gram_reduce(self.vectors, self.layout, names)

    def density(self) -> DensityOperator:
        check_reduced_cap(self.layout.total_qubits)
        return DensityOperator.from_ensemble(self.vectors)

    def traced(self, names) -> "Ensemble":
        """Ensemble over the remaining registers after discarding ``names``:
        one branch per (branch, discarded label) pair above
        ``states.BRANCH_PRUNE``."""
        t = slots_to_front(self.vectors, self.layout.total_qubits, self.layout.slots(names))
        kept = t[nonzero_rows((np.abs(t) ** 2).sum(axis=2))]
        return Ensemble(self.layout.without(names), kept)

    def aligned_vectors(self, names) -> np.ndarray:
        """Branch array permuted to the given register-name order, which
        must be a permutation of the layout's names."""
        names = tuple(names)
        if names == self.layout.names:
            return self.vectors
        if sorted(names) != sorted(self.layout.names):
            raise LayoutError(
                f"alignment order {names} is not a permutation of the layout {self.layout.names}"
            )
        perm = self.layout.ordered_slots(names)
        t = slots_to_front(self.vectors, self.layout.total_qubits, perm)
        return t.reshape(len(self.vectors), self.layout.dim)

    def probabilities(self, names) -> np.ndarray:
        """Marginal outcome distribution of ``names``, indexed big-endian in
        the given name order."""
        return marginal(self.vectors, self.layout, names)

    def distance(self, other: "Ensemble") -> float:
        """Halved trace distance to ``other``, whose registers are aligned
        to this layout's order by name."""
        return ensemble_trace_distance(self.vectors, other.aligned_vectors(self.layout.names))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

_TRANSIT_TO_CLIENT = "A->B"
_TRANSIT_TO_SERVER = "B->A"


@dataclass(frozen=True)
class StepRecord:
    index: int
    party: str
    ensemble: Ensemble | None
    ownership: dict[str, str]


class ExecutionTranscript:
    """Per-step global states plus ownership and communication accounting.

    This is the only reader of the owner tags: analyses ask for
    :meth:`owned`, :meth:`in_transit` and :meth:`server_view`.
    """

    def __init__(self, spec, records, final, m_a, m_b):
        self.spec = spec
        self.records: tuple[StepRecord, ...] = tuple(records)
        self.final: Ensemble = final
        self.m_a = m_a
        self.m_b = m_b

    @property
    def steps(self) -> int:
        return len(self.records)

    def record(self, t: int) -> StepRecord:
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} out of range 1..{self.steps}")
        return self.records[t - 1]

    def ensemble(self, t: int) -> Ensemble:
        rec = self.record(t)
        if rec.ensemble is None:
            raise StateError(f"step {t} was not retained (streaming run)")
        return rec.ensemble

    def purity(self, t: int) -> float:
        return self.ensemble(t).purity()

    def ownership(self, t: int) -> dict[str, str]:
        return dict(self.record(t).ownership)

    def _tagged(self, t: int, tags) -> tuple[str, ...]:
        own = self.record(t).ownership
        return tuple(n for n in self.ensemble(t).layout.names if own[n] in tags)

    def owned(self, t: int, party: str) -> tuple[str, ...]:
        """Registers ``party`` holds at step t, in layout order."""
        return self._tagged(t, (party,))

    def in_transit(self, t: int) -> tuple[str, ...]:
        """Registers sent at step t and not yet received, in layout order."""
        return self._tagged(t, (_TRANSIT_TO_CLIENT, _TRANSIT_TO_SERVER))

    def server_view(self, t: int) -> Ensemble:
        """The server's view at step t: its memory, the in-flight messages
        and the reference, i.e. the step-t ensemble with the client's
        registers traced out."""
        client = self.owned(t, CLIENT)
        ens = self.ensemble(t)
        return ens.traced(client) if client else ens

    def reduced(self, t: int, names) -> DensityOperator:
        return self.ensemble(t).reduced(names)


def execute(spec: ProtocolSpec, input_state: PureState | Ensemble | None = None, *,
            keep_states: bool = True, probe_steps=()) -> ExecutionTranscript:
    """Run the protocol on an input over the declared input registers.

    The input may carry extra registers beyond the declared inputs; they are
    treated as the untouched reference side.  With ``keep_states=False`` only
    the final state and any ``probe_steps`` are retained.
    """
    widths = spec.validate()
    declared = {n: w for n, w in (*spec.server.input_registers, *spec.client.input_registers)}

    if input_state is None:
        ens = Ensemble(RegisterLayout(()), np.ones((1, 1), dtype=np.complex128))
    elif isinstance(input_state, PureState):
        ens = Ensemble.from_pure(input_state)
    else:
        ens = Ensemble(input_state.layout, input_state.vectors.copy())

    for name, w in declared.items():
        if not ens.layout.has(name):
            raise ProtocolShapeError(f"input state is missing register {name!r}")
        if ens.layout.width(name) != w:
            raise ProtocolShapeError(
                f"input register {name!r} has width {ens.layout.width(name)}, expected {w}"
            )
    refs = tuple(n for n in ens.layout.names if n not in declared)

    owner: dict[str, str] = {}
    for n, _ in spec.server.input_registers:
        owner[n] = SERVER
    for n, _ in spec.client.input_registers:
        owner[n] = CLIENT
    for n in refs:
        owner[n] = REFEREE
    if spec.setup is not None:
        check_cap(ens.layout.total_qubits + spec.setup.layout.total_qubits, what="state")
        ens = ens.tensor(Ensemble.from_pure(spec.setup))
        for n in spec.setup.layout.names:
            owner[n] = SERVER if n in spec.server.setup_registers else CLIENT

    probe = set(probe_steps)
    records: list[StepRecord] = []
    s = spec.rounds
    m_a = m_b = 0
    for t in range(1, 2 * s + 1):
        party = SERVER if t % 2 else CLIENT
        program = spec.server if party == SERVER else spec.client
        step = program.steps[(t - 1) // 2]
        # resolve transits from the previous step
        for n, o in list(owner.items()):
            if o == _TRANSIT_TO_CLIENT:
                owner[n] = CLIENT
            elif o == _TRANSIT_TO_SERVER:
                owner[n] = SERVER
        for op in step.ops:
            try:
                ens = ens.apply(op)
            except (ChannelError, LayoutError, StateError) as exc:
                raise ProtocolShapeError(
                    f"step {t} ({party}): {type(op).__name__} failed: {exc}"
                ) from exc
            for n, _ in op.creates:
                owner[n] = party
        for n in step.sends:
            owner[n] = _TRANSIT_TO_CLIENT if party == SERVER else _TRANSIT_TO_SERVER
        sent_width = sum(widths[n] for n in step.sends)
        if party == SERVER:
            m_a += sent_width
        else:
            m_b += sent_width
        keep = keep_states or t in probe or t == 2 * s
        records.append(StepRecord(t, party, ens if keep else None, dict(owner)))
    return ExecutionTranscript(spec, records, ens, m_a, m_b)


def fold_setup_into_messages(spec: ProtocolSpec) -> ProtocolSpec:
    """Equivalent protocol whose setup is prepared by the client and shipped
    as an initial message, leaving a trivial joint setup.

    The server's first step becomes idle; the client's first step prepares
    the old joint state locally and sends the server-side share, so the
    client's communication grows by exactly that share's width and the
    server's is unchanged.
    """
    if spec.setup is None:
        return spec
    server = PartyProgram(
        SERVER,
        (PartyStep(),) + spec.server.steps,
        spec.server.input_registers,
        (),
    )
    client = PartyProgram(
        CLIENT,
        (PartyStep(ops=(PrepareOp.of_state(spec.setup),),
                   sends=tuple(spec.server.setup_registers)),) + spec.client.steps,
        spec.client.input_registers,
        (),
    )
    return ProtocolSpec(spec.rounds + 1, server, client, None,
                        (spec.name + "+folded") if spec.name else "folded")


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def _program_to_json(p: PartyProgram) -> dict:
    return {
        "party": p.party,
        "input_registers": [[n, w] for n, w in p.input_registers],
        "setup_registers": list(p.setup_registers),
        "steps": [
            {"ops": [op.descriptor() for op in st.ops], "sends": list(st.sends)}
            for st in p.steps
        ],
    }


def _program_from_json(d: dict) -> PartyProgram:
    return PartyProgram(
        d["party"],
        tuple(
            PartyStep(tuple(op_from_descriptor(o) for o in st["ops"]), tuple(st["sends"]))
            for st in d["steps"]
        ),
        tuple((n, w) for n, w in d["input_registers"]),
        tuple(d["setup_registers"]),
    )


def spec_to_json(spec: ProtocolSpec) -> str:
    doc = {
        "name": spec.name,
        "rounds": spec.rounds,
        "server": _program_to_json(spec.server),
        "client": _program_to_json(spec.client),
        "setup": None,
    }
    if spec.setup is not None:
        doc["setup"] = {
            "registers": [[n, w] for n, w in spec.setup.layout.registers],
            "amplitudes": [[z.real, z.imag] for z in spec.setup.amplitudes],
        }
    return json.dumps(doc, indent=1)


def spec_from_json(text: str) -> ProtocolSpec:
    doc = json.loads(text)
    setup = None
    if doc["setup"] is not None:
        layout = RegisterLayout(tuple((n, w) for n, w in doc["setup"]["registers"]))
        amps = np.array([complex(re, im) for re, im in doc["setup"]["amplitudes"]])
        setup = PureState(layout, amps)
    return ProtocolSpec(
        doc["rounds"],
        _program_from_json(doc["server"]),
        _program_from_json(doc["client"]),
        setup,
        doc.get("name", ""),
    )
