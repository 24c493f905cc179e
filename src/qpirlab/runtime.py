"""Two-party protocol representation and execution.

A protocol is an alternating sequence of party steps: the server acts at odd
global steps, the client at even ones.  Each party step applies its
operations and then hands off zero or more registers to the other party.

Message passing is modeled as ownership relabeling, never data movement: a
sent register is marked in transit for the snapshot taken right after the
sending step and belongs to the receiver from the next step on.  Reference
registers (any extra registers carried by the input state) are never touched
by either program.

These step and ownership rules are written once, in the walk a
:class:`ProtocolSpec` makes when it is built.  The walk leaves
:attr:`ProtocolSpec.schedule`, one :class:`ScheduledStep` (step, party, ops
and owner tags) per global step, and everything else reads it: ``execute``
applies the ops in schedule order, the adversaries build their programs and
recoveries from it and the privacy analyses take their steps from it.
:class:`ExecutionTranscript` is the only reader of the owner tags;
:meth:`ExecutionTranscript.server_view` is the server's view that every
privacy analysis and the reconstruction attack compare, in the coordinates
of its branch span (:func:`~qpirlab.adversaries.block_spans`), through
:func:`~qpirlab.distances.paired_distances`.

A state is a set of unnormalized pure branches: a measurement multiplies
branches and mixed inputs enter as ensembles of pure branches.  Every op
applies to the branches' support, a :class:`~qpirlab.channels.Support` of
(branch, flat index, value) entries, through its ``apply_vectors`` (see
:mod:`qpirlab.channels`); an anchored run holds a classical database, so
almost all of its amplitudes are exact zeros.

* :func:`execute` carries a run on its support from the input tensored with
  the setup to the last step, and keeps each retained step in that form.
* An :class:`Ensemble` holds its branches' support and no other form; a
  reader that needs the array scatters it afresh (:meth:`Ensemble.dense`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (ChannelOp, ChannelError, PrepareOp, Support, _gather, from_json_value,
                       op_from_descriptor, to_json_value)
from .config import CapExceeded, check_branches, check_cap
from .distances import gram_reduce
from .states import DensityOperator, LayoutError, PureState, RegisterLayout, StateError

__all__ = [
    "ProtocolShapeError",
    "PartyStep",
    "PartyProgram",
    "ProtocolSpec",
    "Ensemble",
    "ScheduledStep",
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


_TRANSIT = {SERVER: "A->B", CLIENT: "B->A"}  # sender -> in-transit tag
_ARRIVAL = {"A->B": CLIENT, "B->A": SERVER}  # in-transit tag -> receiver


@dataclass(frozen=True)
class ScheduledStep:
    """Global step ``t``: ``party`` runs ``step``.  ``owner`` tags every
    protocol register that exists right after the step; what the step sent
    is tagged in transit."""

    t: int
    party: str
    step: PartyStep
    owner: dict[str, str]  # read-only: shared by every transcript of the spec


@dataclass(frozen=True)
class ProtocolSpec:
    """Alternating two-party protocol with optional pre-shared setup state.

    The protocol is walked once, when it is built: the walk checks shape and
    ownership and leaves the register widths and :attr:`schedule`, one
    :class:`ScheduledStep` per global step.
    """

    rounds: int
    server: PartyProgram
    client: PartyProgram
    setup: PureState | None = None
    name: str = ""
    schedule: tuple[ScheduledStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

        # The server acts at odd global steps, the client at even ones; a
        # message is in transit until the receiver's step begins.
        schedule = []
        for t in range(1, 2 * s + 1):
            party = SERVER if t % 2 else CLIENT
            step = (self.server if party == SERVER else self.client).steps[(t - 1) // 2]
            for name, tag in owner.items():
                owner[name] = _ARRIVAL.get(tag, tag)
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
                owner[name] = _TRANSIT[party]
            schedule.append(ScheduledStep(t, party, step, dict(owner)))

        for k in range(s):
            a, b = self.server.steps[k], self.client.steps[k]
            received = self.client.steps[k - 1].sends if k >= 1 else ()
            a_active = a.ops or a.sends or received
            if not (a_active or b.ops or b.sends):
                raise ProtocolShapeError(
                    f"round {k + 1} is degenerate: nothing done, sent, or received"
                )
        object.__setattr__(self, "schedule", tuple(schedule))
        object.__setattr__(self, "_widths", widths)

    def validate(self) -> dict[str, int]:
        """The register width table for everything the protocol ever holds,
        from the walk made when the spec was built."""
        return dict(self._widths)


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

    ``vectors`` is the :class:`~qpirlab.channels.Support` of a ``(B, dim)``
    array (a dense one given to the constructor is taken to its support):
    row ``b`` is branch ``b`` under the big-endian convention of
    :mod:`qpirlab.states`, and the state is the sum of the rows' outer
    products.  Every reader but :meth:`dense`, which scatters a fresh array
    on every call, works on the support.
    """

    __slots__ = ("layout", "vectors")

    def __init__(self, layout: RegisterLayout, vectors):
        if not isinstance(vectors, Support):
            vectors = np.asarray(vectors, dtype=np.complex128)
        if len(vectors.shape) != 2 or vectors.shape[1] != layout.dim:
            raise StateError(f"branch array has shape {vectors.shape}, expected (B, {layout.dim})")
        self.layout = layout
        self.vectors = vectors if isinstance(vectors, Support) else Support.of(vectors)

    @classmethod
    def from_pure(cls, state: PureState) -> "Ensemble":
        return cls(state.layout, state.amplitudes[None])

    def dense(self) -> np.ndarray:
        """The ``(B, dim)`` branch array, scattered afresh from the support."""
        return self.vectors.dense()

    @property
    def is_pure(self) -> bool:
        return len(self.vectors) == 1

    def to_pure(self) -> PureState:
        if not self.is_pure:
            raise StateError(f"ensemble has {len(self.vectors)} branches, not pure")
        return PureState.from_vector(self.layout, self.dense()[0], normalize=True)

    def apply(self, op: ChannelOp) -> "Ensemble":
        return Ensemble(op.output_layout(self.layout), op.apply_vectors(self.vectors, self.layout))

    def tensor(self, other: "Ensemble") -> "Ensemble":
        """Product ensemble; ``other``'s registers are appended to the layout
        and the branches are ``a (x) b for a in self for b in other``."""
        layout = self.layout.extended(other.layout.registers)
        check_branches(len(self.vectors) * len(other.vectors), layout.dim,
                       what=f"tensor with {other.layout.names}")
        prod = self.dense()[:, None, :, None] * other.dense()[None, :, None, :]
        return Ensemble(layout, prod.reshape(-1, layout.dim))

    def reduced(self, names) -> DensityOperator:
        """Reduced density operator on ``names``, its basis big-endian in the
        given name order."""
        return gram_reduce(self.dense(), self.layout, names)

    def traced(self, names) -> "Ensemble":
        """Ensemble over the remaining registers after discarding ``names``:
        one branch per (branch, discarded label) pair above
        ``states.BRANCH_PRUNE``, branch-major (:meth:`Support.split`), with
        the kept registers' bits packed into the new index."""
        lay, out = self.layout, self.layout.without(names)
        sup = self.vectors.split(lay.total_qubits, lay.slots(names), out.dim,
                                 what=f"tracing out {tuple(names)}")
        index = _gather(sup.index, lay.total_qubits, lay.slots(out.names))
        return Ensemble(out, Support(sup.shape, sup.branch, index, sup.value))

    def aligned_vectors(self, names) -> np.ndarray:
        """Branch array permuted to the given register-name order, which
        must be a permutation of the layout's names: each entry's index bits
        are permuted (``_gather``) and the entries scattered once."""
        names = tuple(names)
        if names == self.layout.names:
            return self.dense()
        if sorted(names) != sorted(self.layout.names):
            raise LayoutError(f"alignment order {names} is not a permutation of the layout "
                              f"{self.layout.names}")
        sup = self.vectors
        index = _gather(sup.index, self.layout.total_qubits, self.layout.ordered_slots(names))
        return Support(sup.shape, sup.branch, index, sup.value).dense()

    def probabilities(self, names) -> np.ndarray:
        """Marginal outcome distribution of ``names``, indexed big-endian in
        the given name order: each entry's squared value added to its label
        with one ``bincount``, and nothing scattered."""
        sup, slots = self.vectors, self.layout.ordered_slots(names)
        return np.bincount(_gather(sup.index, self.layout.total_qubits, slots),
                           np.abs(sup.value) ** 2, minlength=1 << len(slots))


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class ExecutionTranscript:
    """The ensembles one run kept, read against the spec's schedule.

    This is the only reader of the owner tags: analyses ask for
    :meth:`owned`, :meth:`in_transit` and :meth:`server_view`.
    """

    def __init__(self, spec: ProtocolSpec, ensembles, references: tuple[str, ...]):
        self.spec = spec
        self.ensembles: tuple[Ensemble | None, ...] = tuple(ensembles)
        self.references = references
        self.final: Ensemble = self.ensembles[-1]
        # decode_distribution of the final state, by (output, index) register
        self.decoded: dict[tuple[str, str | None], np.ndarray] = {}

    @property
    def steps(self) -> int:
        return len(self.ensembles)

    def ensemble(self, t: int) -> Ensemble:
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} out of range 1..{self.steps}")
        ens = self.ensembles[t - 1]
        if ens is None:
            raise StateError(f"step {t} was not retained (streaming run)")
        return ens

    def ownership(self, t: int) -> dict[str, str]:
        """Owner tag of every register at step t; references are ``R``."""
        if not 1 <= t <= self.steps:
            raise IndexError(f"step {t} out of range 1..{self.steps}")
        return {**self.spec.schedule[t - 1].owner, **dict.fromkeys(self.references, REFEREE)}

    def _tagged(self, t: int, tags) -> tuple[str, ...]:
        own = self.ownership(t)
        return tuple(n for n in self.ensemble(t).layout.names if own[n] in tags)

    def owned(self, t: int, party: str) -> tuple[str, ...]:
        """Registers ``party`` holds at step t, in layout order."""
        return self._tagged(t, (party,))

    def in_transit(self, t: int) -> tuple[str, ...]:
        """Registers sent at step t and not yet received, in layout order."""
        return self._tagged(t, _ARRIVAL)

    def server_view(self, t: int) -> Ensemble:
        """The server's view at step t: its memory, the in-flight messages
        and the reference, i.e. the step-t ensemble with the client's
        registers traced out."""
        client = self.owned(t, CLIENT)
        ens = self.ensemble(t)
        return ens.traced(client) if client else ens


def execute(spec: ProtocolSpec, input_state: PureState | Ensemble | None = None, *,
            keep=None) -> ExecutionTranscript:
    """Run the protocol on an input over the declared input registers.

    The input may carry extra registers beyond the declared inputs; they are
    treated as the untouched reference side.  ``keep`` names the steps whose
    states are retained besides the last; ``None`` retains every step.  The
    setup and the ops act on the support of the branches, and a retained
    step is an :class:`Ensemble` holding its support, whose
    :meth:`Ensemble.dense` is the array that the dense reference gives
    (``dense_execute`` in ``tests/span_reference.py``).  An op that fails
    raises :class:`ProtocolShapeError`, and one that breaks a resource cap raises
    :class:`~qpirlab.config.CapExceeded` again; either names the step, the
    party, the op and its registers (or the setup).
    """
    declared = dict((*spec.server.input_registers, *spec.client.input_registers))

    if input_state is None:
        ens = Ensemble(RegisterLayout(()), np.ones((1, 1), dtype=np.complex128))
    elif isinstance(input_state, PureState):
        ens = Ensemble.from_pure(input_state)
    else:
        ens = input_state

    for name, w in declared.items():
        if not ens.layout.has(name):
            raise ProtocolShapeError(f"input state is missing register {name!r}")
        if ens.layout.width(name) != w:
            raise ProtocolShapeError(
                f"input register {name!r} has width {ens.layout.width(name)}, expected {w}"
            )
    refs = tuple(n for n in ens.layout.names if n not in declared)
    layout, vectors = ens.layout, ens.vectors
    if spec.setup is not None:
        try:
            check_cap(layout.total_qubits + spec.setup.layout.total_qubits, what="state")
            vectors = vectors.tensor(spec.setup.amplitudes, what="the setup product")
        except CapExceeded as exc:
            raise CapExceeded(f"setup {list(spec.setup.layout.names)}: {exc}") from exc
        layout = layout.extended(spec.setup.layout.registers)

    kept: list[Ensemble | None] = []
    for st in spec.schedule:
        for op in st.step.ops:
            try:
                out_layout = op.output_layout(layout)
                vectors = op.apply_vectors(vectors, layout)
            except (ChannelError, LayoutError, StateError, CapExceeded) as exc:
                where = (f"step {st.t} ({st.party}): {type(op).__name__} on "
                         f"{[*op.touches, *(n for n, _ in op.creates)]}")
                if isinstance(exc, CapExceeded):
                    raise CapExceeded(f"{where}: {exc}") from exc
                raise ProtocolShapeError(f"{where} failed: {exc}") from exc
            layout = out_layout
        keeps = keep is None or st.t in keep or st is spec.schedule[-1]
        kept.append(Ensemble(layout, vectors) if keeps else None)
    return ExecutionTranscript(spec, kept, refs)


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
    share = PartyStep(ops=(PrepareOp.of_state(spec.setup),),
                      sends=tuple(spec.server.setup_registers))
    return replace(
        spec, rounds=spec.rounds + 1, setup=None,
        server=replace(spec.server, steps=(PartyStep(),) + spec.server.steps, setup_registers=()),
        client=replace(spec.client, steps=(share,) + spec.client.steps, setup_registers=()),
        name=(spec.name + "+folded") if spec.name else "folded",
    )


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------


def _program_to_json(p: PartyProgram) -> dict:
    return {
        "party": p.party,
        "input_registers": to_json_value(p.input_registers, False),
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
        from_json_value(d["input_registers"], False),
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
            "registers": to_json_value(spec.setup.layout.registers, False),
            "amplitudes": to_json_value(spec.setup.amplitudes, True),
        }
    return json.dumps(doc, indent=1)


def spec_from_json(text: str) -> ProtocolSpec:
    doc = json.loads(text)
    setup = None
    if doc["setup"] is not None:
        layout = RegisterLayout(from_json_value(doc["setup"]["registers"], False))
        amps = np.array(from_json_value(doc["setup"]["amplitudes"], True))
        setup = PureState(layout, amps)
    return ProtocolSpec(
        doc["rounds"],
        _program_from_json(doc["server"]),
        _program_from_json(doc["client"]),
        setup,
        doc.get("name", ""),
    )
