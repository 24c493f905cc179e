"""Adversary constructors and the speciousness meter.

An adversary here is a replacement server program over an enlarged register
set, together with per-step recovery operations mapping its state back onto
the honest register set.  A recovery is a list of operations on
adversary-side registers followed by a set of private registers to discard;
the speciousness of an adversary is the worst-case trace distance between
the recovered global state and the honest one, taken over a finite,
documented test-input set and over every protocol step.

The measured gamma is therefore a certified lower bound on the true
worst-case figure; the families constructed in this module attain their
worst case on the standard set by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    ChannelOp,
    CopyOp,
    HadamardOp,
    MeasureOp,
    PrepareOp,
    RotateOp,
    SwapOp,
)
from .config import CapExceeded
from .protocols import QpirInstance, epr_pair_state
from .runtime import (
    SERVER,
    Ensemble,
    ExecutionTranscript,
    PartyProgram,
    PartyStep,
    ProtocolShapeError,
    ProtocolSpec,
    execute,
)
from .states import PureState, RegisterLayout

__all__ = [
    "Recovery",
    "Adversary",
    "InputSpec",
    "client_variants",
    "standard_inputs",
    "purified_honest",
    "purification_attack",
    "gamma_family",
    "SpeciousnessReport",
    "measure_speciousness",
    "adversary_by_name",
]


@dataclass(frozen=True)
class Recovery:
    """Operations on adversary-side registers, then registers to discard."""

    ops: tuple[ChannelOp, ...] = ()
    discard: tuple[str, ...] = ()


@dataclass(frozen=True)
class Adversary:
    """A server-side adversary: replacement program plus recovery operators.

    ``recoveries`` has one entry per global step (length ``2 s``); ``None``
    means the adversary ships no recovery operators at all.
    """

    name: str
    program: PartyProgram
    recoveries: tuple[Recovery, ...] | None
    extra_registers: tuple[str, ...] = ()
    notes: str = ""

    def modified_spec(self, spec: ProtocolSpec) -> ProtocolSpec:
        return ProtocolSpec(spec.rounds, self.program, spec.client, spec.setup,
                            f"{spec.name}~{self.name}")

    def run(self, spec: ProtocolSpec, input_state, **kw) -> ExecutionTranscript:
        return execute(self.modified_spec(spec), input_state, **kw)


# ---------------------------------------------------------------------------
# the standard test-input set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InputSpec:
    """One named test input.

    ``x_label`` groups inputs sharing a server-side database state and
    ``db`` is that database as an int label (``None`` when the instance
    bakes its database in or the database is superposed);
    ``marginal_key`` groups inputs whose client part leaves the same
    marginal on the reference side, which is the comparison class for
    privacy lower bounds.
    """

    label: str
    x_label: str
    db: int | None
    marginal_key: str
    state: PureState | Ensemble
    reference: tuple[str, ...] = ()


def client_variants(instance: QpirInstance, kinds=("classical", "uniform", "entangled", "correlated")):
    """Client-side input states over the index register (plus a reference).

    Returns tuples (label, marginal_key, state, reference_names).
    """
    n, reg, width = instance.n, instance.index_register, instance.levels
    out = []
    if reg is None:
        return [("i=1", "plain", PureState(RegisterLayout(()), np.ones(1, dtype=complex)), ())]
    layout = RegisterLayout(((reg, width),))
    if "classical" in kinds:
        for i in range(1, n + 1):
            out.append((f"i={i}", "plain", PureState.basis(layout, {reg: i - 1}), ()))
    if "uniform" in kinds:
        out.append(("i-uniform", "plain",
                    PureState(layout, np.full(n, 1 / math.sqrt(n), dtype=complex)), ()))
    epr = epr_pair_state(reg, "refi", width)
    if "entangled" in kinds:
        out.append(("i-entangled", "refmix", epr, ("refi",)))
    if "correlated" in kinds:
        # one branch per term of the entangled input: the same marginals,
        # without the coherence
        terms = np.diag(epr.amplitudes)[::n + 1]
        out.append(("i-correlated", "refmix", Ensemble(epr.layout, terms), ("refi",)))
    return out


# The standard set holds every classical database, of which there may be at
# most this many.
_MAX_DATABASES = 16


def standard_inputs(instance: QpirInstance, *, superposed_db: bool = False) -> list[InputSpec]:
    """The documented finite test-input set.

    Anchored databases are every classical value; an instance with more than
    16 of them raises :class:`CapExceeded` rather than test a subset.
    ``superposed_db=True`` additionally pairs the uniform database
    superposition with each classical index, which is what the unrestricted
    speciousness quantification needs.
    """
    n = instance.n
    variants = client_variants(instance)
    if instance.database_register is None:
        return [InputSpec(label, "x=built-in", None, key, state, refs)
                for label, key, state, refs in variants]
    if 1 << n > _MAX_DATABASES:
        raise CapExceeded(f"standard inputs need all {1 << n} databases of "
                          f"{instance.spec.name}, cap is {_MAX_DATABASES}")
    inputs: list[InputSpec] = []
    for db in range(1 << n):
        xl = f"x={db:0{n}b}"
        for label, key, state, refs in variants:
            inputs.append(InputSpec(f"{xl},{label}", xl, db, key,
                                    instance.input_with_client(db, state), refs))
    if superposed_db:
        db_layout = RegisterLayout(((instance.database_register, n),))
        plus = PureState(db_layout, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex))
        for label, key, state, refs in client_variants(instance, ("classical", "uniform")):
            full = plus.tensor(state) if state.layout.registers else plus
            inputs.append(InputSpec(f"x=+,{label}", "x=+", None, key, full, refs))
    return inputs


# ---------------------------------------------------------------------------
# adversary constructors
# ---------------------------------------------------------------------------


def purified_honest(instance: QpirInstance) -> Adversary:
    """The honest server with every measurement deferred to an ancilla.

    Unitary steps are kept as-is; each computational-basis measurement is
    replaced by a copy into a fresh purifying register.  The recovery at
    step t re-measures the registers purified so far and discards the
    purifiers, which reproduces the honest channel exactly, so the measured
    speciousness is zero.
    """
    spec = instance.spec
    widths = spec.validate()
    purified: list[tuple[int, str, str]] = []  # (server round, register, purifier)
    steps = []
    counter = 0
    for k, step in enumerate(spec.server.steps, start=1):
        ops: list[ChannelOp] = []
        for op in step.ops:
            if isinstance(op, MeasureOp):
                counter += 1
                pname = f"purif{counter}"
                w = widths[op.register]
                ops.append(PrepareOp.zeros(((pname, w),)))
                ops.append(CopyOp(op.register, pname))
                purified.append((k, op.register, pname))
            else:
                ops.append(op)
        steps.append(PartyStep(tuple(ops), step.sends))
    program = PartyProgram(SERVER, tuple(steps), spec.server.input_registers,
                           spec.server.setup_registers)
    recoveries = []
    for t in range(1, 2 * spec.rounds + 1):
        done = (t + 1) // 2
        live = [(reg, p) for k, reg, p in purified if k <= done]
        recoveries.append(Recovery(
            ops=tuple(MeasureOp(reg) for reg, _ in live),
            discard=tuple(p for _, p in live),
        ))
    return Adversary(
        name="honest-purified",
        program=program,
        recoveries=tuple(recoveries),
        extra_registers=tuple(p for _, _, p in purified),
    )


def purification_attack(instance: QpirInstance) -> Adversary:
    """The canonical input-purification attack.

    The server swaps its classical database aside and installs the uniform
    superposition entangled with a private mirror register, then follows the
    protocol honestly.  Recovery operators are supplied for the anchored
    comparison only: no recovery exists for the superposed input, which is
    the point of the attack, and the speciousness meter will report a large
    figure accordingly.
    """
    db = instance.database_register
    if db is None:
        raise ProtocolShapeError(
            "the purification attack needs the quantum-database path"
        )
    n = instance.n
    spec = instance.spec
    prefix = (
        PrepareOp.zeros((("junk", n),)),
        PrepareOp.zeros((("adb", n),)),
        SwapOp(db, "junk"),
        HadamardOp(db),
        CopyOp(db, "adb"),
    )
    first = spec.server.steps[0]
    steps = (PartyStep(prefix + first.ops, first.sends),) + spec.server.steps[1:]
    program = PartyProgram(SERVER, steps, spec.server.input_registers,
                           spec.server.setup_registers)
    recovery = Recovery(ops=(SwapOp(db, "junk"),), discard=("adb", "junk"))
    return Adversary(
        name="purify-db",
        program=program,
        recoveries=tuple(recovery for _ in range(2 * spec.rounds)),
        extra_registers=("adb", "junk"),
        notes="recovery applies to the anchored comparison only; none exists "
              "for the purified input",
    )


def gamma_family(instance: QpirInstance, theta: float, lossy: bool = False) -> Adversary:
    """Honest steps plus one ancilla rotation per server step.

    At each server step a fresh ancilla is rotated by ``theta`` controlled
    on the first database qubit.  The proper recovery rotates each ancilla
    back conditioned identically and discards it, which undoes the deviation
    exactly at every step; the ``lossy`` variant discards the ancillas
    without un-rotating, so its measured speciousness grows with ``theta``
    once the test set includes superposed databases.

    The control sits on the database register (rather than a message qubit)
    because it is the one register that never leaves the server, which is
    what makes the proper recovery exact at every step.
    """
    db = instance.database_register
    if db is None:
        raise ProtocolShapeError("the rotation family needs the quantum-database path")
    spec = instance.spec
    ancillas = []
    steps = []
    for k, step in enumerate(spec.server.steps, start=1):
        anc = f"anc{k}"
        ancillas.append(anc)
        extra = (
            PrepareOp.zeros(((anc, 1),)),
            RotateOp((anc, 0), theta, control=(db, 0)),
        )
        steps.append(PartyStep(step.ops + extra, step.sends))
    program = PartyProgram(SERVER, tuple(steps), spec.server.input_registers,
                           spec.server.setup_registers)
    recoveries = []
    for t in range(1, 2 * spec.rounds + 1):
        done = (t + 1) // 2
        live = ancillas[:done]
        if lossy:
            recoveries.append(Recovery(ops=(), discard=tuple(live)))
        else:
            recoveries.append(Recovery(
                ops=tuple(RotateOp((a, 0), -theta, control=(db, 0)) for a in live),
                discard=tuple(live),
            ))
    return Adversary(
        name=f"gamma-lossy:{theta}" if lossy else f"gamma:{theta}",
        program=program,
        recoveries=tuple(recoveries),
        extra_registers=tuple(ancillas),
    )


def adversary_by_name(instance: QpirInstance, name: str) -> Adversary:
    """CLI-facing adversary lookup: ``honest-purified``, ``purify-db``,
    ``gamma:<theta>``, ``gamma-lossy:<theta>``."""
    if name == "honest-purified":
        return purified_honest(instance)
    if name == "purify-db":
        return purification_attack(instance)
    if name.startswith("gamma-lossy:"):
        return gamma_family(instance, float(name.split(":", 1)[1]), lossy=True)
    if name.startswith("gamma:"):
        return gamma_family(instance, float(name.split(":", 1)[1]))
    raise ValueError(f"unknown adversary {name!r}")


# ---------------------------------------------------------------------------
# the speciousness meter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeciousnessReport:
    adversary: str
    rows: tuple[tuple[str, int, float], ...]  # (input label, step, distance)
    gamma_hat: float
    inputs: tuple[str, ...]
    notes: str = ""

    def max_for_input(self, label: str) -> float:
        return max(d for lbl, _, d in self.rows if lbl == label)


def apply_recovery(transcript: ExecutionTranscript, t: int, recovery: Recovery) -> Ensemble:
    """The recovered global state at step t (discards traced out)."""
    ens = transcript.ensemble(t)
    # Recovery domain: the adversary's memory, plus the in-flight message at
    # odd steps only (at even steps the incoming message is out of bounds).
    allowed = set(transcript.owned(t, SERVER))
    if t % 2 == 1:
        allowed |= set(transcript.in_transit(t))
    for op in recovery.ops:
        stray = set(op.touches) - allowed
        if stray:
            raise ProtocolShapeError(
                f"recovery at step {t} touches non-adversary registers {sorted(stray)}"
            )
        ens = ens.apply(op)
        allowed |= {n for n, _ in op.creates}
    if recovery.discard:
        stray = set(recovery.discard) - allowed
        if stray:
            raise ProtocolShapeError(
                f"recovery at step {t} discards non-adversary registers {sorted(stray)}"
            )
        ens = ens.traced(recovery.discard)
    return ens


def measure_speciousness(instance: QpirInstance, adversary: Adversary) -> SpeciousnessReport:
    """Per-step distances between recovered adversarial and honest states.

    Runs every standard input (with the superposed database, where the
    instance has a database register) through both the honest protocol and
    the adversary, applies the step-t recovery to the adversarial state and
    compares globally (the reference and client side ride along untouched).
    """
    spec = instance.spec
    if adversary.recoveries is None:
        raise ProtocolShapeError(f"adversary {adversary.name} ships no recovery operators")
    if len(adversary.recoveries) != 2 * spec.rounds:
        raise ProtocolShapeError("one recovery per global step is required")
    inputs = standard_inputs(instance, superposed_db=instance.database_register is not None)
    adv_spec = adversary.modified_spec(spec)
    rows = []
    for ins in inputs:
        honest = execute(spec, ins.state)
        dishonest = execute(adv_spec, ins.state)
        for t in range(1, 2 * spec.rounds + 1):
            recovered = apply_recovery(dishonest, t, adversary.recoveries[t - 1])
            target = honest.ensemble(t)
            if set(recovered.layout.names) != set(target.layout.names):
                raise ProtocolShapeError(
                    f"recovered registers {recovered.layout.names} do not match "
                    f"honest registers {target.layout.names} at step {t}"
                )
            rows.append((ins.label, t, recovered.distance(target)))
    gamma_hat = max(d for _, _, d in rows) if rows else 0.0
    return SpeciousnessReport(
        adversary=adversary.name,
        rows=tuple(rows),
        gamma_hat=gamma_hat,
        inputs=tuple(ins.label for ins in inputs),
        notes=adversary.notes,
    )
