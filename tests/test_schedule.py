"""The step schedule a ProtocolSpec walks once, against a reference walk."""

from qpirlab.adversaries import gamma_family, purification_attack, purified_honest
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import ProtocolSpec, execute, fold_setup_into_messages

TRANSIT = ("A->B", "B->A")


def reference_owners(spec):
    """Per-step owner tags from a fresh walk of the programs: transits from
    the previous step resolve, created registers go to the acting party and
    the step's sends go in transit.  Returns (t, party, step, owner) tuples."""
    owner = {}
    for n, _ in spec.server.input_registers:
        owner[n] = "A"
    for n, _ in spec.client.input_registers:
        owner[n] = "B"
    if spec.setup is not None:
        for n in spec.setup.layout.names:
            owner[n] = "A" if n in spec.server.setup_registers else "B"
    out = []
    for t in range(1, 2 * spec.rounds + 1):
        party = "A" if t % 2 else "B"
        program = spec.server if party == "A" else spec.client
        step = program.steps[(t - 1) // 2]
        for n, o in list(owner.items()):
            if o == "A->B":
                owner[n] = "B"
            elif o == "B->A":
                owner[n] = "A"
        for op in step.ops:
            for n, _ in op.creates:
                owner[n] = party
        for n in step.sends:
            owner[n] = "A->B" if party == "A" else "B->A"
        out.append((t, party, step, dict(owner)))
    return out


def _instances():
    out = []
    for n in (1, 2, 4, 8):
        for cleanup in (False, True):
            out.append(build_kerenidis(n, cleanup=cleanup))
            out.append(build_kerenidis(n, cleanup=cleanup, database=tuple(j % 2 for j in range(n))))
    for kind in ("send-db", "send-index"):
        out.append(build_baseline(kind, 2))
        out.append(build_baseline(kind, 2, database=(0, 1)))
    out.append(build_counterexample(1))
    out.append(build_counterexample(2))
    return out


def _specs():
    specs = []
    for inst in _instances():
        specs.append(inst.spec)
        advs = [purified_honest(inst)]
        if inst.database_register is not None:
            advs += [purification_attack(inst), gamma_family(inst, 0.3),
                     gamma_family(inst, 0.3, lossy=True)]
        specs += [adv.modified_spec(inst.spec) for adv in advs]
    specs += [fold_setup_into_messages(spec) for spec in specs if spec.setup is not None]
    return specs


def test_schedule_matches_reference_walk(monkeypatch):
    # the n = 8 quantum-database specs are only walked, never executed
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "32")
    specs = _specs()
    assert len(specs) == 127
    names = {spec.name for spec in specs}
    assert {"kerenidis(n=8, cleanup)", "counterexample(n=1)~honest-purified",
            "kerenidis(n=4)~gamma-lossy:0.3+folded"} <= names
    for spec in specs:
        ref = reference_owners(spec)
        assert len(spec.schedule) == len(ref) == 2 * spec.rounds
        for st, (t, party, step, owner) in zip(spec.schedule, ref):
            assert (st.t, st.party, st.step) == (t, party, step), spec.name
            assert st.owner == owner, (spec.name, t)
            in_transit = {n for n, tag in st.owner.items() if tag in TRANSIT}
            assert in_transit == set(step.sends), (spec.name, t)


def test_execute_reads_the_schedule_without_revalidating(monkeypatch):
    inst = build_kerenidis(2)

    def fail(self):
        raise AssertionError("execute called validate()")

    monkeypatch.setattr(ProtocolSpec, "validate", fail)
    tr = execute(inst.spec, inst.basis_input(0b01, 1))
    assert tr.steps == len(inst.spec.schedule)
    assert tr.ownership(tr.steps) == inst.spec.schedule[-1].owner

