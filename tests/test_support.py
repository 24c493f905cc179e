"""``execute`` runs on the support (``channels.Support``) and keeps each
step in that form; it must equal the dense run of
``span_reference.dense_execute`` at every kept step, on every spec and input
kind behind ``scripts/figures.py``, a kept step's ``probabilities`` must
match the dense marginal up to rounding, its ``traced``,
``aligned_vectors`` and database blocks must equal their dense references
row for row, and its support expansions are checked against the qubit cap
before they allocate."""

import math

import numpy as np
import pytest

from qpirlab.adversaries import (adversary_by_name, database_groups, database_runs,
                                 purified_input, standard_inputs)
from qpirlab.channels import HadamardOp, PrepareOp, Support
from qpirlab.config import CapExceeded
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import CLIENT, Ensemble, PartyProgram, PartyStep, ProtocolSpec, execute
from qpirlab.states import PureState, RegisterLayout, marginal
from span_reference import (database_block, dense_aligned, dense_block, dense_execute,
                            dense_traced, gather_slots)

INSTANCES = {
    "k1": lambda: build_kerenidis(1),
    "k2": lambda: build_kerenidis(2),
    "k4": lambda: build_kerenidis(4),
    "k2-cleanup": lambda: build_kerenidis(2, cleanup=True),
    "k4-cleanup": lambda: build_kerenidis(4, cleanup=True),
    "k2-db10": lambda: build_kerenidis(2, database=(1, 0)),
    "cx2": lambda: build_counterexample(2),
    "send-db2": lambda: build_baseline("send-db", 2),
    "send-index2": lambda: build_baseline("send-index", 2),
}

# (instance, adversary): the adversaries the figures run, and the lossy
# family at a second angle
CASES = [(name, None) for name in INSTANCES] + [
    ("k2", adv) for adv in ("honest-purified", "purify-db", "gamma:0.3", "gamma-lossy:0.3",
                            "gamma-lossy:0.1")] + [("cx2", "honest-purified")]
CASE_IDS = [f"{n}-{a}" if a else n for n, a in CASES]


def _inputs(inst, spec, rng):
    """The standard inputs (pure and multi-branch) of the first two
    database groups and of the superposed database, where there is a
    database register; every run input the figures plan (the shared run
    holds every classical database) and one random mixture of 5 basis
    inputs."""
    groups = database_groups(standard_inputs(
        inst, superposed_db=inst.database_register is not None))
    inputs = [ins.state for members in groups[:2] + groups[2:][-1:] for ins in members]
    groups = database_groups(standard_inputs(inst))
    inputs += [run for run, _ in database_runs(inst, groups, (spec,), ())]
    if inst.database_register is not None:
        basis = [inst.basis_input(int(rng.integers(1 << inst.n)), int(rng.integers(inst.n)) + 1)
                 .amplitudes for _ in range(5)]
        weights = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        inputs.append(Ensemble(inst.basis_input(0, 1).layout, weights[:, None] * np.array(basis)))
    return inputs


def _assert_same_run(got, want):
    assert got.references == want.references
    for t, (a, b) in enumerate(zip(got.ensembles, want.ensembles), start=1):
        assert (a is None) == (b is None), t
        if a is not None:
            assert a.layout == b.layout, t
            assert np.array_equal(a.dense(), b.dense()), t


def _case(name, adversary):
    inst = INSTANCES[name]()
    spec = inst.spec if adversary is None else adversary_by_name(inst, adversary).modified_spec(
        inst.spec)
    return spec, _inputs(inst, spec, np.random.default_rng(31000)), inst.database_register


@pytest.mark.parametrize("name,adversary", CASES, ids=CASE_IDS)
def test_execute_equals_the_dense_run_at_every_kept_step(name, adversary):
    spec, inputs, _ = _case(name, adversary)
    for state in inputs:
        _assert_same_run(execute(spec, state), dense_execute(spec, state, None))


@pytest.mark.parametrize("name,adversary", CASES, ids=CASE_IDS)
def test_probabilities_of_a_kept_support_equal_the_dense_marginal(name, adversary):
    # each register alone and every register in reverse order, read from the
    # support first, then from the scattered array.  The two sum a label's m
    # nonzero terms in other orders, each within (m - 1) rounding units of
    # the label's probability p, so they differ by at most m * eps * p.
    spec, inputs, _ = _case(name, adversary)
    assert any(len(state.vectors) > 1 for state in inputs if isinstance(state, Ensemble))
    for state in inputs:
        for ens in execute(spec, state).ensembles:
            orders = [(n,) for n in ens.layout.names] + [ens.layout.names[::-1]]
            got = [ens.probabilities(names) for names in orders]
            sup = ens.vectors
            assert isinstance(sup, Support)
            dense = ens.dense()
            for names, dist in zip(orders, got):
                want = marginal(dense, ens.layout, names)
                terms = np.bincount(gather_slots(sup.index, ens.layout.total_qubits,
                                                 ens.layout.ordered_slots(names)),
                                    minlength=len(want))
                assert np.all(np.abs(dist - want) <= terms * np.finfo(float).eps * want), names


@pytest.mark.parametrize("name,adversary", CASES, ids=CASE_IDS)
def test_support_readers_equal_the_dense_references(name, adversary):
    # every kept step: the trace of the client's registers, the registers
    # in reverse order and every database block, row for row
    spec, inputs, db = _case(name, adversary)
    assert any(len(state.vectors) > 1 for state in inputs if isinstance(state, Ensemble))
    for state in inputs:
        tr = execute(spec, state)
        for t, ens in enumerate(tr.ensembles, start=1):
            client = tr.owned(t, CLIENT)
            if client:
                traced = ens.traced(client)
                assert traced.layout == ens.layout.without(client)
                assert np.array_equal(traced.dense(), dense_traced(ens, client)), t
            names = ens.layout.names[::-1]
            assert np.array_equal(ens.aligned_vectors(names), dense_aligned(ens, names)), t
            if db is not None and ens.layout.has(db):
                for x in range(1 << ens.layout.width(db)):
                    block = database_block(ens, db, x)
                    assert block.layout == ens.layout
                    assert np.array_equal(block.dense(), dense_block(ens, db, x)), (t, x)


def test_execute_keeps_the_steps_it_is_asked_for():
    k2 = build_kerenidis(2)
    state = purified_input(k2.spec, k2.database_state(2))
    for keep in ((), (2,), (1, 3)):
        got = execute(k2.spec, state, keep=keep)
        _assert_same_run(got, dense_execute(k2.spec, state, keep))
        assert [t for t in range(1, got.steps + 1) if got.ensembles[t - 1] is not None] == sorted(
            {*keep, got.steps})


DB8 = (1, 0, 1, 1, 0, 0, 1, 0)


def _decode_run():
    k8 = build_kerenidis(8, database=DB8)
    return k8, PureState(RegisterLayout(((k8.index_register, k8.levels),)),
                         [1 / math.sqrt(8)] * 8)


def test_decode_run_equals_the_dense_run():
    k8, index = _decode_run()
    _assert_same_run(execute(k8.spec, index, keep=()), dense_execute(k8.spec, index, ()))


def test_decoding_and_counting_branches_leave_the_final_state_on_its_support():
    # a benchmark observer reads len(final.vectors) after the run; neither
    # it nor the decode may scatter the 2**20-amplitude final state
    k8, index = _decode_run()
    tr = execute(k8.spec, index, keep=())
    assert [k8.decode(tr, i)[0] for i in range(1, 9)] == list(DB8)
    assert len(tr.final.vectors) == 1
    assert isinstance(tr.final.vectors, Support)


def _one_step_spec(ops, width):
    server = PartyProgram("A", (PartyStep(ops),), (("r", width),))
    return ProtocolSpec(1, server, PartyProgram("B", (PartyStep(),)))


def test_a_hadamard_expansion_past_the_cap_names_the_op(monkeypatch):
    # 4 branches of 6 qubits, each with every amplitude nonzero: each of
    # the Hadamard's pair products groups 4 x 16 rows of 4, which is past
    # 2**7 amplitudes at cap 7, while every layout fits it
    layout = RegisterLayout((("r", 6),))
    vectors = np.random.default_rng(31001).normal(size=(4, layout.dim)) + 0.5
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "7")
    with pytest.raises(CapExceeded, match=r"step 1 \(A\): HadamardOp on \['r'\]: "
                                          r"a local product on qubits \[0, 1\] needs 64 "):
        execute(_one_step_spec((HadamardOp("r"),), 6), Ensemble(layout, vectors))
    # one branch stays within the cap
    execute(_one_step_spec((HadamardOp("r"),), 6), Ensemble(layout, vectors[:1]))


def test_a_preparation_past_the_cap_names_the_op(monkeypatch):
    # 2 x 64 entries times 4 nonzero preparation amplitudes, past 2**8 at
    # cap 8, while the 8-qubit output layout fits it
    layout = RegisterLayout((("r", 6),))
    prep = PrepareOp((("p", 2),), (0.5,) * 4)
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "8")
    with pytest.raises(CapExceeded, match=r"step 1 \(A\): PrepareOp on \['p'\]: preparing "
                                          r"\['p'\] needs 128 branches x 4 amplitudes"):
        execute(_one_step_spec((prep,), 6), Ensemble(layout, np.ones((2, layout.dim))))


def test_a_setup_product_past_the_cap_names_the_setup(monkeypatch):
    # 2 x 16 input entries times the setup's 4 nonzero amplitudes, past 2**6
    # at cap 6, while the 6-qubit layout fits it
    setup = PureState(RegisterLayout((("sa", 1), ("sb", 1))), [0.5] * 4)
    spec = ProtocolSpec(1, PartyProgram("A", (PartyStep((HadamardOp("sa"),)),), (("r", 4),),
                                        ("sa",)),
                        PartyProgram("B", (PartyStep(),), (), ("sb",)), setup)
    layout = RegisterLayout((("r", 4),))
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "6")
    with pytest.raises(CapExceeded, match=r"setup \['sa', 'sb'\]: the setup product needs 32 "
                                          r"branches x 4 amplitudes"):
        execute(spec, Ensemble(layout, np.ones((2, layout.dim))))
    # one branch's 16 x 4 products fit the cap
    execute(spec, Ensemble(layout, np.ones((1, layout.dim))))
