import math

import numpy as np
import pytest

from qpirlab.channels import HadamardOp
from qpirlab.distances import partial_trace, trace_distance
from qpirlab.protocols import (
    build_baseline,
    build_counterexample,
    build_kerenidis,
    database_bits,
    decode_distribution,
    decode_output,
    epr_pair_state,
)
from qpirlab.runtime import Ensemble, communication, execute
from qpirlab.states import DensityOperator, PureState, RegisterLayout
from qpirlab.config import CapExceeded
from span_reference import to_pure


def all_databases(n):
    return [tuple((d >> (n - 1 - j)) & 1 for j in range(n)) for d in range(1 << n)]


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_client_uniform_state(n):
    inst = build_kerenidis(n, database=(0,) * n)
    state = inst.client_uniform_state()
    if n == 1:  # the index register is elided
        assert state.layout.registers == () and state.amplitudes.tolist() == [1]
        return
    # bit for bit the state the callers wrote out by hand
    by_hand = PureState(RegisterLayout(((inst.index_register, inst.levels),)),
                        np.full(n, 1 / math.sqrt(n), dtype=complex))
    assert state.layout == by_hand.layout
    assert np.array_equal(state.amplitudes, by_hand.amplitudes)
    np.testing.assert_allclose(state.probabilities([inst.index_register]), 1 / n, rtol=1e-15)
    tr = inst.run(input_state=state, keep_states=False)
    assert [inst.decode(tr, i) == (0, pytest.approx(1.0)) for i in range(1, n + 1)] == [True] * n


class TestKerenidis:
    def test_n1_sends_db_as_f(self):
        inst = build_kerenidis(1)
        bill = communication(inst.spec)
        assert (bill.m_a, bill.m_b, bill.total, bill.rounds) == (1, 0, 1, 1)
        for db in ((0,), (1,)):
            tr = inst.run(db, 1)
            bit, prob = inst.decode(tr, 1)
            assert (bit, prob) == (db[0], pytest.approx(1.0))

    def test_n2_state_after_qft_step(self):
        # after the transforms the shared pair is sum_y |y>_R |y xor DB_b*>_R';
        # the builder has already copied R into F at that boundary, so undo
        # that (reversible) copy before reading the pair off the transcript
        from qpirlab.channels import CopyOp

        inst = build_kerenidis(2)
        for db in all_databases(2):
            for i in (1, 2):
                tr = inst.run(db, i)
                ens = tr.ensemble(3)
                assert ens.is_pure
                state = to_pure(ens.apply(HadamardOp("r1c")).apply(CopyOp("r1", "f")))
                got = partial_trace(state, ["r1", "r1c"])
                want = np.zeros(4, dtype=complex)
                d = db[i - 1]
                for y in (0, 1):
                    want[y * 2 + (y ^ d)] = 2**-0.5
                assert trace_distance(got, DensityOperator.from_pure(want)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_perfect_correctness_exhaustive(self, n):
        inst = build_kerenidis(n)
        for db in all_databases(n):
            for i in range(1, n + 1):
                bit, prob = inst.decode(inst.run(db, i, keep_states=False), i)
                assert bit == db[i - 1]
                assert prob >= 1 - 1e-9

    def test_classical_and_quantum_paths_agree(self):
        for n in (2, 4):
            for db in all_databases(n)[:6]:
                q = build_kerenidis(n)
                c = build_kerenidis(n, database=db)
                for i in range(1, n + 1):
                    tq = q.run(db, i, keep_states=False)
                    tc = c.run(index=i, keep_states=False)
                    dq = decode_distribution(tq, output_register=q.output_register)
                    dc = decode_distribution(tc, output_register=c.output_register)
                    assert np.max(np.abs(dq - dc)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_communication_closed_forms(self, n):
        levels = n.bit_length() - 1
        plain = communication(build_kerenidis(n, database=(0,) * n).spec)
        assert plain.total == 4 * levels + 1
        assert plain.rounds == 2 * levels + 1
        cleaned = communication(build_kerenidis(n, cleanup=True, database=(0,) * n).spec)
        assert cleaned.total == 2 * (4 * levels + 1)
        assert cleaned.rounds == 2 * (2 * levels + 1)

    @pytest.mark.parametrize("n", [2, 4])
    def test_cleanup_restores_setup_and_decodes(self, n):
        inst = build_kerenidis(n, cleanup=True)
        setup = inst.spec.setup
        for db in all_databases(n)[:4]:
            for i in (1, n):
                tr = inst.run(db, i, keep_states=False)
                bit, prob = inst.decode(tr, i)
                assert bit == db[i - 1] and prob >= 1 - 1e-9
                names = list(setup.layout.names)
                rho = tr.final.reduced(names)
                vec = setup.aligned_to(RegisterLayout(
                    tuple((m, setup.layout.width(m)) for m in names)))
                overlap = float(np.real(vec.conj() @ rho.matrix @ vec))
                assert overlap >= 1 - 1e-9

    def test_superposed_index_joint_distribution(self):
        # joint (idx, F) outcomes match the classical mixture of fixed-index runs
        inst = build_kerenidis(2)
        db = (0, 1)
        tr = inst.run(input_state=inst.input_with_client(db, inst.client_uniform_state()))
        joint = decode_distribution(tr, output_register=inst.output_register)
        for i in (1, 2):
            np.testing.assert_allclose(joint[i - 1],
                                       [0.5 * (db[i - 1] == 0), 0.5 * (db[i - 1] == 1)],
                                       atol=1e-10)
            bit, prob = inst.decode(tr, i)
            assert bit == db[i - 1] and prob == pytest.approx(1.0)

    def test_quantum_path_capped(self):
        with pytest.raises((CapExceeded, ValueError)):
            build_kerenidis(8)

    def test_not_power_of_two(self):
        with pytest.raises(ValueError):
            build_kerenidis(3)


class TestBaselines:
    def test_send_db(self):
        inst = build_baseline("send-db", 4)
        bill = communication(inst.spec)
        assert (bill.m_a, bill.m_b) == (4, 0)
        db = (0, 1, 1, 0)
        bit, prob = inst.decode(inst.run(db, 3), 3)
        assert (bit, prob) == (1, pytest.approx(1.0))

    def test_send_index(self):
        inst = build_baseline("send-index", 4)
        bill = communication(inst.spec)
        assert (bill.m_a, bill.m_b) == (1, 2)
        db = (1, 0, 0, 1)
        for i in (1, 4):
            bit, prob = inst.decode(inst.run(db, i), i)
            assert (bit, prob) == (db[i - 1], pytest.approx(1.0))

    def test_send_index_classical_path(self):
        inst = build_baseline("send-index", 2, database=(1, 0))
        for i in (1, 2):
            bit, prob = inst.decode(inst.run(index=i), i)
            assert (bit, prob) == ((1, 0)[i - 1], pytest.approx(1.0))


class TestCounterexample:
    def test_correctness_unchanged(self):
        inst = build_counterexample(2)
        for db in all_databases(2):
            for i in (1, 2):
                bit, prob = inst.decode(inst.run(db, i, keep_states=False), i)
                assert bit == db[i - 1] and prob >= 1 - 1e-9

    def test_honest_run_is_mixed(self):
        inst = build_counterexample(2)
        tr = inst.run((1, 0), 1)
        assert len(tr.final.vectors) == 4  # one branch per measured database
        v = tr.ensemble(tr.steps).dense()
        assert np.sum(np.abs(v.conj() @ v.T) ** 2) < 0.999

    def test_n1(self):
        inst = build_counterexample(1)
        for db in ((0,), (1,)):
            bit, prob = inst.decode(inst.run(db, 1), 1)
            assert (bit, prob) == (db[0], pytest.approx(1.0))


def test_decode_requires_output_register():
    inst = build_baseline("send-db", 2)
    tr = inst.run((0, 1), 1)
    with pytest.raises(Exception, match="absent"):
        decode_output(tr, 1, output_register="nope")


def test_decode_reduces_the_final_state_once(monkeypatch):
    inst = build_kerenidis(4, database=(0, 1, 1, 0))
    tr = inst.run(input_state=inst.client_uniform_state(), keep_states=False)
    calls = []
    inner = Ensemble.probabilities
    monkeypatch.setattr(Ensemble, "probabilities",
                        lambda self, names: calls.append(names) or inner(self, names))
    assert [inst.decode(tr, i)[0] for i in range(1, 5)] == [0, 1, 1, 0]
    assert calls == [("idx", "f")]
    dist = decode_distribution(tr, output_register="f")
    assert dist is decode_distribution(tr, output_register="f") and dist.shape == (4, 2)
    with pytest.raises(ValueError, match="read-only"):
        dist[0, 0] = 1.0
    with pytest.raises(ValueError, match="out of range"):
        inst.decode(tr, 5)


def test_database_bits_forms():
    assert database_bits(0b0110, 4) == (0, 1, 1, 0)
    assert database_bits("0110", 4) == (0, 1, 1, 0)
    assert database_bits((0, 1, 1, 0), 4) == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        database_bits((0, 1), 4)
