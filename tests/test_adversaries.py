import math
import tracemalloc

import numpy as np
import pytest

from qpirlab.adversaries import (
    Recovery,
    adversary_by_name,
    apply_recovery,
    client_variants,
    database_groups,
    database_runs,
    gamma_family,
    measure_speciousness,
    purification_attack,
    purified_honest,
    purified_input,
    standard_inputs,
)
from qpirlab.channels import HadamardOp, MeasureOp, PrepareOp
from qpirlab.distances import paired_distances
from qpirlab.privacy import privacy_lower_bound
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import (Ensemble, PartyProgram, PartyStep, ProtocolShapeError, ProtocolSpec,
                             execute)
from qpirlab.states import LayoutError, RegisterLayout
from span_reference import recover_in_order, steer

# measured once from the exact simulation and frozen; equals sin^2(theta/2)/2,
# attained on the superposed-database inputs at the final step
LOSSY_GAMMA = {
    0.1: 0.0012489586804936823,
    0.2: 0.004983355539689536,
    0.4: 0.019734751499278752,
    math.pi / 2: 0.25,
}


@pytest.fixture(scope="module")
def k2():
    return build_kerenidis(2)


class TestPurifiedHonest:
    def test_zero_specious_on_kerenidis(self, k2):
        report = measure_speciousness(k2, purified_honest(k2))
        assert report.gamma_hat <= 1e-9

    def test_final_state_recovered_exactly(self, k2):
        adv = purified_honest(k2)
        inp = k2.basis_input(0b10, 2)
        honest = execute(k2.spec, inp)
        dishonest = execute(adv.modified_spec(k2.spec), inp)
        t = honest.steps
        recovered = apply_recovery(dishonest, t, adv.recoveries[t - 1])
        d, = paired_distances([(
            recovered.aligned_vectors(honest.ensemble(t).layout.names),
            honest.ensemble(t).dense())])
        assert d <= 1e-10

    def test_counterexample_purification_is_zero_specious(self):
        # the purified variant skips the measurement; recovery re-measures
        cx = build_counterexample(2)
        adv = purified_honest(cx)
        assert any(r.discard for r in adv.recoveries)
        report = measure_speciousness(cx, adv)
        assert report.gamma_hat <= 1e-9

    def test_entangled_inputs_do_not_increase_gamma(self, k2):
        adv = purified_honest(k2)
        report = measure_speciousness(k2, adv)
        ent_rows = [d for lbl, _, d in report.rows if "entangled" in lbl]
        assert ent_rows and max(ent_rows) <= 1e-9


class TestPurificationAttack:
    def test_view_distance_golden_value(self, k2):
        # pinned by the oracle run: the i=1 and i=2 views differ by exactly 1/2
        from qpirlab.privacy import privacy_lower_bound

        adv = purification_attack(k2)
        report = privacy_lower_bound(k2, adv)
        best = max(r.distance for r in report.rows)
        assert best == pytest.approx(0.5, abs=1e-9)
        assert best > 0.05

    def test_against_send_db_nothing_leaks(self):
        sd = build_baseline("send-db", 2)
        from qpirlab.privacy import privacy_lower_bound

        adv = purification_attack(sd)
        report = privacy_lower_bound(sd, adv)
        assert report.eps_lower <= 1e-9

    def test_reduced_state_is_mixture_over_databases(self, k2):
        # tracing the mirror out of the purified run reproduces the honest
        # run on the maximally mixed database
        adv = purification_attack(k2)
        tr = execute(adv.modified_spec(k2.spec), k2.basis_input(0b00, 1))
        t = tr.steps
        attacked = tr.ensemble(t).traced(["adb", "junk"])
        honest_vectors = []
        for x in range(4):
            h = execute(k2.spec, k2.basis_input(x, 1))
            honest_vectors.extend(0.5 * v for v in
                                  h.ensemble(t).aligned_vectors(attacked.layout.names))
        assert paired_distances([(attacked.dense(), np.array(honest_vectors))])[0] <= 1e-9

    def test_needs_quantum_database(self):
        inst = build_kerenidis(2, database=(0, 1))
        with pytest.raises(ProtocolShapeError):
            purification_attack(inst)


class TestGammaFamily:
    def test_theta_zero(self, k2):
        assert measure_speciousness(k2, gamma_family(k2, 0.0)).gamma_hat <= 1e-12
        assert measure_speciousness(k2, gamma_family(k2, 0.0, lossy=True)).gamma_hat <= 1e-12

    @pytest.mark.parametrize("theta", [0.3, 0.9, math.pi / 2])
    def test_proper_recovery_is_exact(self, k2, theta):
        assert measure_speciousness(k2, gamma_family(k2, theta)).gamma_hat <= 1e-9

    @pytest.mark.parametrize("theta,expected", sorted(LOSSY_GAMMA.items()))
    def test_lossy_gamma_matches_fixture(self, k2, theta, expected):
        report = measure_speciousness(k2, gamma_family(k2, theta, lossy=True))
        assert report.gamma_hat == pytest.approx(expected, abs=1e-9)

    def test_lossy_gamma_at_pi_over_2_strictly_positive(self, k2):
        # recovery withheld (identity on the honest registers, ancilla dropped)
        report = measure_speciousness(k2, gamma_family(k2, math.pi / 2, lossy=True))
        assert report.gamma_hat == pytest.approx(0.25, abs=1e-9)
        assert report.gamma_hat > 0.1

    def test_monotone_on_grid(self, k2):
        grid = [0.0, 0.2, 0.5, 0.9, 1.3, math.pi / 2]
        values = [measure_speciousness(k2, gamma_family(k2, t, lossy=True)).gamma_hat
                  for t in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMeter:
    def test_missing_recoveries_rejected(self, k2):
        adv = purified_honest(k2)
        stripped = type(adv)(adv.name, adv.program, None)
        with pytest.raises(ProtocolShapeError, match="recovery"):
            measure_speciousness(k2, stripped)

    def test_recovery_cannot_touch_client_side(self, k2):
        from qpirlab.channels import HadamardOp

        adv = purified_honest(k2)
        bad = Recovery(ops=(HadamardOp("r1c"),))
        broken = type(adv)(adv.name, adv.program, tuple([bad] * len(adv.recoveries)))
        with pytest.raises(ProtocolShapeError, match="non-adversary"):
            measure_speciousness(k2, broken)

    def test_recovery_reaches_in_flight_message_at_odd_steps_only(self, k2):
        # q0 is sent A->B at step 1 and returned B->A at step 2
        tr = k2.run(0b01, 1)
        touch_q0 = Recovery(ops=(HadamardOp("q0"),))
        assert "q0" in tr.in_transit(1) and "q0" in tr.in_transit(2)
        apply_recovery(tr, 1, touch_q0)
        with pytest.raises(ProtocolShapeError, match="non-adversary"):
            apply_recovery(tr, 2, touch_q0)

    @pytest.mark.parametrize("ops", [(), (HadamardOp("r1"),)])
    def test_recovery_cannot_discard_client_side(self, k2, monkeypatch, ops):
        # the check runs before any register is traced or any op applied
        tr = k2.run(0b01, 1)
        calls = []
        for name in ("traced", "apply"):
            monkeypatch.setattr(Ensemble, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(ProtocolShapeError,
                           match=r"recovery at step 1 discards non-adversary registers \['r1c'\]"):
            apply_recovery(tr, 1, Recovery(ops=ops, discard=("r1c",)))
        assert calls == []

    def test_a_created_register_is_discarded_after_the_ops(self, k2, monkeypatch):
        tr = k2.run(0b01, 1)
        traced = []
        inner = Ensemble.traced

        def recording(self, names):
            traced.append((tuple(names), self.layout.has("fresh")))
            return inner(self, names)
        monkeypatch.setattr(Ensemble, "traced", recording)
        recovery = Recovery(ops=(PrepareOp.zeros((("fresh", 1),)),), discard=("fresh", "r1"))
        got = apply_recovery(tr, 1, recovery)
        # r1, which no op touches, goes first; fresh only once it exists
        assert traced == [(("r1",), False), (("fresh",), True)]
        want = tr.ensemble(1).traced(("r1",))
        assert got.layout == want.layout
        np.testing.assert_array_equal(got.dense(), want.dense())

    def test_report_carries_inventory(self, k2):
        report = measure_speciousness(k2, purified_honest(k2))
        assert any("x=01" in label for label in report.inputs)
        assert any("x=+" in label for label in report.inputs)
        first = max(d for label, _, d in report.rows if label == report.inputs[0])
        assert first <= report.gamma_hat + 1e-15


@pytest.mark.parametrize("instance,name", [
    ("cx2", "honest-purified"),
    *(("k2", name) for name in ("honest-purified", "purify-db", "gamma:0.3", "gamma-lossy:0.3")),
])
def test_recovery_equals_the_in_order_reference_on_every_planned_run(instance, name):
    # tracing the discards no op touches first gives the rows of the ops
    # first, in the same order: each (branch, discarded label) of these
    # runs has one outcome per measurement
    inst = build_counterexample(2) if instance == "cx2" else build_kerenidis(2)
    adv = adversary_by_name(inst, name)
    adv_spec = adv.modified_spec(inst.spec)
    groups = database_groups(standard_inputs(inst, superposed_db=True))
    ops = [op for recovery in adv.recoveries for op in recovery.ops]
    for run_input, _ in database_runs(inst, groups, (inst.spec, adv_spec), ops):
        tr = execute(adv_spec, run_input)
        for t, recovery in enumerate(adv.recoveries, start=1):
            got, want = apply_recovery(tr, t, recovery), recover_in_order(tr, t, recovery)
            assert got.layout == want.layout
            np.testing.assert_array_equal(got.dense(), want.dense())


def test_tracing_first_gives_the_in_order_rows_up_to_their_order(rng):
    # every branch puts m, d and s in independent superpositions, so each
    # (branch, d label) has several outcomes of m: the rows come in another
    # order, (branch, d label, outcome) rather than (branch, outcome, d label)
    regs = (("m", 2), ("d", 2), ("s", 1))
    prepare = PartyStep((PrepareOp.zeros((("p", 1),)),))
    spec = ProtocolSpec(1, PartyProgram("A", (prepare,), input_registers=regs),
                        PartyProgram("B", (PartyStep(),)))
    branches = []
    for _ in range(3):
        parts = [rng.normal(size=1 << w) + 1j * rng.normal(size=1 << w) for _, w in regs]
        branches.append(np.kron(np.kron(parts[0], parts[1]), parts[2]))
    tr = execute(spec, Ensemble(RegisterLayout(regs), np.array(branches)))
    for recovery in (Recovery((MeasureOp("m"),), ("d",)),
                     Recovery((MeasureOp("m"), HadamardOp("s")), ("d", "s")),
                     Recovery((HadamardOp("s"), MeasureOp("m")), ("m", "d"))):
        got, want = apply_recovery(tr, 1, recovery), recover_in_order(tr, 1, recovery)
        assert got.layout == want.layout
        assert len(got.vectors) == len(want.vectors)
        assert sorted(map(bytes, got.dense())) == sorted(map(bytes, want.dense()))


def test_purification_consistency_at_register_level(k2):
    # tracing the private ancillas out of an anchored run reproduces the
    # honest state on the honest registers within the declared gamma
    for adv, gamma in ((purified_honest(k2), 0.0),
                       (gamma_family(k2, 0.5), 0.0),
                       (gamma_family(k2, 0.5, lossy=True), LOSSY_GAMMA[0.4])):
        inp = k2.basis_input(0b10, 1)
        honest = execute(k2.spec, inp)
        dishonest = execute(adv.modified_spec(k2.spec), inp)
        t = honest.steps
        traced = dishonest.ensemble(t).traced(adv.recoveries[-1].discard)
        d, = paired_distances([(
            traced.aligned_vectors(honest.ensemble(t).layout.names),
            honest.ensemble(t).dense())])
        # anchored inputs keep the ancillas unentangled for these families
        assert d <= max(gamma, 1e-9) + 1e-9


def test_adversary_by_name(k2):
    assert adversary_by_name(k2, "honest-purified").name == "honest-purified"
    assert adversary_by_name(k2, "purify-db").name == "purify-db"
    assert adversary_by_name(k2, "gamma:0.25").name == "gamma:0.25"
    assert adversary_by_name(k2, "gamma-lossy:0.25").name == "gamma-lossy:0.25"
    with pytest.raises(ValueError):
        adversary_by_name(k2, "mallory")


def test_client_variants_cover_documented_set(k2):
    labels = [v[0] for v in client_variants(k2)]
    assert labels == ["i=1", "i=2", "i-uniform", "i-entangled", "i-correlated"]
    inputs = standard_inputs(k2, superposed_db=True)
    assert sum(1 for i in inputs if i.x_label == "x=+") > 0


def test_steering_refuses_a_client_that_does_not_fit_the_run(k2):
    # a purified run needs a client state with an index register, and a
    # run without the purifier (no client input) one without
    run = execute(k2.spec, purified_input(k2.spec, k2.database_state(1))).final
    k1 = build_kerenidis(1)
    plain = execute(k1.spec, purified_input(k1.spec, k1.database_state(1))).final
    no_index = client_variants(k1)[0][2]
    with pytest.raises(LayoutError, match="do not fit"):
        steer(run, no_index, ())
    with pytest.raises(LayoutError, match="do not fit"):
        steer(plain, k2.client_basis_state(1), ())
    assert steer(plain, no_index, ()) is plain
    assert "refi" not in steer(run, k2.client_basis_state(1), ()).layout.names


# The meter's tracemalloc peak below when this bound was set (Python 3.11,
# numpy 2.4), with each recovery's untouched discards traced before its ops.
# Measuring before the discard (the ops first, then every discard) reads
# 19.18 MiB and fails it; taking the span only after the step loop, which
# keeps every step's full recovered state alive, reads more.
_METER_PEAK_MIB = 15.71


def test_meter_peak_memory_stays_at_one_step():
    cx = build_counterexample(2)
    adv = purified_honest(cx)
    measure_speciousness(cx, adv)  # warm-up: caches and imports
    tracemalloc.start()
    try:
        measure_speciousness(cx, adv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 1.1 * _METER_PEAK_MIB


# The lower bound's tracemalloc peak on kerenidis n = 4 when this bound was
# set (Python 3.11, numpy 2.4), with the zero-filled block of each database
# taken one by one; reading every block of a step from one move gives 9.55
# MiB.  Holding the run through the comparisons reads 13.55 MiB and fails it.
_LOWER_BOUND_PEAK_MIB = 9.57


def test_lower_bound_peak_memory_releases_the_run_before_comparing():
    k4 = build_kerenidis(4)
    privacy_lower_bound(k4)  # warm-up: caches and imports
    tracemalloc.start()
    try:
        privacy_lower_bound(k4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 <= 1.1 * _LOWER_BOUND_PEAK_MIB
