import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from qpirlab import adversaries, bounds, privacy, protocols
from qpirlab.adversaries import (
    Recovery,
    adversary_by_name,
    client_variants,
    gamma_family,
    measure_speciousness,
    purification_attack,
    purified_honest,
    standard_inputs,
)
from qpirlab.channels import HadamardOp, MeasureOp, RotateOp
from qpirlab.distances import pure_trace_distance
from qpirlab.privacy import (
    FIGURE_TOL,
    HonestSimulator,
    TheoremSimulator,
    is_measurement_free,
    privacy_lower_bound,
    verify_theorem_bound,
)
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import Ensemble, ProtocolShapeError, execute
from qpirlab.states import PureState, RegisterLayout
from span_reference import dense_trace_in_extraction, reference_anchors


@pytest.fixture(scope="module")
def k2():
    return build_kerenidis(2)


class TestLowerBound:
    def test_kerenidis_honest_anchored_n2(self, k2):
        report = privacy_lower_bound(k2)
        assert report.eps_lower <= 1e-9
        assert all(r.distance <= 1e-9 for r in report.rows)

    def test_kerenidis_honest_anchored_n4_classical_path(self):
        worst = 0.0
        for d in range(16):
            inst = build_kerenidis(4, database=d)
            worst = max(worst, privacy_lower_bound(inst).eps_lower)
        assert worst <= 1e-9

    def test_purification_attack_lower_bound(self, k2):
        report = privacy_lower_bound(k2, purification_attack(k2))
        assert report.eps_lower == pytest.approx(0.25, abs=1e-9)
        assert report.eps_lower > 0.025

    def test_send_index_leaks_everything(self):
        report = privacy_lower_bound(build_baseline("send-index", 2))
        # orthogonal index states reach the server: view distance 1, halved
        assert max(r.distance for r in report.rows) == pytest.approx(1.0, abs=1e-9)
        assert report.eps_lower == pytest.approx(0.5, abs=1e-9)

    def test_send_db_perfectly_private(self):
        report = privacy_lower_bound(build_baseline("send-db", 2))
        assert report.eps_lower <= 1e-9

    def test_full_mode_exposes_superposed_database(self, k2):
        report = privacy_lower_bound(k2, mode="full")
        superposed = [r for r in report.rows if r.x_label == "x=+"]
        assert superposed and max(r.distance for r in superposed) > 0.1

    def test_full_mode_refuses_a_built_in_database(self):
        inst = build_kerenidis(2, database=(1, 0))
        with pytest.raises(ValueError, match=r"kerenidis\(n=2, classical\).*quantum-database"):
            privacy_lower_bound(inst, mode="full")
        assert privacy_lower_bound(inst).mode == "anchored"

    def test_rows_tag_definition_range(self, k2):
        report = privacy_lower_bound(k2)
        s = k2.spec.rounds
        for r in report.rows:
            assert r.required == (r.step // 2 <= s - 1)


class TestHonestSimulator:
    def test_kerenidis_upper_bound(self, k2):
        eps, rows = HonestSimulator(k2).epsilon_upper()
        assert eps <= 1e-9
        assert any("i-uniform" in lbl for lbl, _, _ in rows)
        assert any("i-entangled" in lbl for lbl, _, _ in rows)

    def test_send_db_trivial_simulator(self):
        sd = build_baseline("send-db", 2)
        eps, _ = HonestSimulator(sd).epsilon_upper()
        assert eps <= 1e-9

    def test_sandwich_with_lower_bound(self, k2):
        lower = privacy_lower_bound(k2).eps_lower
        upper, _ = HonestSimulator(k2).epsilon_upper()
        assert lower <= upper + 1e-9


class TestTheoremSimulator:
    def test_purified_honest_reduces_to_honest(self, k2):
        sim = TheoremSimulator(k2, purified_honest(k2))
        eps_hat, _ = sim.certify()
        assert eps_hat <= 1e-9

    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.4])
    def test_lossy_certificate(self, k2, theta):
        adv = gamma_family(k2, theta, lossy=True)
        gamma = measure_speciousness(k2, adv).gamma_hat
        sim = TheoremSimulator(k2, adv)
        eps_hat, rows = sim.certify()
        assert eps_hat <= 3.0 * math.sqrt(2.0 * gamma) + 1e-6
        # superposed client indices are part of the certified domain
        assert any("i-uniform" in lbl for lbl, _, _ in rows)

    def test_anchor_universality(self, k2):
        # one anchor serves every anchored input within 2 sqrt(2 gamma)
        theta = 0.4
        adv = gamma_family(k2, theta, lossy=True)
        gamma = measure_speciousness(k2, adv).gamma_hat
        sim = TheoremSimulator(k2, adv)
        sim.certify()
        t = 2 * k2.spec.rounds
        base = sim.anchors[t]
        layout = RegisterLayout((("idx", 1),))
        for x in range(4):
            for state in (PureState.basis(layout, {"idx": 0}),
                          PureState.basis(layout, {"idx": 1}),
                          PureState.from_vector(layout, np.array([1, 1]) / np.sqrt(2))):
                inp = k2.input_with_client(x, state)
                sigma, _ = sim._extract(t, execute(adv.modified_spec(k2.spec), inp).ensemble(t),
                                        execute(k2.spec, inp).ensemble(t))
                assert pure_trace_distance(base, sigma) <= 2 * math.sqrt(2 * gamma) + 1e-8

    def test_simulated_view_is_the_server_view_layout(self, k2):
        # the lossy simulator rebuilds the adversary's view: honest server
        # registers plus the discarded ancillas
        sim = TheoremSimulator(k2, gamma_family(k2, 0.2, lossy=True))
        sim.certify()
        adv_tr = execute(sim.adversary.modified_spec(k2.spec), k2.basis_input(0, 1))
        for t in (2, 4):
            view = sim.simulated_view(t, execute(k2.spec, k2.basis_input(0, 1)).server_view(t))
            assert isinstance(view, Ensemble)
            assert set(view.layout.names) == set(adv_tr.server_view(t).layout.names)

    def test_a_fresh_honest_simulator_certifies_the_same_rows(self, k2):
        # the theorem simulator reads the honest view and its anchors off
        # the runs of its own plan, whatever ran before, itself included
        adv = gamma_family(k2, 0.3, lossy=True)
        fresh = TheoremSimulator(k2, adv).certify()
        HonestSimulator(k2).epsilon_upper()
        sim = TheoremSimulator(k2, adv)
        assert sim.certify() == fresh
        assert sim.certify() == fresh

    def test_purify_db_certify_runs_each_database_honestly(self, k2, monkeypatch):
        # the attack relabels db, so each database is a run of its own, and
        # every certify runs the honest spec once on each
        from qpirlab import adversaries

        sim = TheoremSimulator(k2, purification_attack(k2))
        inner, calls = adversaries.execute, []

        def counted(spec, *args, **kwargs):
            calls.append(spec.name)
            return inner(spec, *args, **kwargs)
        monkeypatch.setattr(adversaries, "execute", counted)
        for _ in range(2):
            calls.clear()
            sim.certify()
            assert calls.count(k2.spec.name) == 4

    def test_inverted_recovery_is_the_inverses_in_reverse(self):
        h, r = HadamardOp("a"), RotateOp(("b", 0), 0.3, control=("a", 0))
        assert privacy._inverted((h, r)) == (RotateOp(("b", 0), -0.3, control=("a", 0)), h)
        with pytest.raises(ProtocolShapeError,
                           match="recovery op MeasureOp is not invertible; purify it first"):
            privacy._inverted((h, MeasureOp("a")))

    @pytest.mark.parametrize("name,n", [("kerenidis", 1), ("kerenidis", 2), ("send-db", 1)])
    def test_anchors_equal_the_dense_extraction(self, monkeypatch, name, n):
        # every theorem simulator scripts/figures.py builds, the theorem
        # bound's gamma-lossy:0.1 included: beta and the bound of each
        # extraction bit for bit those of the dense reordered states
        inst = build_kerenidis(n) if name == "kerenidis" else build_baseline(name, n)
        inner, calls = privacy.trace_in_extraction, []
        monkeypatch.setattr(privacy, "trace_in_extraction",
                            lambda alpha, phi: calls.append((alpha, phi)) or inner(alpha, phi))
        names = ("honest-purified", "purify-db", "gamma:0.3", "gamma-lossy:0.3")
        for adv in names + (("gamma-lossy:0.1",) if n == 2 else ()):
            calls.clear()
            sim = TheoremSimulator(inst, adversary_by_name(inst, adv))
            sim.certify()
            assert len(calls) == sum(a is not None for a in sim.anchors.values())
            for alpha, phi in calls:
                beta, bound = inner(alpha, phi)
                want, want_bound = dense_trace_in_extraction(alpha, phi)
                assert beta.layout == want.layout
                assert np.array_equal(beta.amplitudes, want.amplitudes) and bound == want_bound

    @pytest.mark.parametrize("name,n", [("kerenidis", 1), ("kerenidis", 2), ("send-db", 1)])
    def test_anchors_read_off_the_plan_equal_the_side_runs(self, name, n):
        # database 0's index-1 block of the certificate's planned run is the
        # run on basis_input(0, 1): the same anchors bit for bit, None where
        # the recovery discards nothing, and the same extraction bounds
        inst = build_kerenidis(n) if name == "kerenidis" else build_baseline(name, n)
        names = ("honest-purified", "purify-db", "gamma:0.3", "gamma-lossy:0.3")
        for adv_name in names + (("gamma-lossy:0.1",) if n == 2 else ()):
            adv = adversary_by_name(inst, adv_name)
            sim = TheoremSimulator(inst, adv)
            sim.certify()
            want, want_bounds = reference_anchors(inst, adv)
            assert sim.anchors.keys() == want.keys() and sim.extraction_bounds == want_bounds
            for t, anchor in sim.anchors.items():
                assert (anchor is None) == (not adv.recoveries[t - 1].discard), (adv_name, t)
                if anchor is not None:
                    assert anchor.layout == want[t].layout, (adv_name, t)
                    assert np.array_equal(anchor.amplitudes, want[t].amplitudes), (adv_name, t)

    def test_every_run_is_a_planned_run(self, k2, monkeypatch):
        # building a simulator runs nothing; every execute of the theorem
        # bound, the anchors' runs included, is called from planned_spans
        callers = []
        for module in (adversaries, bounds, privacy, protocols):
            def recorded(*args, inner=module.execute, **kwargs):
                # the function whose body makes the call (a comprehension's
                # qualified name starts with it)
                callers.append(sys._getframe(1).f_code.co_qualname.split(".")[0])
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, "execute", recorded)
        family = [gamma_family(k2, t, lossy=True) for t in (0.1, 0.2, 0.4)]
        sims = [TheoremSimulator(k2, adv) for adv in family]
        assert callers == [] and all(sim.anchors == {} for sim in sims)
        verify_theorem_bound(k2, family)
        # the honest certificate 1, per adversary its meter 2 x 2 and its
        # certificate 2
        assert callers == ["planned_spans"] * 19

    def test_an_impure_recovery_is_refused_by_certify(self, k2):
        lossy = gamma_family(k2, 0.3, lossy=True)
        adv = replace(lossy, recoveries=tuple(Recovery((MeasureOp("r1"), *r.ops), r.discard)
                                              for r in lossy.recoveries))
        sim = TheoremSimulator(k2, adv)
        with pytest.raises(ProtocolShapeError,
                           match="adversarial state at step 2 is not pure; purify the adversary"):
            sim.certify()

    def test_construction_makes_no_dense_pure_state(self, k2, monkeypatch):
        # certify reads the anchors off the support of the recovered and
        # the honest runs: no PureState of either run's registers is made
        layouts, runs = [], []
        post, inner = PureState.__post_init__, privacy.trace_in_extraction
        monkeypatch.setattr(PureState, "__post_init__",
                            lambda state: layouts.append(state.layout) or post(state))
        monkeypatch.setattr(privacy, "trace_in_extraction",
                            lambda alpha, phi: runs.append((alpha.layout, phi.layout))
                            or inner(alpha, phi))
        for adv in (gamma_family(k2, 0.3), gamma_family(k2, 0.3, lossy=True),
                    purification_attack(k2)):
            TheoremSimulator(k2, adv).certify()
        assert runs and layouts  # the anchors are PureStates
        run = {frozenset(lay.registers) for pair in runs for lay in pair}
        assert [lay for lay in layouts if frozenset(lay.registers) in run] == []

    def test_requires_measurement_free(self):
        cx = build_counterexample(2)
        assert not is_measurement_free(cx.spec)
        with pytest.raises(ProtocolShapeError, match="measurement-free"):
            TheoremSimulator(cx, purified_honest(cx))


class TestTheoremBound:
    def test_grid(self, k2):
        rows = verify_theorem_bound(
            k2, [gamma_family(k2, t, lossy=True) for t in (0.1, 0.2, 0.4)])
        assert all(r.ok for r in rows)
        gammas = [r.gamma_hat for r in rows]
        assert gammas == sorted(gammas)
        # bound is one-sided: slack rows are accepted
        assert all(r.eps_hat < r.bound for r in rows)

    def test_zero_gamma_row(self, k2):
        rows = verify_theorem_bound(k2, [gamma_family(k2, 0.9)])
        assert rows[0].gamma_hat <= 1e-9
        assert rows[0].eps_hat <= 1e-9

    def test_noise_level_gamma_adds_nothing_to_the_bound(self, k2):
        # both recoveries are exact; their gamma_hat is QR noise, kept raw
        rows = verify_theorem_bound(k2, [gamma_family(k2, 0.3), purified_honest(k2)])
        for r in rows:
            assert r.gamma_hat <= FIGURE_TOL
            assert r.bound == r.eps_honest
            assert r.ok

    def test_lossy_bound_is_unchanged(self, k2):
        (row,) = verify_theorem_bound(k2, [gamma_family(k2, 0.3, lossy=True)])
        assert row.gamma_hat > FIGURE_TOL
        assert row.bound == row.eps_honest + 3.0 * math.sqrt(2.0 * row.gamma_hat)
        assert row.bound == pytest.approx(float.fromhex("0x1.cb12edecfe42cp-2"), abs=1e-12)

    def test_each_figure_runs_the_honest_spec_on_its_own_plan(self, k2, monkeypatch):
        # one run of the 4 databases for the honest certificate, and per
        # adversary two for its meter (the 4 databases and the superposed
        # one) and one for its certificate, which also holds the anchors
        from qpirlab import adversaries, privacy

        calls = []
        for module in (adversaries, privacy):
            def counted(spec, *args, inner=module.execute, **kwargs):
                calls.append(spec.name)
                return inner(spec, *args, **kwargs)
            monkeypatch.setattr(module, "execute", counted)
        verify_theorem_bound(k2, [gamma_family(k2, t, lossy=True) for t in (0.1, 0.2, 0.4)])
        assert calls.count(k2.spec.name) == 1 + 3 * (2 + 1)

    def test_sandwich_lower_vs_certified(self, k2):
        adv = gamma_family(k2, 0.4, lossy=True)
        lower = privacy_lower_bound(k2, adv).eps_lower
        sim = TheoremSimulator(k2, adv)
        eps_hat, _ = sim.certify()
        gamma = measure_speciousness(k2, adv).gamma_hat
        assert lower <= eps_hat + 1e-6
        assert eps_hat <= 3 * math.sqrt(2 * gamma) + 1e-6


class TestCounterexampleSeparation:
    def test_honest_passes_specious_fails(self):
        cx = build_counterexample(2)
        honest = privacy_lower_bound(cx)
        assert honest.eps_lower <= 1e-9
        adv = purified_honest(cx)
        assert measure_speciousness(cx, adv).gamma_hat <= 1e-9
        broken = privacy_lower_bound(cx, adv)
        # pinned from the oracle run: the purified first execution leaks 1/2
        assert broken.eps_lower == pytest.approx(0.25, abs=1e-9)
        assert broken.eps_lower > 0.1


def test_certificate_methods_bound_in_their_own_class_body():
    # The benchmark's certificate span wraps ``cls.__dict__[name]``; a method
    # inherited or assigned elsewhere would not be found there.
    assert "epsilon_upper" in HonestSimulator.__dict__
    assert "certify" in TheoremSimulator.__dict__
