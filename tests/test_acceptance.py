"""Acceptance battery: one test per exit criterion, each printing a verdict
line.  Run with ``pytest tests/test_acceptance.py -s`` to see every line."""

import math
import time

import numpy as np
import pytest

from conftest import random_density, random_pure
from qpirlab.adversaries import gamma_family, measure_speciousness, purification_attack, purified_honest
from qpirlab.bounds import (
    chain_rule_check,
    epsilon_prime,
    extraction_attack,
    gentle_measure,
    nayak_bound,
    reconstruction_bound,
)
from qpirlab.distances import (
    partial_trace,
    pure_trace_distance,
    trace_distance,
    trace_in_extraction,
    uhlmann_unitary,
    apply_side_unitary,
)
from qpirlab.privacy import privacy_lower_bound, verify_theorem_bound
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import communication
from qpirlab.states import DensityOperator, PureState, RegisterLayout


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def all_databases(n):
    return [tuple((d >> (n - 1 - j)) & 1 for j in range(n)) for d in range(1 << n)]


def test_criterion_1_perfect_correctness():
    start = time.monotonic()
    worst = 1.0
    checked = 0
    for n in (1, 2, 4):
        inst = build_kerenidis(n)
        for db in all_databases(n):
            for i in range(1, n + 1):
                bit, prob = inst.decode(inst.run(db, i, keep_states=False), i)
                worst = min(worst, prob if bit == db[i - 1] else 0.0)
                checked += 1
    rng = np.random.default_rng(20240811)
    for _ in range(64):
        db = tuple(int(b) for b in rng.integers(0, 2, size=8))
        inst = build_kerenidis(8, database=db)
        idx = PureState(RegisterLayout((("idx", 3),)),
                        np.full(8, 8**-0.5, dtype=complex))
        tr = inst.run(input_state=idx, keep_states=False)
        for i in range(1, 9):
            bit, prob = inst.decode(tr, i)
            worst = min(worst, prob if bit == db[i - 1] else 0.0)
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst >= 1 - 1e-9 and elapsed < 30.0
    _verdict(1, ok, f"decode probability >= 1-1e-9 on {checked} runs "
                    f"(worst {worst:.12f}) in {elapsed:.1f}s (< 30s)")


def test_criterion_2_communication_closed_forms():
    ok = True
    details = []
    for n in (2, 4, 8):
        levels = n.bit_length() - 1
        plain = communication(build_kerenidis(n, database=(0,) * n).spec)
        cleaned = communication(build_kerenidis(n, cleanup=True, database=(0,) * n).spec)
        ok &= plain.total == 4 * levels + 1 and plain.rounds == 2 * levels + 1
        ok &= cleaned.total == 2 * (4 * levels + 1) and cleaned.rounds == 2 * (2 * levels + 1)
        details.append(f"n={n}: {plain.total}q/{plain.rounds}r, "
                       f"cleanup {cleaned.total}q/{cleaned.rounds}r")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_anchored_privacy_honest():
    worst = 0.0
    report = privacy_lower_bound(build_kerenidis(2))
    worst = max(worst, max((r.distance for r in report.rows), default=0.0))
    for d in range(16):
        rep = privacy_lower_bound(build_kerenidis(4, database=d))
        worst = max(worst, max((r.distance for r in rep.rows), default=0.0))
    ok = worst <= 1e-9
    _verdict(3, ok, f"every even-step view distance <= 1e-9 for n in {{2,4}} "
                    f"over classical/superposed/entangled indices (worst {worst:.2e})")


def test_criterion_4_purification_attack_succeeds():
    inst = build_kerenidis(2)
    report = privacy_lower_bound(inst, purification_attack(inst))
    pairs_12 = [r.distance for r in report.rows
                if {"i=1", "i=2"} <= {p.split(",")[-1] for p in r.pair}]
    advantage = max(pairs_12)
    # golden value pinned from the oracle run: exactly 1/2 at the final step
    ok = advantage > 0.05 and abs(advantage - 0.5) <= 1e-9
    _verdict(4, ok, f"purified server's i=1 vs i=2 view distance {advantage:.9f} "
                    f"(> 0.05; pinned 0.5)")


def test_criterion_5_theorem_certificate():
    inst = build_kerenidis(2)
    rows = verify_theorem_bound(
        inst, [gamma_family(inst, t, lossy=True) for t in (0.1, 0.2, 0.4)],
        tolerance=1e-6)
    ok = all(r.ok for r in rows) and len(rows) >= 3
    detail = "; ".join(f"{r.adversary}: eps_hat={r.eps_hat:.6f} <= "
                       f"{r.eps_honest:.1e}+3sqrt(2*{r.gamma_hat:.6f})={r.bound:.6f}"
                       for r in rows)
    _verdict(5, ok, detail)


def test_criterion_6_counterexample_separation():
    cx = build_counterexample(2)
    honest_eps = privacy_lower_bound(cx).eps_lower
    adv = purified_honest(cx)
    gamma = measure_speciousness(cx, adv).gamma_hat
    broken_eps = privacy_lower_bound(cx, adv).eps_lower
    ok = honest_eps <= 1e-9 and gamma <= 1e-9 and broken_eps > 0.1
    _verdict(6, ok, f"honest eps_lower={honest_eps:.2e}, purified server is "
                    f"{gamma:.2e}-specious yet leaks eps_lower={broken_eps:.3f} > 0.1")


def test_criterion_7_lemma_suites():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    # Lemma 4.4: gentle measurement, 200 trials
    done = 0
    while done < 200:
        rho = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        basis = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        lam = (basis * rng.uniform(0, 1, size=4)) @ basis.conj().T
        p = float(np.real(np.trace(lam @ rho.matrix)))
        if p < 0.2:
            continue
        out = gentle_measure(rho, lam)
        assert trace_distance(out.post_state, rho) <= math.sqrt(1 - p) + 1e-8
        done += 1
    # Lemma 4.5: Uhlmann rotation, 200 trials
    layout = RegisterLayout((("A", 2), ("B", 2)))
    done = 0
    while done < 200:
        phi = random_pure(rng, layout)
        noise = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec = phi.amplitudes + rng.uniform(0.02, 0.7) * noise / np.linalg.norm(noise)
        psi = PureState.from_vector(layout, vec, normalize=True)
        eps = trace_distance(partial_trace(phi, ["A"]), partial_trace(psi, ["A"]))
        if not 0 < eps < 0.9:
            continue
        u = uhlmann_unitary(phi, psi, side=["B"])
        achieved = pure_trace_distance(phi, apply_side_unitary(psi, u, side=["B"]))
        assert achieved <= math.sqrt(eps * (2 - eps)) + 1e-8
        done += 1
    # Lemma A.1: trace-in extraction, 200 trials, output stays pure
    xy = RegisterLayout((("X", 1), ("Y", 2)))
    xl = RegisterLayout((("X", 1),))
    done = 0
    while done < 200:
        base = random_pure(rng, xl).tensor(random_pure(rng, RegisterLayout((("Y", 2),))))
        noise = rng.normal(size=8) + 1j * rng.normal(size=8)
        alpha = PureState.from_vector(
            xy, base.amplitudes + rng.uniform(0, 0.5) * noise / np.linalg.norm(noise),
            normalize=True)
        mat = alpha.amplitudes.reshape(2, 4)
        evals, evecs = np.linalg.eigh(mat @ mat.conj().T)
        phi = PureState.from_vector(xl, evecs[:, int(np.argmax(evals))], normalize=True)
        eps = trace_distance(partial_trace(alpha, ["X"]),
                             DensityOperator.from_pure(phi.amplitudes))
        if eps >= 0.9:
            continue
        beta, _ = trace_in_extraction(alpha, phi)
        assert isinstance(beta, PureState)
        assert pure_trace_distance(alpha, phi.tensor(beta)) <= math.sqrt(eps) + 1e-8
        done += 1
    # pure-state distance formula agreement, 200 trials
    small = RegisterLayout((("a", 2),))
    for _ in range(200):
        a, b = random_pure(rng, small), random_pure(rng, small)
        lhs = trace_distance(DensityOperator.from_pure(a), DensityOperator.from_pure(b))
        assert abs(lhs - pure_trace_distance(a, b)) <= 1e-9
    elapsed = time.monotonic() - start
    ok = elapsed < 60.0
    _verdict(7, ok, f"4 lemma suites x 200 trials, zero violations, {elapsed:.1f}s (< 60s)")


def test_criterion_8_reconstruction_and_chain_rule():
    sd = build_baseline("send-db", 2)
    tr_sd = extraction_attack(sd, "classical-per-a", database=(1, 0))
    rep_sd = chain_rule_check(sd, tr_sd)
    si = build_baseline("send-index", 2)
    tr_si = extraction_attack(si, "classical-per-a", database=(1, 0))
    rep_si = chain_rule_check(si, tr_si)
    k2 = build_kerenidis(2)
    tr_k = extraction_attack(k2, "coherent-reference")
    rep_k = chain_rule_check(k2, tr_k)
    unqueried = tr_k.bits[1].probability
    ok = (
        abs(tr_sd.overall - 1.0) <= 1e-9 and rep_sd.consistent
        and abs(tr_si.bits[0].probability - 1.0) <= 1e-9
        and abs(tr_si.overall - 0.5) <= 1e-9 and rep_si.consistent
        and abs(unqueried - 0.5) <= 1e-9 and rep_k.consistent
    )
    _verdict(8, ok, f"send-db success {tr_sd.overall:.9f}=1, send-index "
                    f"{tr_si.overall:.9f}=1/2, both under their ceilings; "
                    f"kerenidis coherent unqueried-bit probability "
                    f"{unqueried:.12f} = 1/2 (exact independence)")


def test_criterion_9_formula_evaluators():
    ok = True
    for n in (1, 4, 16, 100):
        ok &= abs(nayak_bound(0.0, 0.0, n) - n) <= 1e-12
    premise = reconstruction_bound(10, 1e-4 / 100, 1e-8 / 100)
    ok &= premise > 0.5
    dev = max(abs(epsilon_prime(e) - math.sqrt(2 * e * (2 - 2 * e)))
              for e in np.linspace(0.0, 0.5, 501))
    ok &= dev <= 1e-12
    _verdict(9, ok, f"nayak(0,0,n)=n; reconstruction bound at the theorem "
                    f"premise = {premise:.6f} > 1/2; eps-prime identity "
                    f"deviation {dev:.2e} <= 1e-12")
