"""Gentle measurement, state discrimination, the database-reconstruction
attack, and the closed-form communication bounds.

Conditional min-entropy appears only through its operational face: the
optimal probability of guessing a classical value from a quantum side
register.  Exact multi-hypothesis optima would need semidefinite
programming, so guessing probabilities are bracketed instead: an explicit
measurement (pretty-good or trivial) from below, Helstrom (exact for two
hypotheses) or 1 from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CHECK_ATOL, STATE_ATOL
from .distances import UhlmannPreconditionError, trace_distance, uhlmann_unitary
from .privacy import is_measurement_free
from .protocols import QpirInstance, database_bits, epr_pair_state
from .runtime import (
    CLIENT,
    communication,
    execute,
    fold_setup_into_messages,
)
from .states import DensityOperator, StateError, hermitize

__all__ = [
    "GuessingBracket",
    "GentleMeasurement",
    "gentle_measure",
    "helstrom",
    "pgm",
    "BitExtraction",
    "ReconstructionTrace",
    "extraction_attack",
    "ChainRuleReport",
    "chain_rule_check",
    "binary_entropy",
    "nayak_bound",
    "nayak_argument",
    "epsilon_prime",
    "reconstruction_bound",
]


# ---------------------------------------------------------------------------
# gentle measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GentleMeasurement:
    probability: float
    post_state: DensityOperator
    certificate: float  # sqrt(1 - probability)


def _operator_root(lam: np.ndarray) -> np.ndarray:
    """sqrt(L) of a Hermitian ``L`` after checking ``0 <= L <= I``.

    A projector (``||L^2 - L||_F <= STATE_ATOL``, so every eigenvalue is 0
    or 1) is its own root.  Otherwise eigenvalues within STATE_ATOL of 0 or 1
    are snapped to it before the square root, so eigen-noise does not leak
    outside the operator's range.
    """
    if np.linalg.norm(lam @ lam - lam) <= STATE_ATOL:
        return lam
    evals, evecs = np.linalg.eigh(lam)
    if evals.min() < -STATE_ATOL or evals.max() > 1 + STATE_ATOL:
        raise StateError("operator is not between 0 and the identity")
    evals[np.abs(evals) <= STATE_ATOL] = 0.0
    evals[np.abs(evals - 1.0) <= STATE_ATOL] = 1.0
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def gentle_measure(rho: DensityOperator, operator: np.ndarray) -> GentleMeasurement:
    """Measure ``0 <= operator <= I`` on ``rho``; the post-measurement state
    sqrt(L) rho sqrt(L) / tr(L rho) stays within sqrt(1 - tr(L rho)) of the
    original, and that certificate is asserted on every call.

    A ``rho`` that keeps a factor ``F`` yields the post-state from the
    branches ``sqrt(L) F / sqrt(p)``, with ``p = ||sqrt(L) F||_F^2``.
    """
    lam = np.asarray(operator, dtype=np.complex128)
    if lam.shape != (rho.dimension, rho.dimension):
        raise StateError("operator dimension does not match the state")
    if np.max(np.abs(lam - lam.conj().T)) > STATE_ATOL:
        raise StateError("operator is not Hermitian within tolerance")
    lam = hermitize(lam)
    root = _operator_root(lam)
    if rho.factor is not None:
        branches = root @ rho.factor
        p = float(np.vdot(branches, branches).real)
    else:
        p = float(np.vdot(rho.matrix, lam).real)  # tr(L rho), both Hermitian
    if p <= 1e-14:
        raise StateError("measurement succeeds with probability 0")
    if rho.factor is not None:
        post = DensityOperator(rho.dimension, branches / math.sqrt(p), factored=True)
    else:
        post = DensityOperator(rho.dimension, root @ rho.matrix @ root / p)
    certificate = math.sqrt(max(0.0, 1.0 - p))
    achieved = trace_distance(post, rho)
    if achieved > certificate + CHECK_ATOL:
        raise AssertionError(
            f"gentle-measurement certificate violated: {achieved} > {certificate}"
        )
    return GentleMeasurement(p, post, certificate)


# ---------------------------------------------------------------------------
# guessing-probability brackets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GuessingBracket:
    """Lower/upper bracket on the optimal guessing probability.

    The lower bound is achieved by an explicit measurement; the implied
    min-entropy bracket is [-log2 upper, -log2 lower].
    """

    hypotheses: int
    p_lower: float
    p_upper: float
    max_prior: float
    measurement: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.p_lower <= self.p_upper + CHECK_ATOL):
            raise ValueError(f"bracket [{self.p_lower}, {self.p_upper}] is malformed")
        if self.p_upper > 1.0 + CHECK_ATOL:
            raise ValueError("upper bound exceeds 1")
        if self.max_prior > self.p_lower + CHECK_ATOL:
            raise ValueError("guessing below the best prior is never optimal")

    @property
    def h_min_bracket(self) -> tuple[float, float]:
        return (-math.log2(min(self.p_upper, 1.0)), -math.log2(self.p_lower))


def helstrom(p0: float, rho0: DensityOperator, p1: float, rho1: DensityOperator) -> GuessingBracket:
    """Exact binary discrimination: 1/2 + T(p0 rho0 - p1 rho1) with T the
    halved trace norm; the bracket collapses and carries the achieving
    projective measurement (positive eigenspace guesses hypothesis 0)."""
    if abs(p0 + p1 - 1.0) > CHECK_ATOL:
        raise ValueError("priors must sum to 1")
    if rho0.dimension != rho1.dimension:
        raise StateError("dimension mismatch")
    diff = hermitize(p0 * rho0.matrix - p1 * rho1.matrix)
    evals, evecs = np.linalg.eigh(diff)
    p_guess = 0.5 + 0.5 * float(np.sum(np.abs(evals)))
    pos = evecs[:, evals >= 0]
    proj0 = pos @ pos.conj().T
    proj1 = np.eye(rho0.dimension) - proj0
    return GuessingBracket(2, p_guess, p_guess, max(p0, p1), (proj0, proj1))


def pgm(ensemble) -> GuessingBracket:
    """Pretty-good-measurement bracket for an ensemble of (prior, state).

    Lower: the better of the PGM success probability and the trivial
    best-prior guess (both explicit strategies).  Upper: Helstrom when the
    ensemble is binary, else the trivial 1.
    """
    ens = [(float(p), rho) for p, rho in ensemble]
    if abs(sum(p for p, _ in ens) - 1.0) > CHECK_ATOL:
        raise ValueError("priors must sum to 1")
    dim = ens[0][1].dimension
    avg = np.zeros((dim, dim), dtype=np.complex128)
    for p, rho in ens:
        avg += p * rho.matrix
    evals, evecs = np.linalg.eigh(hermitize(avg))
    inv_sqrt = np.where(evals > 1e-12, 1.0 / np.sqrt(np.clip(evals, 1e-300, None)), 0.0)
    s = (evecs * inv_sqrt) @ evecs.conj().T
    povm = tuple(s @ (p * rho.matrix) @ s for p, rho in ens)
    success = float(sum(p * np.real(np.trace(e @ rho.matrix))
                        for e, (p, rho) in zip(povm, ens)))
    max_prior = max(p for p, _ in ens)
    lower = max(success, max_prior)
    if len(ens) == 2:
        upper = helstrom(ens[0][0], ens[0][1], ens[1][0], ens[1][1]).p_upper
    else:
        upper = 1.0
    return GuessingBracket(len(ens), min(lower, upper), upper, max_prior, povm)


# ---------------------------------------------------------------------------
# the sequential reconstruction attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitExtraction:
    index: int
    probability: float
    drift: float
    drift_bound: float
    premise_ok: bool


@dataclass(frozen=True)
class ReconstructionTrace:
    protocol: str
    n: int
    mode: str
    database: tuple[int, ...] | None
    delta: float
    epsilon: float
    epsilon_prime: float
    bits: tuple[BitExtraction, ...]
    overall: float
    client_executable: bool
    notes: str = ""

    def as_rows(self) -> list[dict]:
        base = {"protocol": self.protocol, "n": self.n, "mode": self.mode,
                "delta": self.delta, "epsilon": self.epsilon,
                "epsilon_prime": self.epsilon_prime,
                "client_executable": self.client_executable}
        return [dict(base, bit=b.index, probability=b.probability, drift=b.drift,
                     drift_bound=b.drift_bound, premise_ok=b.premise_ok)
                for b in self.bits]


def _bit_projectors(layout_regs, widths, output_register) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors on the client space for output bit 0 / 1."""
    total = sum(widths[n] for n in layout_regs)
    pos = 0
    for n in layout_regs:
        if n == output_register:
            break
        pos += widths[n]
    shift = total - 1 - pos  # output registers are single qubits here
    idx = np.arange(1 << total)
    bit = (idx >> shift) & 1
    return np.diag((bit == 0).astype(np.complex128)), np.diag((bit == 1).astype(np.complex128))


def extraction_attack(instance: QpirInstance, mode: str = "classical-per-a",
                      database=None) -> ReconstructionTrace:
    """The sequential learn-every-bit attack.

    Runs the protocol once with client input 1, then for each further index
    conjugates the decoding measurement by the purification-side unitary
    relating the run-1 and run-i server marginals, measuring and gently
    recovering in sequence.

    ``classical-per-a`` computes those unitaries per database, so the trace
    records that the strategy is not executable by a client who does not
    know the database.  ``coherent-reference`` runs on the uniform database
    superposition entangled with an untouched reference, making the
    unitaries input-independent (client-executable), which is exactly the
    input class anchored privacy excludes.
    """
    if mode not in ("classical-per-a", "coherent-reference"):
        raise ValueError(f"unknown attack mode {mode!r}")
    if not is_measurement_free(instance.spec):
        raise ValueError("the attack machinery assumes a measurement-free protocol")
    n = instance.n
    if mode == "coherent-reference" and instance.database_register is None:
        raise ValueError("coherent-reference mode needs the quantum-database path")

    bits = None
    if mode == "classical-per-a":
        built_in = instance.classical_database
        if database is None:
            database = built_in
        if database is None:
            raise ValueError("classical-per-a mode needs a database")
        bits = database_bits(database, n)
        if built_in is not None and bits != built_in:
            raise ValueError(
                f"database {''.join(map(str, bits))} disagrees with the database "
                f"{''.join(map(str, built_in))} built into {instance.spec.name}"
            )

    def run(i: int):
        if mode == "classical-per-a":
            state = instance.basis_input(bits, i)
        else:
            dbpart = epr_pair_state("refdb", instance.database_register, n)
            client = instance.client_basis_state(i)
            state = dbpart.tensor(client) if client.layout.registers else dbpart
        return execute(instance.spec, state, keep_states=False)

    transcripts = [run(i) for i in range(1, n + 1)]
    finals = [tr.final.to_pure() for tr in transcripts]
    b_regs = list(transcripts[0].owned(transcripts[0].steps, CLIENT))
    widths = dict(finals[0].layout.registers)

    # measured correctness error: worst-case failure of the decoder
    correct = []
    for i, tr in enumerate(transcripts, start=1):
        if mode == "classical-per-a":
            joint = tr.final.probabilities((instance.output_register,))
            correct.append(float(joint[bits[i - 1]]))
        else:
            joint = tr.final.probabilities(("refdb", instance.output_register))
            agree = sum(float(joint[2 * a + ((a >> (n - i)) & 1)]) for a in range(1 << n))
            correct.append(agree)
    delta = max(0.0, 1.0 - min(correct))

    # measured privacy error of the relevant input class: half the worst
    # distance between run-1 and run-i server-plus-reference marginals
    views = [tr.server_view(tr.steps) for tr in transcripts]
    eps = max((views[0].distance(views[i]) / 2.0 for i in range(1, n)), default=0.0)
    eps_p = epsilon_prime(eps)

    p0, p1 = _bit_projectors(b_regs, widths, instance.output_register)
    d_b = p0.shape[0]

    unitaries: list[np.ndarray | None] = [np.eye(d_b)]
    premise = [True]
    for i in range(1, n):
        try:
            unitaries.append(uhlmann_unitary(finals[0], finals[i], side=b_regs))
            premise.append(True)
        except UhlmannPreconditionError:
            unitaries.append(None)
            premise.append(False)

    if mode == "classical-per-a":
        rho = transcripts[0].final.reduced(b_regs, ordered=True)
    else:
        rho = transcripts[0].final.reduced(["refdb"] + b_regs, ordered=True)
    sigma_1 = rho

    extractions = []
    overall = 1.0
    drift_step = math.sqrt(delta + eps_p)
    for i in range(1, n + 1):
        u = unitaries[i - 1]
        if not premise[i - 1]:
            # not implementable; the attacker is left guessing this bit
            extractions.append(BitExtraction(i, 0.5, extractions[-1].drift if extractions else 0.0,
                                             i * drift_step, False))
            overall *= 0.5
            continue
        proj = (p0, p1)
        m0 = u.conj().T @ proj[0] @ u
        m1 = u.conj().T @ proj[1] @ u
        if mode == "classical-per-a":
            lam = (m0, m1)[bits[i - 1]]
        else:
            sel0 = np.diag(np.array(
                [1.0 if ((a >> (n - i)) & 1) == 0 else 0.0 for a in range(1 << n)],
                dtype=np.complex128))
            sel1 = np.eye(1 << n) - sel0
            lam = np.kron(sel0, m0) + np.kron(sel1, m1)
        outcome = gentle_measure(rho, lam)
        drift = trace_distance(outcome.post_state, sigma_1)
        extractions.append(BitExtraction(i, outcome.probability, drift,
                                         i * drift_step, True))
        overall *= outcome.probability
        rho = outcome.post_state

    return ReconstructionTrace(
        protocol=instance.spec.name,
        n=n,
        mode=mode,
        database=bits,
        delta=delta,
        epsilon=eps,
        epsilon_prime=eps_p,
        bits=tuple(extractions),
        overall=overall,
        client_executable=(mode == "coherent-reference"),
        notes="per-database rotations; not executable without the database"
        if mode == "classical-per-a" else "",
    )


# ---------------------------------------------------------------------------
# chain-rule consistency and closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainRuleReport:
    protocol: str
    n: int
    m_a: int
    m_b: int
    entropy_drop: int
    ceiling: float
    attack_success: float
    consistent: bool

    def as_dict(self) -> dict:
        return {"protocol": self.protocol, "n": self.n, "m_a": self.m_a,
                "m_b": self.m_b, "entropy_drop": self.entropy_drop,
                "ceiling": self.ceiling, "attack_success": self.attack_success,
                "consistent": self.consistent}


def chain_rule_check(instance: QpirInstance, trace: ReconstructionTrace) -> ChainRuleReport:
    """No executed strategy may beat the interactive-leakage ceiling
    2^-(n - min{2 m_A, m_A + m_B}) for a uniform database prior; checked on
    the setup-folded protocol so pre-shared entanglement is charged to the
    client's communication."""
    folded = fold_setup_into_messages(instance.spec)
    bill = communication(folded)
    n = instance.n
    drop = min(2 * bill.m_a, bill.m_a + bill.m_b)
    ceiling = min(1.0, 2.0 ** -(n - drop))
    return ChainRuleReport(
        protocol=instance.spec.name,
        n=n,
        m_a=bill.m_a,
        m_b=bill.m_b,
        entropy_drop=drop,
        ceiling=ceiling,
        attack_success=trace.overall,
        consistent=trace.overall <= ceiling + CHECK_ATOL,
    )


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def nayak_argument(delta: float, eps: float) -> float:
    return 1.0 - delta - 2.0 * math.sqrt(max(eps * (2.0 - eps), 0.0))


def nayak_bound(delta: float, eps: float, n: int) -> float:
    """(1 - H(1 - delta - 2 sqrt(eps (2 - eps)))) n; returns 0 when the
    entropy argument leaves [0, 1]."""
    arg = nayak_argument(delta, eps)
    if not 0.0 <= arg <= 1.0:
        return 0.0
    return (1.0 - binary_entropy(arg)) * n


def epsilon_prime(eps: float) -> float:
    """2 sqrt(eps (1 - eps)): the purification-rotation error at privacy
    error eps, equal to sqrt(e~ (2 - e~)) at e~ = 2 eps."""
    return 2.0 * math.sqrt(max(eps * (1.0 - eps), 0.0))


def reconstruction_bound(n: int, delta: float, eps: float) -> float:
    """max(0, 1 - n^2 sqrt(delta + 2 sqrt(eps (1 - eps))))."""
    return max(0.0, 1.0 - n * n * math.sqrt(max(delta + epsilon_prime(eps), 0.0)))
