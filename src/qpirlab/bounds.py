"""Gentle measurement, the database-reconstruction attack, the chain-rule
consistency check and the closed-form communication bounds."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .adversaries import block_spans
from .channels import _gather
from .config import CHECK_ATOL, STATE_ATOL
from .distances import UhlmannPreconditionError, paired_distances, trace_distance, uhlmann_unitary
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
    "GentleMeasurement",
    "BlockProjector",
    "gentle_measure",
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
    achieved: float  # trace_distance(post_state, rho), at most the certificate


@dataclass(frozen=True)
class BlockProjector:
    """The projector ``(+)_a u^dagger diag(keep[a]) u``, block-diagonal over
    the ``blocks`` rows of the boolean ``(blocks, d_b)`` mask ``keep``.

    Block ``a`` acts on basis indices ``a * d_b .. (a + 1) * d_b - 1``.
    ``u`` is checked to be unitary once, at ``d_b``, when the projector is
    built; ``bit`` is the output bit it measures, named in that error.
    """

    bit: int
    u: np.ndarray
    keep: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.complex128)
        keep = np.asarray(self.keep, dtype=bool)
        if keep.ndim != 2 or u.shape != (keep.shape[1], keep.shape[1]):
            raise StateError(f"bit {self.bit}: rotation of shape {u.shape} does not fit "
                             f"blocks of shape {keep.shape}")
        if np.linalg.norm(u.conj().T @ u - np.eye(len(u))) > STATE_ATOL:
            raise StateError(f"bit {self.bit}: the rotation is not unitary within {STATE_ATOL}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "keep", keep)

    @property
    def dimension(self) -> int:
        return self.keep.size

    def apply(self, f: np.ndarray) -> np.ndarray:
        """``P f`` for a ``(dimension, k)`` array, one block at a time."""
        blocks, d_b = self.keep.shape
        g = self.u @ f.reshape(blocks, d_b, -1)
        g *= self.keep[:, :, None]
        return (self.u.conj().T @ g).reshape(f.shape)


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


def gentle_measure(rho: DensityOperator,
                   operator: np.ndarray | BlockProjector) -> GentleMeasurement:
    """Measure ``0 <= operator <= I`` on ``rho``; the post-measurement state
    sqrt(L) rho sqrt(L) / tr(L rho) stays within sqrt(1 - tr(L rho)) of the
    original, and that certificate is asserted on every call.

    A dense ``operator`` is checked to be Hermitian and between 0 and I, and
    its root is taken by :func:`_operator_root`.  A :class:`BlockProjector`
    is a projector by construction and its own root, so it is applied block
    by block as ``u^dagger (keep * (u F_a))``, with no Hermitian scan, no
    eigendecomposition and no dense operator.

    The post-state is built from the branches ``sqrt(L) F / sqrt(p)`` of
    ``rho``'s factor ``F``, with ``p = ||sqrt(L) F||_F^2``.  ``achieved`` is
    the post-state's distance from ``rho``, the figure the certificate bounds.
    """
    if isinstance(operator, BlockProjector):
        if operator.dimension != rho.dimension:
            raise StateError("operator dimension does not match the state")
        root = operator.apply
    else:
        lam = np.asarray(operator, dtype=np.complex128)
        if lam.shape != (rho.dimension, rho.dimension):
            raise StateError("operator dimension does not match the state")
        if np.max(np.abs(lam - lam.conj().T)) > STATE_ATOL:
            raise StateError("operator is not Hermitian within tolerance")
        root = partial(np.matmul, _operator_root(hermitize(lam)))
    branches = root(rho.factor)
    p = float(np.vdot(branches, branches).real)
    if p <= 1e-14:
        raise StateError("measurement succeeds with probability 0")
    post = DensityOperator(rho.dimension, branches / math.sqrt(p))
    certificate = math.sqrt(max(0.0, 1.0 - p))
    achieved = trace_distance(post, rho)
    if achieved > certificate + CHECK_ATOL:
        raise AssertionError(
            f"gentle-measurement certificate violated: {achieved} > {certificate}"
        )
    return GentleMeasurement(p, post, certificate, achieved)


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
    notes: str

    def as_rows(self) -> list[dict]:
        base = {"protocol": self.protocol, "n": self.n, "mode": self.mode,
                "delta": self.delta, "epsilon": self.epsilon,
                "epsilon_prime": self.epsilon_prime,
                "client_executable": self.client_executable}
        return [dict(base, bit=b.index, probability=b.probability, drift=b.drift,
                     drift_bound=b.drift_bound, premise_ok=b.premise_ok)
                for b in self.bits]


def extraction_attack(instance: QpirInstance, mode: str, database=None) -> ReconstructionTrace:
    """The sequential learn-every-bit attack.

    Runs the protocol once with client input 1, then for each further index
    conjugates the decoding measurement by the purification-side unitary
    relating the run-1 and run-i server marginals, measuring and gently
    recovering in sequence.  Only run 1 is kept; each later run gives its
    correctness term, its view distance to run 1 and its unitary, and is
    dropped.  The privacy error ``epsilon`` is half the largest of those
    distances, measured as an anchored-privacy row is: both views taken
    into one branch span (:func:`~qpirlab.adversaries.block_spans`, one
    label ``I = 1``, as neither run has ``refi``) and the pair compared
    there by :func:`~qpirlab.distances.paired_distances`.

    ``classical-per-a`` computes those unitaries per database, so the trace
    records that the strategy is not executable by a client who does not
    know the database.  ``coherent-reference`` runs on the uniform database
    superposition entangled with an untouched reference, making the
    unitaries input-independent (client-executable), which is exactly the
    input class anchored privacy excludes; it takes no ``database``.  Either way each bit is measured
    as a :class:`BlockProjector`: one block in ``classical-per-a``, one block
    per reference label ``a`` in ``coherent-reference``, keeping the outputs
    that match bit ``i`` of ``a``.
    """
    if mode not in ("classical-per-a", "coherent-reference"):
        raise ValueError(f"unknown attack mode {mode!r}")
    if not is_measurement_free(instance.spec):
        raise ValueError("the attack machinery assumes a measurement-free protocol")
    n = instance.n
    if mode == "coherent-reference" and instance.database_register is None:
        raise ValueError("coherent-reference mode needs the quantum-database path")
    if mode == "coherent-reference" and database is not None:
        raise ValueError("coherent-reference mode takes no database: it runs on the "
                         "uniform database superposition")

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
        return execute(instance.spec, state, keep=())

    def correctness(final, i: int) -> float:
        """Probability that the decoder returns bit ``i`` of the database."""
        if mode == "classical-per-a":
            joint = final.probabilities((instance.output_register,))
            return float(joint[bits[i - 1]])
        joint = final.probabilities(("refdb", instance.output_register))
        return sum(float(joint[2 * a + ((a >> (n - i)) & 1)]) for a in range(1 << n))

    first = run(1)
    b_regs = list(first.owned(first.steps, CLIENT))
    final_1 = first.final
    view_1 = first.server_view(first.steps)
    correct = [correctness(first.final, 1)]
    rho = sigma_1 = first.final.reduced(
        b_regs if mode == "classical-per-a" else ["refdb"] + b_regs)
    client = final_1.layout.subset(b_regs)  # the output bit of each client basis index
    out = _gather(np.arange(client.dim), client.total_qubits,
                  client.slots([instance.output_register]))
    del first

    # Each later run, one at a time: its decoder's correctness, half its
    # server-plus-reference marginal's distance from run 1's (the measured
    # privacy error of the input class), and the unitary on the client's
    # registers relating it to run 1 (None when none exists).
    eps = 0.0
    unitaries: list[np.ndarray | None] = [np.eye(len(out))]
    for i in range(2, n + 1):
        tr = run(i)
        correct.append(correctness(tr.final, i))
        ((a, b),) = block_spans((view_1, tr.server_view(tr.steps)), None, [None])
        eps = max(eps, paired_distances([(a[:, :, 0], b[:, :, 0])])[0] / 2.0)
        try:
            unitaries.append(uhlmann_unitary(final_1, tr.final, side=b_regs))
        except UhlmannPreconditionError:
            unitaries.append(None)
        del tr
    delta = max(0.0, 1.0 - min(correct))
    eps_p = epsilon_prime(eps)

    extractions = []
    overall = 1.0
    drift_step = math.sqrt(delta + eps_p)
    for i in range(1, n + 1):
        u = unitaries[i - 1]
        if u is None:
            # not implementable; the attacker is left guessing this bit
            extractions.append(BitExtraction(i, 0.5, extractions[-1].drift if extractions else 0.0,
                                             i * drift_step, False))
            overall *= 0.5
            continue
        if mode == "classical-per-a":
            keep = (out == bits[i - 1])[None]
        else:
            a_bits = (np.arange(1 << n) >> (n - i)) & 1
            keep = out[None] == a_bits[:, None]
        outcome = gentle_measure(rho, BlockProjector(i, u, keep))
        # measured on sigma_1 itself, the drift is the distance just certified
        drift = (outcome.achieved if rho is sigma_1
                 else trace_distance(outcome.post_state, sigma_1))
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
        return asdict(self)


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
