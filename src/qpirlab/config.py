"""Global resource caps and numerical tolerances.

All dense simulation in this package is bounded by two knobs: a hard cap on
the number of qubits in any global statevector, and a cap on the width of any
subsystem for which a reduced density matrix is materialized.  Both can be
overridden through environment variables, so batch runs can fail fast with a
register bill instead of exhausting memory.
"""

from __future__ import annotations

import os

# Hard cap on total qubits of a global pure state (2**24 amplitudes = 256 MiB).
DEFAULT_QUBIT_CAP = 24

# Cap on the qubit width of any materialized density operator (2**12 = 4096).
DEFAULT_REDUCED_CAP = 12

# State validity (norms, Hermiticity, completeness of operator sets).
STATE_ATOL = 1e-10

# Assertion-level comparisons in analyses and tests.
CHECK_ATOL = 1e-9

_CAP_ENV = "QPIRLAB_QUBIT_CAP"
_REDUCED_ENV = "QPIRLAB_REDUCED_CAP"


def qubit_cap() -> int:
    """Current global qubit cap (env ``QPIRLAB_QUBIT_CAP`` overrides)."""
    return int(os.environ.get(_CAP_ENV, DEFAULT_QUBIT_CAP))


def reduced_cap() -> int:
    """Current reduced-operator qubit cap (env ``QPIRLAB_REDUCED_CAP``)."""
    return int(os.environ.get(_REDUCED_ENV, DEFAULT_REDUCED_CAP))


class CapExceeded(Exception):
    """A register bill would exceed a configured cap."""


class QubitCapExceeded(CapExceeded):
    """The cap passed is the qubit cap, which ``QPIRLAB_QUBIT_CAP`` raises."""


def check_cap(qubits: int, *, what: str) -> None:
    limit = qubit_cap()
    if qubits > limit:
        raise QubitCapExceeded(f"{what} needs {qubits} qubits, cap is {limit}")


def check_branches(rows: int, dim: int, *, what: str) -> None:
    """A ``(rows, dim)`` branch array may hold at most as many amplitudes as
    one state at the qubit cap, ``2**qubit_cap()``."""
    limit = qubit_cap()
    if rows * dim > 1 << limit:
        raise QubitCapExceeded(f"{what} needs {rows} branches x {dim} amplitudes, "
                               f"past 2**{limit} at cap {limit}")


def check_reduced_cap(qubits: int) -> None:
    limit = reduced_cap()
    if qubits > limit:
        raise CapExceeded(
            f"reduced operator needs {qubits} qubits, reduced cap is {limit}"
        )
