"""Print kernel-layer numbers: one ``apply_vectors`` call per op row, as JSON.

Each row applies one op to the ``Support`` of a one-row random state of
``--qubits`` qubits (default 20, every amplitude nonzero) with one BLAS
thread.  It reports the best of five warm calls in milliseconds (``ms``)
and the tracemalloc peak of one more call over the bytes of the output
arrays that share no memory with the input (``peak_over_output``; the
input is allocated before tracing starts, and an XOR op's output shares
its ``branch`` and ``value`` with it, a phase's its ``branch`` and
``index``).  The rows are those of the kernel table in
ROADMAP.md, with the Hadamard at several placements of its register; the
``PureState`` row builds a state from the dense vector.

A fully nonzero state is the worst case of the support form: the lab's runs
hold a classical database, so almost all of their amplitudes are exact
zeros.

The script imports ``qpirlab`` from the ``src`` beside it.  To compare two
commits, run a copy of it in a checkout of each, alternately, on one
machine.

Usage: python scripts/kernels.py [--qubits Q]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

# One BLAS thread, fixed before numpy loads the library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qpirlab.channels import (CopyOp, HadamardOp, InnerProductCnotOp,  # noqa: E402
                              MeasureOp, RotateOp, SelectPhaseOp, Support, SwapOp)
from qpirlab.states import PureState, RegisterLayout  # noqa: E402

# The fewest qubits that fit every row's registers.
MIN_QUBITS = 10


def rows(q: int):
    """(name, registers, call, form) per row; ``call(form(vectors), layout)``
    is timed on the dense ``(1, dim)`` array ``vectors``.  Each layout's
    last register pads the state to ``q`` qubits."""
    half = (q - 8) // 2
    rot = RotateOp(("t", 0), 0.3, ("c", 0))
    table = [
        ("hadamard, 4-qubit register in the low slots", (("hi", q - 4), ("r", 4)),
         HadamardOp("r")),
        ("hadamard, 8-qubit register in the middle", (("hi", half), ("r", 8), ("lo", q - 8 - half)),
         HadamardOp("r")),
        ("hadamard, 1 qubit above 3 low qubits", (("hi", q - 4), ("r", 1), ("lo", 3)),
         HadamardOp("r")),
        ("hadamard, 2-qubit register at slots 3-4", (("hi", 3), ("r", 2), ("lo", q - 5)),
         HadamardOp("r")),
        ("inner-product-cnot", (("s", 4), ("m", 4), ("t", 1), ("lo", q - 9)),
         InnerProductCnotOp(source="s", target="t", mask_register="m")),
        ("select-phase", (("sel", 2), ("a", 4), ("lo", q - 6)),
         SelectPhaseOp(tuple((v, ("a", v)) for v in range(4)), selector="sel")),
        ("copy", (("a", 4), ("b", 4), ("lo", q - 8)), CopyOp("a", "b")),
        ("swap", (("a", 4), ("b", 4), ("lo", q - 8)), SwapOp("a", "b")),
        ("controlled rotate, control right before target",
         (("hi", half), ("c", 1), ("t", 1), ("lo", q - 2 - half)), rot),
        ("controlled rotate, control and target apart",
         (("c", 1), ("hi", half), ("t", 1), ("lo", q - 2 - half)), rot),
        ("measure, 4-qubit register in the low slots", (("hi", q - 4), ("r", 4)),
         MeasureOp("r")),
    ]
    out = [(name, regs, op.apply_vectors, Support.of) for name, regs, op in table]
    out.append(("PureState construction", (("all", q),),
                lambda vectors, layout: PureState(layout, vectors[0]), lambda vectors: vectors))
    return out


def _arrays(x) -> list[np.ndarray]:
    """The arrays a row's input or output holds: a dense array, a
    ``PureState``'s amplitudes or a ``Support``'s three arrays."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, PureState):
        return [x.amplitudes]
    return [x.branch, x.index, x.value]


def measure(call, vectors, layout) -> dict:
    call(vectors, layout)  # warm: lazy set-up
    times = []
    for _ in range(5):
        start = time.perf_counter()
        out = call(vectors, layout)
        times.append(time.perf_counter() - start)
        del out
    tracemalloc.start()
    try:
        out = call(vectors, layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(a.nbytes for a in _arrays(out)
                 if not any(np.shares_memory(a, b) for b in _arrays(vectors)))
    return {"ms": round(min(times) * 1e3, 3), "peak_over_output": round(peak / nbytes, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("--qubits", type=int, default=20)
    args = ap.parse_args(argv)
    if args.qubits < MIN_QUBITS:
        ap.error(f"--qubits must be at least {MIN_QUBITS}")
    rng = np.random.default_rng(0)
    result = {"qubits": args.qubits, "numpy": np.__version__, "rows": []}
    for name, regs, call, form in rows(args.qubits):
        layout = RegisterLayout(regs)
        vectors = rng.normal(size=(1, layout.dim)) + 1j * rng.normal(size=(1, layout.dim))
        vectors /= np.linalg.norm(vectors)
        result["rows"].append({"row": name, **measure(call, form(vectors), layout)})
        del vectors
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
