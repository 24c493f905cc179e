import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernels.py"


def test_kernels_prints_one_timed_row_per_op():
    res = subprocess.run([sys.executable, str(SCRIPT), "--qubits", "11"], capture_output=True,
                         text=True, check=True)
    out = json.loads(res.stdout)
    assert out["qubits"] == 11
    names = [r["row"] for r in out["rows"]]
    assert len(set(names)) == len(names) == 12
    for kind in ("hadamard", "inner-product-cnot", "select-phase", "copy", "swap",
                 "controlled rotate", "measure", "PureState"):
        assert any(name.startswith(kind) for name in names), kind
    for r in out["rows"]:
        assert r["ms"] > 0, r
        # every call allocates its output while tracing runs
        assert r["peak_over_output"] >= 1.0, r


def test_kernels_refuses_too_few_qubits():
    res = subprocess.run([sys.executable, str(SCRIPT), "--qubits", "9"], capture_output=True,
                         text=True)
    assert res.returncode == 2 and "at least 10" in res.stderr
