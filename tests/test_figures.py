import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "figures.py"


def test_figures_prints_one_exact_figure_per_label():
    res = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True)
    lines = res.stdout.splitlines()
    figures = {}
    for line in lines:
        label, value = line.split(" ")
        assert label and value.startswith(("0x", "-0x")), line
        figures[label] = float.fromhex(value)
    assert len(figures) == len(lines)  # labels are unique
    prefixes = {label.split("/")[0] for label in figures}
    assert prefixes == {"privacy", "specious", "certificate", "theorem_bound", "attack",
                        "decode"}
    assert abs(figures["attack/k4/coherent-reference/overall"] - 1 / 8) <= 1e-12
    assert abs(figures["privacy/cx2-purified/anchored/eps_lower"] - 0.25) <= 1e-12
