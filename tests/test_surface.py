import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "surface.py"


def test_surface_prints_both_metrics():
    res = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         check=True)
    figures = dict(line.split() for line in res.stdout.splitlines())
    assert set(figures) == {"src_lines", "options"}
    assert all(int(v) > 0 for v in figures.values())
    # Ratchet: a change that adds an option raises this ceiling and says why.
    assert int(figures["options"]) <= 46
    # Ratchet: a change that adds source lines raises this ceiling and says why.
    assert int(figures["src_lines"]) <= 4602
