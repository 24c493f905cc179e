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


FIGDIFF = SCRIPT.with_name("figdiff.py")


def _figdiff(tmp_path, parent, change):
    paths = []
    for name, figures in (("parent", parent), ("change", change)):
        path = tmp_path / name
        path.write_text("".join(f"{label} {float(v).hex()}\n" for label, v in figures.items()))
        paths.append(str(path))
    res = subprocess.run([sys.executable, str(FIGDIFF), *paths], capture_output=True, text=True)
    out, moved, largest = {}, {}, {}
    for line in res.stdout.splitlines():
        key, rest = line.split(" ", 1)
        # the changed lines come after the whole summary
        assert "changed" not in out or key == "changed", line
        if key == "moved":
            section, rest = rest.split(" ", 1)
            count, worst = rest.split(" largest ")
            moved[section] = count
            largest[section] = worst.split()
        elif key == "changed":
            out.setdefault("changed", []).append(rest.split())
        else:
            out[key] = rest
    return res.returncode, out, moved, largest


PARENT = {"privacy/a": 0.25, "privacy/b": 0.5, "specious/a": 1 / 3}


def test_figdiff_passes_identical_prints(tmp_path):
    code, out, moved, largest = _figdiff(tmp_path, PARENT, PARENT)
    assert code == 0
    assert out["labels"] == "3" and out["bit-identical"] == "3"
    assert out["largest"] == "0 -"
    assert moved == {"privacy": "0 of 2", "specious": "0 of 1"}
    assert largest == {"privacy": ["0", "-"], "specious": ["0", "-"]}
    assert "changed" not in out


def test_figdiff_passes_a_move_within_tolerance(tmp_path):
    code, out, moved, largest = _figdiff(tmp_path, PARENT,
                                         dict(PARENT, **{"privacy/b": 0.5 + 2e-16}))
    assert code == 0
    assert out["bit-identical"] == "2"
    assert moved == {"privacy": "1 of 2", "specious": "0 of 1"}
    assert out["largest"].split() == ["2.22e-16", "privacy/b"]
    assert largest == {"privacy": ["2.22e-16", "privacy/b"], "specious": ["0", "-"]}
    # the moved figure itself, both values exact
    assert out["changed"] == [["privacy/b", "0.5", "0.5000000000000002"]]


def test_figdiff_fails_a_move_beyond_tolerance(tmp_path):
    change = dict(PARENT, **{"privacy/a": 0.25 + 1e-15, "specious/a": 0.5})
    code, out, moved, largest = _figdiff(tmp_path, PARENT, change)
    assert code == 1
    assert out["bit-identical"] == "1"
    assert moved == {"privacy": "1 of 2", "specious": "1 of 1"}
    assert out["largest"].split()[1] == "specious/a"
    # each section reports its own worst figure, not the overall one
    assert largest["privacy"] == ["9.99e-16", "privacy/a"]
    assert largest["specious"] == out["largest"].split()
    # one line per moved figure, after the summary, in the parent's order
    assert out["changed"] == [["privacy/a", "0.25", repr(0.25 + 1e-15)],
                              ["specious/a", repr(1 / 3), "0.5"]]


def test_figdiff_counts_a_nan_as_the_worst(tmp_path):
    # the NaN comes after a finite move in its section and stays the worst
    change = dict(PARENT, **{"privacy/a": 0.25 + 1e-15, "privacy/b": float("nan")})
    code, out, moved, largest = _figdiff(tmp_path, PARENT, change)
    assert code == 1
    assert moved == {"privacy": "2 of 2", "specious": "0 of 1"}
    assert largest == {"privacy": ["nan", "privacy/b"], "specious": ["0", "-"]}
    assert out["largest"].split() == ["nan", "privacy/b"]
    assert [line[0] for line in out["changed"]] == ["privacy/a", "privacy/b"]
    assert out["changed"][1][1:] == ["0.5", "nan"]


def test_figdiff_fails_different_labels(tmp_path):
    change = {"privacy/a": 0.25, "privacy/c": 0.5, "specious/a": 1 / 3}
    code, out, _, _ = _figdiff(tmp_path, PARENT, change)
    assert code == 1
    assert out["only-in-parent"] == "1 privacy/b"
    assert out["only-in-change"] == "1 privacy/c"
    assert out["labels"] == "2" and out["bit-identical"] == "2"
