"""The path from a test input to a privacy figure: the standard inputs, the
view runner, the view distance, and the checks that reject inputs an
analysis cannot honour."""

import numpy as np
import pytest

from qpirlab.adversaries import client_variants, standard_inputs
from qpirlab.bounds import extraction_attack
from qpirlab.config import CapExceeded
from qpirlab.distances import ensemble_trace_distance
from qpirlab.privacy import _server_views
from qpirlab.protocols import build_counterexample, build_kerenidis
from qpirlab.runtime import Ensemble, execute
from qpirlab.states import LayoutError, RegisterLayout


def _aligned_by_hand(v, layout, names):
    # One branch with its qubits permuted into the register order `names`.
    order = [q for n in names for q in layout.slots([n])]
    return v.reshape([2] * layout.total_qubits).transpose(order).reshape(-1)


@pytest.mark.parametrize("seed", range(3))
def test_ensemble_distance_aligns_the_other_view_by_name(seed):
    rng = np.random.default_rng(800 + seed)
    regs = [("x", 2), ("y", 1), ("z", 2)]

    def random_ensemble(layout, rows):
        v = rng.normal(size=(rows, layout.dim)) + 1j * rng.normal(size=(rows, layout.dim))
        return Ensemble(layout, v / np.linalg.norm(v))

    a = random_ensemble(RegisterLayout(tuple(regs[i] for i in rng.permutation(3))), 3)
    b = random_ensemble(RegisterLayout(tuple(regs[i] for i in rng.permutation(3))), 2)
    by_hand = [_aligned_by_hand(v, b.layout, a.layout.names) for v in b.vectors]
    assert a.distance(b) == pytest.approx(ensemble_trace_distance(a.vectors, by_hand), abs=1e-12)
    assert a.distance(a) <= 1e-12

    other = random_ensemble(RegisterLayout((("x", 2), ("y", 1), ("w", 2))), 1)
    with pytest.raises(LayoutError):
        a.distance(other)


def test_ensemble_trace_distance_takes_rows_or_arrays(rng):
    assert ensemble_trace_distance([], []) == 0.0
    assert ensemble_trace_distance(np.zeros((0, 8)), np.zeros((0, 8))) == 0.0
    a = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    b = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    assert ensemble_trace_distance(list(a), list(b)) == ensemble_trace_distance(a, b)
    one_sided = ensemble_trace_distance(np.zeros((0, 8)), b)
    assert ensemble_trace_distance([], list(b)) == one_sided
    assert one_sided == pytest.approx(0.5 * np.vdot(b, b).real, abs=1e-12)


def test_server_views_match_a_run_that_keeps_every_step():
    k2 = build_kerenidis(2)
    steps = list(range(1, 2 * k2.spec.rounds + 1))
    for ins in standard_inputs(k2, superposed_db=True):
        views = _server_views(k2.spec, ins.state, steps)
        kept = execute(k2.spec, ins.state)
        assert sorted(views) == steps
        for t in steps:
            want = kept.server_view(t)
            assert views[t].layout == want.layout
            np.testing.assert_array_equal(views[t].vectors, want.vectors)


@pytest.mark.parametrize("build", [lambda: build_kerenidis(2), lambda: build_kerenidis(4),
                                   lambda: build_kerenidis(2, database=(1, 0)),
                                   lambda: build_counterexample(1)])
def test_input_database_agrees_with_its_label(build):
    inst = build()
    inputs = standard_inputs(inst, superposed_db=inst.database_register is not None)
    for ins in inputs:
        if ins.x_label in ("x=+", "x=built-in"):
            assert ins.db is None
            continue
        assert ins.x_label == f"x={ins.db:0{inst.n}b}"
        assert ins.state.probabilities((inst.database_register,))[ins.db] == pytest.approx(1.0)
    if inst.database_register is not None:
        assert sorted({ins.db for ins in inputs} - {None}) == list(range(1 << inst.n))


@pytest.mark.parametrize("n", [2, 4])
def test_correlated_input_has_the_marginals_of_the_entangled_input(n):
    variants = {label: state for label, _, state, _ in client_variants(build_kerenidis(n))}
    entangled = Ensemble.from_pure(variants["i-entangled"])
    correlated = variants["i-correlated"]
    assert len(correlated.vectors) == n
    for side in ("idx", "refi"):
        assert entangled.traced([side]).distance(correlated.traced([side])) <= 1e-15


def test_standard_inputs_refuse_to_test_a_subset_of_databases(monkeypatch):
    monkeypatch.setenv("QPIRLAB_QUBIT_CAP", "28")
    inst = build_kerenidis(8)
    with pytest.raises(CapExceeded, match=r"all 256 databases.*cap is 16"):
        standard_inputs(inst)


def test_decode_without_index_register_accepts_only_index_1():
    inst = build_kerenidis(1)
    tr = inst.run((1,), 1)
    assert inst.decode(tr, 1) == (1, pytest.approx(1.0))
    for index in (0, 2):
        with pytest.raises(ValueError, match="only index=1"):
            inst.decode(tr, index)


def test_extraction_rejects_a_database_other_than_the_built_in_one():
    inst = build_kerenidis(2, database=(0, 1))
    with pytest.raises(ValueError, match="database 10 disagrees with the database 01"):
        extraction_attack(inst, "classical-per-a", database=(1, 0))
