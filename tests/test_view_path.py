"""The path from a test input to a privacy figure: the standard inputs, the
view runner, the views in their branch span, the view distance, and the
checks that reject inputs an analysis cannot honour."""

import importlib
import pkgutil
import sys
from itertools import combinations

import numpy as np
import pytest

import qpirlab
from qpirlab import adversaries, bounds, privacy, runtime
from qpirlab import distances as distances_module
from qpirlab.adversaries import (PURIFIER, InputSpec, adversary_by_name, client_variants,
                                 database_groups, measure_speciousness, purified_honest,
                                 purified_input, standard_inputs, steered_rows)
from qpirlab.bounds import extraction_attack
from qpirlab.channels import MeasureOp, Support
from qpirlab.config import CapExceeded
from qpirlab.distances import paired_distances
from qpirlab.privacy import _even_steps, privacy_lower_bound
from qpirlab.protocols import build_counterexample, build_kerenidis
from qpirlab.runtime import Ensemble, execute
from qpirlab.states import BRANCH_PRUNE, LayoutError, RegisterLayout
from span_reference import ensemble_distance, in_span, run_views, span_ensemble, steer


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
    by_hand = [_aligned_by_hand(v, b.layout, a.layout.names) for v in b.dense()]
    assert ensemble_distance(a, b) == pytest.approx(
        paired_distances([(a.dense(), np.array(by_hand))])[0], abs=1e-12)
    assert ensemble_distance(a, a) <= 1e-12

    other = random_ensemble(RegisterLayout((("x", 2), ("y", 1), ("w", 2))), 1)
    with pytest.raises(LayoutError):
        ensemble_distance(a, other)


def test_paired_distances_of_empty_and_one_sided_pairs(rng):
    assert paired_distances([(np.zeros((0, 8)), np.zeros((0, 8)))]) == [0.0]
    b = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    one_sided, = paired_distances([(np.zeros((0, 8)), b)])
    assert one_sided == pytest.approx(0.5 * np.vdot(b, b).real, abs=1e-12)


def test_server_views_match_a_run_that_keeps_every_step():
    k2 = build_kerenidis(2)
    steps = list(range(1, 2 * k2.spec.rounds + 1))
    for members in database_groups(standard_inputs(k2, superposed_db=True)):
        database = members[0].database
        run = run_views(k2.spec, database, steps)
        assert sorted(run) == steps
        kept = execute(k2.spec, purified_input(k2.spec, database))
        for ins in members:
            for t in steps:
                got = steer(run[t], ins.client, ins.reference)
                want = steer(kept.server_view(t), ins.client, ins.reference)
                assert got.layout == want.layout
                np.testing.assert_array_equal(got.dense(), want.dense())


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
        assert ensemble_distance(entangled.traced([side]), correlated.traced([side])) <= 1e-15


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


# ---------------------------------------------------------------------------
# views in their branch span, against the named views
# ---------------------------------------------------------------------------


def _random_ensemble(rng, layout, rows, scale=1.0):
    v = rng.normal(size=(rows, layout.dim)) + 1j * rng.normal(size=(rows, layout.dim))
    return Ensemble(layout, scale * v / np.linalg.norm(v))


def _clients(rng, index_width):
    """Pure and two-branch client states over an index and one reference."""
    layout = RegisterLayout((("idx", index_width), ("refx", 1)))
    return [_random_ensemble(rng, layout, rows) for rows in (1, 1, 2, 3)]


def _weight(ens):
    """The squared norm of all the branches of ``ens``, an ``Ensemble`` or
    a span array."""
    v = ens.dense() if isinstance(ens, Ensemble) else ens
    return np.vdot(v, v).real


def _pairwise(views):
    return [ensemble_distance(a, b) for a, b in combinations(views, 2)]


@pytest.mark.parametrize("seed", range(3))
def test_span_views_match_the_named_views(seed):
    rng = np.random.default_rng(1200 + seed)
    # 3 branches x 4 labels span 12 of the 32 other amplitudes: R's 12
    # rows, with no padding
    ens = _random_ensemble(rng, RegisterLayout((("a", 2), (PURIFIER, 2), ("b", 3))), 3)
    (span,) = in_span(ens)
    assert span.shape == (3, 12, 4)
    assert _weight(span) == pytest.approx(_weight(ens), abs=1e-12)
    clients = _clients(rng, 2)
    named = [steer(ens, c, ("refx",)) for c in clients]
    spanned = [steer(span_ensemble(span), c, ("refx",)) for c in clients]
    np.testing.assert_allclose(_pairwise(spanned), _pairwise(named), rtol=0, atol=1e-12)


def test_one_span_serves_two_ensembles():
    # as in the speciousness meter: the other ensemble's registers come in
    # another order and are aligned by name before the one QR
    rng = np.random.default_rng(1210)
    regs = (("a", 2), (PURIFIER, 1), ("b", 2))
    ens = _random_ensemble(rng, RegisterLayout(regs), 2)
    other = _random_ensemble(rng, RegisterLayout(regs[::-1]), 3)
    span_ens, span_other = in_span(ens, other)
    assert span_ens.shape[1:] == span_other.shape[1:]
    for c in _clients(rng, 1):
        want = ensemble_distance(steer(ens, c, ("refx",)), steer(other, c, ("refx",)))
        got = ensemble_distance(steer(span_ensemble(span_ens), c, ("refx",)),
                                steer(span_ensemble(span_other), c, ("refx",)))
        assert got == pytest.approx(want, abs=1e-12)
    with pytest.raises(LayoutError):
        in_span(ens, _random_ensemble(rng, RegisterLayout((("a", 2), (PURIFIER, 1), ("c", 2))), 1))


def test_a_run_without_the_purifier_is_one_label(rng):
    # span coordinates (B, S, 1) like every other span, S at most the
    # support rows and the columns; the other aligned to the first by name
    ens = _random_ensemble(rng, RegisterLayout((("a", 2), ("b", 1))), 2)
    other = _random_ensemble(rng, RegisterLayout((("b", 1), ("a", 2))), 1)
    dense, aligned = ens.dense(), other.aligned_vectors(ens.layout.names)
    (alone,) = in_span(ens)
    assert alone.shape == (2, 2, 1)
    np.testing.assert_allclose(alone[:, :, 0] @ alone[:, :, 0].conj().T,
                               dense @ dense.conj().T, rtol=0, atol=1e-12)
    got = in_span(ens, other)
    assert [s.shape for s in got] == [(2, 3, 1), (1, 3, 1)]
    rows = np.concatenate([s[:, :, 0] for s in got])
    both = np.concatenate([dense, aligned])
    # every inner product of the branches, the other's across the first's
    np.testing.assert_allclose(rows @ rows.conj().T, both @ both.conj().T, rtol=0, atol=1e-12)
    assert paired_distances([(got[0][:, :, 0], got[1][:, :, 0])])[0] == pytest.approx(
        paired_distances([(dense, aligned)])[0], abs=1e-12)
    assert ensemble_distance(span_ensemble(got[0]), span_ensemble(got[1])) == pytest.approx(
        ensemble_distance(ens, other), abs=1e-12)

    # a classical label of `a` leaves 2 of the 8 amplitudes nonzero: S <= 2
    sparse = np.zeros((3, 8), dtype=complex)
    sparse[:, [2, 3]] = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    (few,) = in_span(Ensemble(ens.layout, sparse))
    assert few.shape == (3, 2, 1)
    np.testing.assert_allclose(few[:, :, 0] @ few[:, :, 0].conj().T,
                               sparse @ sparse.conj().T, rtol=0, atol=1e-12)


def test_dropped_directions_carry_at_most_the_prune_weight():
    # Branch weights near 1e-20, so rounding (1e-36) sits far below the
    # prune level: two directions carry the columns, two more carry only
    # 1e-28 each, and those two are dropped.
    rng = np.random.default_rng(1220)
    layout = RegisterLayout((("a", 3), (PURIFIER, 1)))
    v = np.zeros((2, 8, 2), dtype=complex)  # (branch, a, purifier label)
    v[:, :2] = 1e-10 * (rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2)))
    v[:, 2:] = 1e-14 * (rng.normal(size=(2, 6, 2)) + 1j * rng.normal(size=(2, 6, 2)))
    ens = Ensemble(layout, v.reshape(2, -1))
    (span,) = in_span(ens)
    kept = int(np.count_nonzero((np.abs(span) ** 2).sum(axis=(0, 2))))
    dropped = 4 - kept  # R has min(8 amplitudes, 4 columns) rows
    assert (kept, dropped) == (2, 2)
    assert 0 <= _weight(ens) - _weight(span) <= dropped * BRANCH_PRUNE


def _recording_qr(monkeypatch):
    """Record the input of every ``np.linalg.qr`` call."""
    inner, inputs = np.linalg.qr, []

    def recorded(a, *args, **kwargs):
        inputs.append(np.array(a))
        return inner(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", recorded)
    return inputs


def _columns(views):
    """The column matrix ``[v[b, i]]`` of ``views`` over their other
    amplitudes, in the order ``in_span`` takes them."""
    lay = views[0].layout
    order = (PURIFIER, *(n for n in lay.names if n != PURIFIER))
    others = lay.dim // 2 ** lay.width(PURIFIER)
    return np.concatenate([v.aligned_vectors(order).reshape(-1, others) for v in views]).T


def _span_coordinates(spans):
    """The coordinates of the same columns in the ``(B, S, I)`` span
    arrays: one column per (branch, label), one row per span row."""
    return np.concatenate([s.swapaxes(0, 1).reshape(s.shape[1], -1) for s in spans], axis=1)


def test_dense_columns_factor_as_a_plain_qr(monkeypatch):
    # no amplitude is zero in every column, so in_span factors the column
    # matrix as it is and R is bit for bit that of np.linalg.qr
    rng = np.random.default_rng(1230)
    regs = (("a", 2), (PURIFIER, 1), ("b", 2))
    views = [_random_ensemble(rng, RegisterLayout(regs), 3),
             _random_ensemble(rng, RegisterLayout(regs[::-1]), 2)]
    a = _columns(views)
    want = np.linalg.qr(a, mode="r")
    inputs = _recording_qr(monkeypatch)
    spans = in_span(*views)
    (got_input,) = inputs
    np.testing.assert_array_equal(got_input, a)
    coords = _span_coordinates(spans)
    assert len(coords) == len(want)  # R's rows as they are, with no padding
    np.testing.assert_array_equal(coords[:len(want)], want)


@pytest.mark.parametrize("seed", range(3))
def test_zero_amplitudes_leave_the_span_as_the_full_qr_gives_it(monkeypatch, seed):
    # Amplitude rows zero in every column of both views are interleaved
    # among rows that one view or both fill; the QR runs on the filled rows
    # only and gives coordinates of the same span.
    rng = np.random.default_rng(1240 + seed)
    layout = RegisterLayout((("a", 3), (PURIFIER, 1), ("b", 2)))
    views = []
    for rows, zero in ((3, [0, 2, 3, 5, 9, 12, 14, 17, 20, 26, 27, 31]),
                       (2, [0, 1, 3, 5, 8, 9, 12, 17, 20, 23, 27, 31])):
        v = rng.normal(size=(rows, 8, 2, 4)) + 1j * rng.normal(size=(rows, 8, 2, 4))
        a_label, b_label = np.divmod(zero, 4)  # other amplitude 4 a + b
        v[:, a_label, :, b_label] = 0
        views.append(Ensemble(layout, (v / np.linalg.norm(v)).reshape(rows, -1)))
    a = _columns(views)
    support = np.flatnonzero(np.any(a != 0, axis=1))
    assert 0 < len(support) < len(a)
    inputs = _recording_qr(monkeypatch)
    spans = in_span(*views)
    (got_input,) = inputs
    np.testing.assert_array_equal(got_input, a[support])
    coords = _span_coordinates(spans)
    full = np.linalg.qr(a, mode="r")
    gram = coords.conj().T @ coords
    np.testing.assert_allclose(gram, full.conj().T @ full, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram, a.conj().T @ a, rtol=0, atol=1e-12)
    for c in _clients(rng, 1):
        want = ensemble_distance(steer(views[0], c, ("refx",)), steer(views[1], c, ("refx",)))
        got = ensemble_distance(steer(span_ensemble(spans[0]), c, ("refx",)),
                                steer(span_ensemble(spans[1]), c, ("refx",)))
        assert got == pytest.approx(want, abs=1e-12)


def test_an_all_zero_view_has_an_empty_span():
    layout = RegisterLayout((("a", 2), (PURIFIER, 1), ("b", 1)))
    zero = Ensemble(layout, np.zeros((2, layout.dim), dtype=complex))
    spans = in_span(zero, Ensemble(layout, np.zeros((1, layout.dim), dtype=complex)))
    # every branch kept, no span row, the 2 refi labels
    assert [s.shape for s in spans] == [(2, 0, 2), (1, 0, 2)]
    assert all(_weight(s) == 0.0 for s in spans)


def test_lower_bound_spans_factor_their_support(monkeypatch):
    # a classical database leaves 8 of the 512 other amplitudes of each
    # span's columns nonzero, so each span's QR runs on at most 8 rows
    inputs = _recording_qr(monkeypatch)
    privacy_lower_bound(build_kerenidis(4))
    spans = [a for a in inputs if a.ndim == 2]
    assert len(spans) == 48
    assert max(len(a) for a in spans) <= 8


def _counting(monkeypatch, calls, module, name):
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def _counting_spans(monkeypatch, spans, module):
    """Record, per call of ``module.block_spans``, how many spans it returns."""
    inner = module.block_spans

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        spans.append(len(out))
        return out
    monkeypatch.setattr(module, "block_spans", counted)


def test_lower_bound_takes_one_span_per_database_and_step(monkeypatch):
    executes, spans, distances, qrs = [], [], [], []
    _counting(monkeypatch, executes, adversaries, "execute")
    _counting_spans(monkeypatch, spans, adversaries)
    _counting(monkeypatch, distances, distances_module, "ensemble_trace_distance")
    _counting(monkeypatch, qrs, np.linalg, "qr")
    report = privacy_lower_bound(build_kerenidis(4))
    assert len(report.rows) == 528
    # 16 databases x 3 even steps, the databases' views blocks of one run,
    # all the blocks of a step from one call
    assert (len(executes), sum(spans), len(spans)) == (1, 48, 3)
    # the 528 comparisons come in 3 [a b] shapes, one stacked call each
    assert len(distances) == 3
    assert len(qrs) == 48 + 3


def test_meter_takes_one_span_per_database_and_step(monkeypatch):
    executes, spans, distances, qrs = [], [], [], []
    _counting(monkeypatch, executes, adversaries, "execute")
    _counting_spans(monkeypatch, spans, adversaries)
    _counting(monkeypatch, distances, distances_module, "ensemble_trace_distance")
    _counting(monkeypatch, qrs, np.linalg, "qr")
    cx = build_counterexample(2)
    report = measure_speciousness(cx, purified_honest(cx))
    # 4 classical databases with 5 inputs each and the superposed one with 3,
    # at 8 steps
    assert len(report.rows) == 184
    # an honest and an adversarial run for the 4 classical databases
    # together and for the superposed one; 5 database states x 8 steps, in
    # one call per run and step
    assert (len(executes), sum(spans), len(spans)) == (4, 40, 16)
    # the 184 comparisons come in 3 [b a] shapes, one stacked call each
    assert len(distances) == 3
    assert len(qrs) == 40 + 3


def test_meter_measures_the_recovery_on_the_reduced_state(monkeypatch):
    # purified_honest's recovery measures dbm and discards purif1, which no
    # op touches: traced first, the 16-qubit adversarial state is measured
    # at 14 qubits, as the honest run is
    columns = []
    inner = MeasureOp.apply_vectors

    def recording(self, vectors, layout):
        columns.append(vectors.shape[1])
        return inner(self, vectors, layout)
    monkeypatch.setattr(MeasureOp, "apply_vectors", recording)
    cx = build_counterexample(2)
    measure_speciousness(cx, purified_honest(cx))
    assert max(columns) == 2**14


def test_certificates_take_one_span_per_database_and_step(monkeypatch):
    executes, spans, qrs = [], [], []
    _counting(monkeypatch, executes, adversaries, "execute")
    _counting_spans(monkeypatch, spans, adversaries)
    _counting(monkeypatch, qrs, np.linalg, "qr")
    privacy.HonestSimulator(build_kerenidis(4)).epsilon_upper()
    # 16 databases x 3 even steps, all in one run; the simulated view
    # shares it, and all the blocks of a step come from one call
    assert (len(executes), sum(spans), len(spans)) == (1, 48, 3)
    assert len(qrs) == 48 + 3

    k2 = build_kerenidis(2)
    sim = privacy.TheoremSimulator(privacy.HonestSimulator(k2),
                                   adversary_by_name(k2, "gamma-lossy:0.3"), 0)
    spans.clear()
    sim.certify()
    # 4 databases x 2 even steps, one call per step
    assert (sum(spans), len(spans)) == (8, 2)


def test_honest_certificate_takes_each_view_into_its_span_once(monkeypatch):
    # the simulated view is the run's own: one move per even step, and each
    # span QR factors the 128 columns of one view, not 256 of two
    moves = []
    _counting(monkeypatch, moves, runtime.Ensemble, "aligned_vectors")
    inputs = _recording_qr(monkeypatch)
    privacy.HonestSimulator(build_kerenidis(4)).epsilon_upper()
    assert len(moves) == 3
    spans = [a for a in inputs if a.ndim == 2]
    assert len(spans) == 48 and len(inputs) == 48 + 3
    assert {a.shape[1] for a in spans} == {128}


def test_attack_compares_its_views_in_one_span(monkeypatch):
    # each later run's view goes into one span with run 1's, never through
    # a QR of every amplitude row (8192 on k4): 128 nonzero rows at most
    inst = build_kerenidis(4)
    spans = []
    _counting_spans(monkeypatch, spans, bounds)
    inputs = _recording_qr(monkeypatch)
    trace = extraction_attack(inst, "coherent-reference")
    assert spans == [1] * (inst.n - 1)
    assert max(a.shape[-2] for a in inputs) <= 128
    assert trace.epsilon > 0.1
    assert not hasattr(runtime.Ensemble, "distance")
    assert "paired_distances" not in vars(runtime)


def _record_callers(monkeypatch, owner, name, calls):
    """Record, per call of ``owner.name``, the names of the functions on
    the calling stack."""
    inner = getattr(owner, name)

    def recorded(*args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(names)
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, name, recorded)


def test_every_figure_runs_its_plan_through_the_one_runner(monkeypatch):
    # the lower bound, the meter and both certificates take their runs from
    # database_runs only inside planned_spans, and the honest simulator
    # keeps nothing but its reference runs
    plans = []
    _record_callers(monkeypatch, adversaries, "database_runs", plans)
    k2, cx = build_kerenidis(2), build_counterexample(2)
    honest = privacy.HonestSimulator(k2)
    theorem = privacy.TheoremSimulator(honest, adversary_by_name(k2, "gamma-lossy:0.3"), 0)
    figures = {
        "privacy_lower_bound": lambda: privacy_lower_bound(k2),
        "measure_speciousness": lambda: measure_speciousness(cx, purified_honest(cx)),
        "epsilon_upper": honest.epsilon_upper,
        "certify": theorem.certify,
    }
    for name, figure in figures.items():
        plans.clear()
        figure()
        assert len(plans) == 1, name
        assert {name, "planned_spans"} <= plans[0], name
    assert not {"database_runs", "block_spans"} & set(vars(privacy))
    assert set(vars(honest)) == {"instance", "_references"}


def test_spans_reach_the_figures_as_plain_arrays(monkeypatch):
    # the lower bound moves each run view once, in block_spans, and takes
    # the support of nothing but its inputs: no span and no client state
    # goes through an Ensemble
    moves, supports = [], []
    _record_callers(monkeypatch, runtime.Ensemble, "aligned_vectors", moves)
    _record_callers(monkeypatch, Support, "of", supports)
    privacy_lower_bound(build_kerenidis(4))
    assert len(moves) == 3 and all("block_spans" in names for names in moves)
    assert 0 < len(supports) <= 4
    assert all({"standard_inputs", "database_runs"} & names for names in supports)
    # the meter wraps no client state, and no module of the package binds
    # the whole-ensemble steering of tests/span_reference.py
    wraps = []
    _record_callers(monkeypatch, runtime.Ensemble, "from_pure", wraps)
    cx = build_counterexample(2)
    measure_speciousness(cx, purified_honest(cx))
    assert wraps  # the run inputs
    assert not any({"steered_rows", "_client_matrix"} & names for names in wraps)
    for module in pkgutil.iter_modules(qpirlab.__path__):
        bound = vars(importlib.import_module(f"qpirlab.{module.name}"))
        assert not {"steer", "_purifier_last"} & set(bound), module.name


def test_certificates_pin_the_index_in_span_coordinates(monkeypatch):
    # both simulators hand on their view of the purified run with refi in
    # it: the only moves of a view are block_spans', and the certificate
    # tensors nothing with a mixed refi (the theorem simulator's anchor
    # tensor is its own)
    k2 = build_kerenidis(2)
    theorem = privacy.TheoremSimulator(privacy.HonestSimulator(k2),
                                       adversary_by_name(k2, "gamma-lossy:0.3"), 0)
    moves, tensors = [], []
    _record_callers(monkeypatch, runtime.Ensemble, "aligned_vectors", moves)
    inner = runtime.Ensemble.tensor

    def recorded(self, other):
        tensors.append(sys._getframe(1).f_code.co_qualname)
        return inner(self, other)
    monkeypatch.setattr(runtime.Ensemble, "tensor", recorded)
    privacy.HonestSimulator(build_kerenidis(4)).epsilon_upper()
    theorem.certify()
    assert moves and all("block_spans" in names for names in moves)
    assert "TheoremSimulator.simulated_view" in tensors
    assert not [caller for caller in tensors if caller.startswith("_certificate")]


def test_steer_reads_a_span_view_in_place(monkeypatch):
    # in_span gives plain (B, S, I) arrays with the refi labels last, so
    # steering them (steered_rows) takes no bit permutation at all; a run
    # view, refi not last, takes one
    inst = build_kerenidis(4)
    steps = _even_steps(inst.spec)
    runs = [run_views(inst.spec, inst.database_state(db), steps) for db in (0b0110, 0b1001)]
    permuted, gather = [], runtime._gather

    def recording(idx, total, slots):
        permuted.append(list(slots))
        return gather(idx, total, slots)

    monkeypatch.setattr(runtime, "_gather", recording)
    monkeypatch.setattr(adversaries, "_gather", recording)
    client = inst.client_basis_state(3)
    member = InputSpec("i=3", "x", None, "plain", None, client)
    assert len(steps) == 3
    for t in steps:
        spans = in_span(runs[0][t], runs[1][t])
        assert all(span.shape[-1] == 1 << inst.levels for span in spans)
        permuted.clear()
        (steered,) = steered_rows(spans, [member])
        assert permuted == []
        permuted.clear()
        steer(runs[0][t], client, ())
        assert len(permuted) == 1
        want = ensemble_distance(steer(runs[1][t], client, ()), steer(runs[0][t], client, ()))
        assert want > 0.5
        assert paired_distances([(steered[1], steered[0])])[0] == pytest.approx(want, abs=1e-12)
