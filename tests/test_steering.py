"""Steering against the per-input loop, and the shared run against the
per-database runs.

Every analysis runs each database state once, on the purified index, and
steers the result to each test input's client state.  The slow reference
here runs every test input on its own, as the analyses did before: views,
privacy rows, both certificates and the speciousness rows must agree with
it to 1e-12.  Where the specs only read the database register, the
classical databases are the blocks of one shared run; their views, states
and every figure row must equal those of one run per database bit for bit."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from qpirlab import adversaries, distances, privacy
from qpirlab.adversaries import (
    adversary_by_name,
    PURIFIER,
    Recovery,
    apply_recovery,
    block_spans,
    database_groups,
    database_runs,
    measure_speciousness,
    purification_attack,
    purified_honest,
    purified_input,
    shared_groups,
    standard_inputs,
    steered_rows,
)
from qpirlab.privacy import (
    HonestSimulator,
    TheoremSimulator,
    _even_steps,
    is_measurement_free,
    privacy_lower_bound,
)
from qpirlab.channels import HadamardOp
from qpirlab.protocols import build_baseline, build_counterexample, build_kerenidis
from qpirlab.runtime import Ensemble, execute
from qpirlab.states import PureState, RegisterLayout
from span_reference import (database_block, ensemble_distance, in_span, run_views, span_ensemble,
                            steer)

TOL = 1e-12


def _instance(name):
    return {
        "k1": lambda: build_kerenidis(1),
        "k2": lambda: build_kerenidis(2),
        "k4": lambda: build_kerenidis(4),
        "k2-classical": lambda: build_kerenidis(2, database=(1, 0)),
        "k4-classical": lambda: build_kerenidis(4, database=(0, 1, 1, 0)),
        "cx2": lambda: build_counterexample(2),
        # no index register, so its runs carry no refi
        "send-db-1": lambda: build_baseline("send-db", 1),
        # the server holds the index, so the simulator's index 1 shows
        "send-index-2": lambda: build_baseline("send-index", 2),
    }[name]()


def _adversary(inst, name):
    if name is None:
        return None
    return purified_honest(inst) if name == "honest-purified" else adversary_by_name(inst, name)


# ---------------------------------------------------------------------------
# the slow reference: one run per test input
# ---------------------------------------------------------------------------


def _reference_views(spec, inputs, steps):
    out = {}
    for ins in inputs:
        tr = execute(spec, ins.state, keep=steps)
        out[ins.label] = {t: tr.server_view(t) for t in steps}
    return out


def _reference_rows(inst, spec, inputs, views):
    steps = _even_steps(inst.spec)
    groups = {}
    for ins in inputs:
        groups.setdefault((ins.x_label, ins.marginal_key), []).append(ins.label)
    rows = []
    for (x_label, _), labels in groups.items():
        for la, lb in combinations(labels, 2):
            for t in steps:
                rows.append((t, x_label, (la, lb), ensemble_distance(views[la][t], views[lb][t])))
    return rows


def _reference_marginal(state, reference):
    """The marginal of ``state`` on its ``reference`` registers (``None``
    without any)."""
    if not reference:
        return None
    ens = Ensemble.from_pure(state) if isinstance(state, PureState) else state
    return ens.traced([n for n in ens.layout.names if n not in reference])


def _reference_certificate(inst, spec, simulate):
    steps = _even_steps(inst.spec)
    inputs = standard_inputs(inst)
    views = _reference_views(spec, inputs, steps)
    rows = []
    for ins in inputs:
        ref = _reference_marginal(ins.state, ins.reference)
        for t in steps:
            sim = simulate(ins.db, t)
            if ref is not None:
                sim = sim.tensor(ref)
            rows.append((ins.label, t, ensemble_distance(sim, views[ins.label][t])))
    return rows


def _reference_honest_view(inst):
    cache = {}

    def view(db, t):
        if db not in cache:
            tr = execute(inst.spec, inst.basis_input(db, 1))
            cache[db] = tr
        return cache[db].server_view(t)
    return view


def _reference_speciousness(inst, adv):
    inputs = standard_inputs(inst, superposed_db=inst.database_register is not None)
    adv_spec = adv.modified_spec(inst.spec)
    rows = []
    for ins in inputs:
        honest = execute(inst.spec, ins.state)
        dishonest = execute(adv_spec, ins.state)
        for t, recovery in enumerate(adv.recoveries, start=1):
            recovered = apply_recovery(dishonest, t, recovery)
            rows.append((ins.label, t, ensemble_distance(recovered, honest.ensemble(t))))
    return rows


def _assert_rows_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:-1] == w[:-1]
        assert abs(g[-1] - w[-1]) <= TOL, (g, w)


# ---------------------------------------------------------------------------
# views and privacy rows
# ---------------------------------------------------------------------------

PRIVACY_CASES = [
    ("k1", None), ("k2", None), ("k4", None), ("k2-classical", None), ("k4-classical", None),
    ("cx2", None), ("cx2", "honest-purified"),
    ("k2", "purify-db"), ("k2", "gamma:0.3"), ("k2", "gamma-lossy:0.3"),
]


@pytest.mark.parametrize("inst_name,adv_name", PRIVACY_CASES)
def test_steered_views_and_rows_match_the_per_input_loop(inst_name, adv_name):
    inst = _instance(inst_name)
    adv = _adversary(inst, adv_name)
    spec = inst.spec if adv is None else adv.modified_spec(inst.spec)
    steps = _even_steps(inst.spec)
    full = inst.database_register is not None
    inputs = standard_inputs(inst, superposed_db=full)
    want_views = _reference_views(spec, inputs, steps)

    for members in database_groups(inputs):
        run = run_views(spec, members[0].database, steps)
        for ins in members:
            for t in steps:
                got = steer(run[t], ins.client, ins.reference)
                assert ensemble_distance(got, want_views[ins.label][t]) <= TOL, (ins.label, t)

    for mode in ("anchored", "full") if full else ("anchored",):
        report = privacy_lower_bound(inst, adv, mode)
        mode_inputs = [ins for ins in inputs if mode == "full" or ins.x_label != "x=+"]
        want = _reference_rows(inst, spec, mode_inputs, want_views)
        _assert_rows_match([(r.step, r.x_label, r.pair, r.distance) for r in report.rows], want)
        assert abs(report.eps_lower - max((w[-1] for w in want), default=0.0) / 2) <= TOL


def test_inputs_without_an_index_register_are_not_steered():
    inst = build_kerenidis(1)
    for members in database_groups(standard_inputs(inst, superposed_db=True)):
        assert [ins.label.split(",")[-1] for ins in members] == ["i=1"]
        ins = members[0]
        steps = _even_steps(inst.spec)
        run = run_views(inst.spec, ins.database, steps)
        tr = execute(inst.spec, ins.state)
        for t in steps:
            view = steer(run[t], ins.client, ins.reference)
            np.testing.assert_array_equal(view.dense(), tr.server_view(t).dense())


# ---------------------------------------------------------------------------
# certificates and speciousness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("inst_name", ["k1", "k2", "k4", "k2-classical", "cx2", "send-index-2"])
def test_honest_certificate_matches_the_per_input_loop(inst_name):
    inst = _instance(inst_name)
    sim = HonestSimulator(inst)
    eps, rows = sim.epsilon_upper()
    want = _reference_certificate(inst, inst.spec, _reference_honest_view(inst))
    _assert_rows_match(rows, want)
    assert abs(eps - max(d for *_, d in want)) <= TOL


@pytest.mark.parametrize("adv_name", ["honest-purified", "purify-db", "gamma:0.3",
                                      "gamma-lossy:0.3"])
def test_theorem_certificate_matches_the_per_input_loop(adv_name):
    inst = build_kerenidis(2)
    adv = _adversary(inst, adv_name)
    sim = TheoremSimulator(inst, adv)
    eps, rows = sim.certify()
    want = _reference_theorem_certificate(inst, adv)
    _assert_rows_match(rows, want)
    assert abs(eps - max(d for *_, d in want)) <= TOL


def _reference_theorem_certificate(inst, adv):
    # per database, the simulated view of the honest run on (db, i=1)
    ref_sim = TheoremSimulator(inst, adv)
    ref_sim.certify()
    honest_view = _reference_honest_view(inst)
    return _reference_certificate(inst, adv.modified_spec(inst.spec),
                                  lambda db, t: ref_sim.simulated_view(t, honest_view(db, t)))


def test_a_recovery_that_relabels_db_runs_each_database_alone(monkeypatch):
    # gamma-lossy:0.3 with H(db) twice at the head of each recovery: the
    # identity, but it relabels db, so the theorem simulator's plan gives
    # each database its own run
    inst = build_kerenidis(2)
    lossy = adversary_by_name(inst, "gamma-lossy:0.3")
    db = inst.database_register
    adv = replace(lossy, recoveries=tuple(
        Recovery((HadamardOp(db), HadamardOp(db), *r.ops), r.discard) for r in lossy.recoveries))
    ops = [op for r in adv.recoveries for op in r.ops]
    groups = database_groups(standard_inputs(inst))
    runs = database_runs(inst, groups, (adv.modified_spec(inst.spec), inst.spec), ops)
    assert [blocks for _, blocks in runs] == [[(g, None)] for g in range(4)]
    sim = TheoremSimulator(inst, adv)
    calls = _count_calls(monkeypatch, adversaries)
    eps, rows = sim.certify()
    # an honest and an adversarial run per database
    assert calls.count(inst.spec.name) == 4 and len(calls) == 8
    want = _reference_theorem_certificate(inst, adv)
    _assert_rows_match(rows, want)
    assert abs(eps - max(d for *_, d in want)) <= TOL
    _assert_rows_match(rows, TheoremSimulator(inst, lossy).certify()[1])


@pytest.mark.parametrize("inst_name,adv_name", [
    ("cx2", "honest-purified"), ("k2", "honest-purified"), ("k2", "purify-db"),
    ("k2", "gamma:0.3"), ("k2", "gamma-lossy:0.3"), ("k1", "gamma-lossy:0.3"),
])
def test_speciousness_matches_the_per_input_loop(inst_name, adv_name):
    inst = _instance(inst_name)
    adv = _adversary(inst, adv_name)
    report = measure_speciousness(inst, adv)
    want = _reference_speciousness(inst, adv)
    _assert_rows_match(report.rows, want)
    assert abs(report.gamma_hat - max(d for *_, d in want)) <= TOL


# ---------------------------------------------------------------------------
# one run per database state
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module):
    calls = []
    inner = module.execute

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, "execute", counted)
    return calls


def test_privacy_lower_bound_runs_every_classical_database_in_one_execute(monkeypatch):
    calls = _count_calls(monkeypatch, adversaries)
    report = privacy_lower_bound(build_kerenidis(4))
    # the 16 databases are the db blocks of one run
    assert len(calls) == 1
    assert len(report.rows) == 528


def test_honest_certificate_runs_every_classical_database_in_one_execute(monkeypatch):
    # the simulated view (index 1) and the actual views share the one run
    calls = _count_calls(monkeypatch, adversaries)
    HonestSimulator(build_kerenidis(4)).epsilon_upper()
    assert len(calls) == 1


def test_speciousness_runs_the_classical_databases_once_per_side(monkeypatch):
    inst = build_counterexample(2)
    calls = _count_calls(monkeypatch, adversaries)
    measure_speciousness(inst, purified_honest(inst))
    # one honest and one adversarial run for the four classical databases,
    # and the same for the superposed one
    assert len(calls) == 4
    assert len(set(calls)) == 2


# ---------------------------------------------------------------------------
# the shared run against one run per database
# ---------------------------------------------------------------------------

SHARED_CASES = [("k2", None), ("k4", None), ("cx2", None), ("cx2", "honest-purified"),
                ("k2", "gamma-lossy:0.3")]


@pytest.mark.parametrize("inst_name,adv_name", SHARED_CASES)
def test_database_blocks_are_the_per_database_runs(inst_name, adv_name):
    inst = _instance(inst_name)
    adv = _adversary(inst, adv_name)
    spec = inst.spec if adv is None else adv.modified_spec(inst.spec)
    db, steps = inst.database_register, _even_steps(inst.spec)
    groups = database_groups(standard_inputs(inst, superposed_db=True))
    # every classical database shares the run, the superposed one does not
    assert shared_groups(inst, groups, (spec,), ()) == list(range(1 << inst.n))
    shared = execute(spec, database_runs(inst, groups, (spec,), ())[0][0])
    for x in range(1 << inst.n):
        views = run_views(spec, inst.database_state(x), steps)
        own = execute(spec, purified_input(spec, inst.database_state(x)))
        for t in range(1, shared.steps + 1):
            pairs = [(database_block(shared.ensemble(t), db, x), own.ensemble(t))]
            if t in steps:
                pairs.append((database_block(shared.server_view(t), db, x), views[t]))
            if adv is not None:
                recovery = adv.recoveries[t - 1]
                pairs.append((database_block(apply_recovery(shared, t, recovery), db, x),
                              apply_recovery(own, t, recovery)))
            for got, want in pairs:
                assert got.layout == want.layout
                assert got.dense().shape == want.dense().shape, (x, t)
                assert np.array_equal(got.dense(), want.dense()), (x, t)


def _shared_figures(inst, adv):
    """Every figure row of ``inst``: the lower bound in both modes, honest
    and against ``adv``, both certificates and the meter."""
    honest = HonestSimulator(inst)
    out = {}
    for a in (None, adv):
        for mode in ("anchored", "full"):
            out[f"lower bound {mode} {a and a.name}"] = [
                (r.step, r.x_label, r.pair, r.distance)
                for r in privacy_lower_bound(inst, a, mode).rows]
    out["honest certificate"] = honest.epsilon_upper()[1]
    if is_measurement_free(inst.spec):
        out["theorem certificate"] = TheoremSimulator(inst, adv).certify()[1]
    out["meter"] = list(measure_speciousness(inst, adv).rows)
    return out


@pytest.mark.parametrize("inst_name,adv_name", SHARED_CASES)
def test_shared_figures_equal_the_per_database_runs(monkeypatch, inst_name, adv_name):
    inst = _instance(inst_name)
    adv = _adversary(inst, adv_name or "honest-purified")
    calls = _count_calls(monkeypatch, adversaries)
    got = _shared_figures(inst, adv)
    shared = len(calls)
    calls.clear()
    # the reference: every database group runs on its own
    monkeypatch.setattr(adversaries, "shared_groups", lambda *args: [])
    want = _shared_figures(inst, adv)
    assert len(calls) > shared
    assert got.keys() == want.keys()
    for name in got:
        assert len(got[name]) == len(want[name]) > 0, name
        assert got[name] == want[name], name


def test_purify_db_and_the_superposed_database_run_on_their_own(monkeypatch):
    k2 = build_kerenidis(2)
    attack = purification_attack(k2)
    # the attack swaps db aside and puts it in superposition
    groups = database_groups(standard_inputs(k2, superposed_db=True))
    assert shared_groups(k2, groups, (attack.modified_spec(k2.spec),), ()) == []
    assert shared_groups(k2, groups, (k2.spec,), attack.recoveries[0].ops) == []
    assert shared_groups(k2, groups, (k2.spec,), ()) == [0, 1, 2, 3]
    calls = _count_calls(monkeypatch, adversaries)
    privacy_lower_bound(k2, attack, "full")
    assert len(calls) == 5  # four classical databases and x=+, one run each
    calls.clear()
    privacy_lower_bound(k2, None, "full")
    assert len(calls) == 2  # the classical databases together, and x=+
    calls.clear()
    measure_speciousness(k2, attack)
    assert len(calls) == 10  # five database states, honest and adversarial
    calls.clear()
    measure_speciousness(k2, adversary_by_name(k2, "gamma-lossy:0.3"))
    assert len(calls) == 4


def test_database_runs_plan_one_shared_run_then_each_other_group_alone():
    k2 = build_kerenidis(2)
    db = k2.database_register
    groups = database_groups(standard_inputs(k2, superposed_db=True))
    (shared, blocks), (plus, plus_blocks) = database_runs(k2, groups, (k2.spec,), ())
    assert blocks == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert plus_blocks == [(4, None)] and groups[4][0].x_label == "x=+"
    # each block of the shared input is the purified input of its database
    for _, x in blocks:
        want = purified_input(k2.spec, k2.database_state(x))
        got = database_block(shared, db, x)
        assert got.layout == want.layout
        assert np.array_equal(got.dense(), want.amplitudes[None])
    want = purified_input(k2.spec, groups[4][0].database)
    assert plus.layout == want.layout and np.array_equal(plus.amplitudes, want.amplitudes)
    # the purification attack relabels db: every group runs alone
    attack = purification_attack(k2)
    runs = database_runs(k2, groups, (k2.spec, attack.modified_spec(k2.spec)),
                         [op for recovery in attack.recoveries for op in recovery.ops])
    assert [blocks for _, blocks in runs] == [[(g, None)] for g in range(5)]
    # a built-in database is one group, run whole
    builtin = build_kerenidis(2, database=(1, 0))
    (run,) = database_runs(builtin, database_groups(standard_inputs(builtin)),
                           (builtin.spec,), ())
    assert run[1] == [(0, None)]
    assert database_block(shared, db, None) is shared


# ---------------------------------------------------------------------------
# the spans of a step's blocks from one move, against the named blocks
# ---------------------------------------------------------------------------


def _assert_block_spans_are_those_of_the_named_blocks(ensembles, db, labels):
    """``block_spans`` of ``ensembles`` equals, label by label, ``in_span``
    of their named blocks (``database_block``), bit for bit; returns it."""
    got = block_spans(ensembles, db, labels)
    assert len(got) == len(labels)
    for x, spans in zip(labels, got):
        want = in_span(*(database_block(e, db, x) for e in ensembles))
        assert len(spans) == len(want) == len(ensembles)
        for g, w in zip(spans, want):
            assert g.ndim == w.ndim == 3
            assert g.shape == w.shape, x
            assert np.array_equal(g, w), x
    return got


@pytest.mark.parametrize("inst_name", ["k1", "k2", "k4"])
def test_lower_bound_block_spans_are_those_of_the_named_blocks(inst_name):
    # full mode: the shared run's blocks and the superposed database's own
    # run, read whole (x = None); k1 has no index, so its runs carry no refi
    inst = _instance(inst_name)
    db, steps = inst.database_register, _even_steps(inst.spec)
    runs = database_runs(inst, database_groups(standard_inputs(inst, superposed_db=True)),
                         (inst.spec,), ())
    assert [x for _, blocks in runs for _, x in blocks] == [*range(1 << inst.n), None]
    for run_input, blocks in runs:
        tr = execute(inst.spec, run_input, keep=steps)
        for t in steps:
            view = tr.server_view(t)
            assert view.layout.has(PURIFIER) == (inst_name != "k1")
            _assert_block_spans_are_those_of_the_named_blocks((view,), db,
                                                              [x for _, x in blocks])


def test_meter_block_spans_are_those_of_the_named_blocks():
    cx = build_counterexample(2)
    adv = purified_honest(cx)
    spec, adv_spec = cx.spec, adv.modified_spec(cx.spec)
    ops = [op for recovery in adv.recoveries for op in recovery.ops]
    groups = database_groups(standard_inputs(cx, superposed_db=True))
    runs = database_runs(cx, groups, (spec, adv_spec), ops)
    assert [x for _, blocks in runs for _, x in blocks] == [0, 1, 2, 3, None]
    for run_input, blocks in runs:
        honest, dishonest = execute(spec, run_input), execute(adv_spec, run_input)
        for t, recovery in enumerate(adv.recoveries, start=1):
            pair = (honest.ensemble(t), apply_recovery(dishonest, t, recovery))
            _assert_block_spans_are_those_of_the_named_blocks(pair, cx.database_register,
                                                              [x for _, x in blocks])


def test_a_block_with_no_weight_has_empty_spans():
    # label 2 of db is zero in every branch, and branch 1 is lighter than the
    # prune level in label 1, so its rows are dropped there; the other
    # ensemble comes in another register order and is aligned by name
    rng = np.random.default_rng(1250)
    regs = (("db", 2), (PURIFIER, 1), ("a", 2))
    ensembles = []
    for layout, rows in ((RegisterLayout(regs), 3), (RegisterLayout(regs[::-1]), 2)):
        v = rng.normal(size=(rows, 4, 2, 4)) + 1j * rng.normal(size=(rows, 4, 2, 4))
        v[:, 2] = 0
        v[1, 1] = 1e-14
        ens = Ensemble(RegisterLayout(regs), v.reshape(rows, -1))
        ensembles.append(Ensemble(layout, ens.aligned_vectors(layout.names)))
    got = _assert_block_spans_are_those_of_the_named_blocks(ensembles, "db", [0, 1, 2, 3])
    assert [[len(s) for s in spans] for spans in got] == [[3, 2], [2, 1], [0, 0], [3, 2]]
    # an empty span: no branch and no span row, over the 2 refi labels
    assert all(s.shape == (0, 0, 2) and np.vdot(s, s).real == 0.0 for s in got[2])


@pytest.mark.parametrize("seed", range(3))
def test_steered_mixed_purifier_is_the_reference_marginal(seed):
    """The certificates pin each simulated span to index 1 beside the
    maximally mixed refi (``privacy._pinned``).  That is ``steer`` to the
    basis state 1, then (x) a maximally mixed refi, in span coordinates;
    steered to a client state it gives the simulated view beside the
    client's marginal on its references, here for complex client ensembles
    with two references besides the index."""
    rng = np.random.default_rng(1300 + seed)

    def random_ensemble(layout, rows):
        v = rng.normal(size=(rows, layout.dim)) + 1j * rng.normal(size=(rows, layout.dim))
        return Ensemble(layout, v / np.linalg.norm(v))

    # a run view over (a, b) and refi, its branch 2 with nothing at index 1
    # (refi = 0), so the pin leaves it at zero weight; scaled so that the
    # pinned view has unit trace
    v = rng.normal(size=(3, 8, 4)) + 1j * rng.normal(size=(3, 8, 4))
    v[2, :, 0] = 0
    v /= np.sqrt(4 * np.vdot(v[:, :, 0], v[:, :, 0]).real)
    run = Ensemble(RegisterLayout((("a", 2), ("b", 1), (PURIFIER, 2))), v.reshape(3, -1))
    index = PureState.basis(RegisterLayout((("idx", 2),)), {"idx": 0})
    sim = steer(run, index, ())
    assert len(sim.vectors) == 2
    mixed_refi = Ensemble(RegisterLayout(((PURIFIER, 2),)), np.eye(4, dtype=complex) / 2)
    reference = sim.tensor(mixed_refi)
    span, reference_span = in_span(run, reference)
    pinned = privacy._pinned(span, index)
    assert pinned.shape == reference_span.shape == (8, 8, 4)
    mixed, want_mixed = span_ensemble(pinned), span_ensemble(reference_span)
    assert mixed.layout == want_mixed.layout
    assert ensemble_distance(mixed, want_mixed) <= TOL
    for rows in (1, 2, 3):
        client = random_ensemble(RegisterLayout((("idx", 2), ("refx", 1), ("refy", 2))), rows)
        beside = sim.tensor(_reference_marginal(client, ("refx", "refy")))
        assert ensemble_distance(steer(reference, client, ("refx", "refy")), beside) <= TOL
        got = steer(mixed, client, ("refx", "refy"))
        want = steer(want_mixed, client, ("refx", "refy"))
        assert got.layout == want.layout
        assert ensemble_distance(got, want) <= TOL
        np.testing.assert_allclose(got.reduced(got.layout.names).matrix,
                                   want.reduced(want.layout.names).matrix, rtol=0, atol=TOL)
    # a client without references steers it back to ``sim``
    client = random_ensemble(RegisterLayout((("idx", 2),)), 2)
    assert ensemble_distance(steer(reference, client, ()), sim) <= TOL
    assert ensemble_distance(steer(mixed, client, ()), steer(span_ensemble(span), index, ())) <= TOL


@pytest.mark.parametrize("inst_name", ["k2", "cx2"])
def test_steering_reaches_any_client_state(inst_name, rng):
    """Complex amplitudes, a reference other than the purifier and two
    branches: the map holds for any client state, not only the standard
    set, at every step of the global state."""
    inst = _instance(inst_name)
    layout = RegisterLayout(((inst.index_register, inst.levels), ("refx", 1)))
    v = rng.normal(size=(2, layout.dim)) + 1j * rng.normal(size=(2, layout.dim))
    client = Ensemble(layout, v / np.linalg.norm(v))
    database = inst.database_state(2)
    steered = execute(inst.spec, purified_input(inst.spec, database))
    direct = execute(inst.spec, Ensemble.from_pure(database).tensor(client))
    for t in range(1, steered.steps + 1):
        got = steer(steered.ensemble(t), client, ("refx",))
        assert ensemble_distance(got, direct.ensemble(t)) <= TOL, t


# ---------------------------------------------------------------------------
# the stacked comparison loop against the per-pair loop
# ---------------------------------------------------------------------------


def _per_pair_steered_distances(groups):
    # each pair wrapped and steered on its own, then one Ensemble.distance
    # per pair
    return [(ins.label, t, ensemble_distance(steer(span_ensemble(b), ins.client, ins.reference),
                                             steer(span_ensemble(a), ins.client, ins.reference)))
            for members, pairs in groups for ins in members for t, (a, b) in pairs.items()]


def _per_view_steered(views, members):
    return [[steer(span_ensemble(view), ins.client, ins.reference) for view in views]
            for ins in members]


def _per_pair_distances(pairs):
    return [ensemble_distance(x, y) for x, y in pairs]


def _figures(inst, adv):
    honest = HonestSimulator(inst)
    modes = ("anchored", "full") if inst.database_register is not None else ("anchored",)
    figures = {"meter": lambda: list(measure_speciousness(inst, adv).rows)}
    for mode in modes:
        figures[f"lower bound {mode}"] = lambda mode=mode: [
            (r.step, r.x_label, r.pair, r.distance)
            for r in privacy_lower_bound(inst, adv, mode).rows]
    figures["honest certificate"] = lambda: honest.epsilon_upper()[1]
    figures["theorem certificate"] = lambda: TheoremSimulator(inst, adv).certify()[1]
    return figures


STACKED_CASES = [(name, adv) for name in ("k1", "k2")
                 for adv in ("honest-purified", "gamma-lossy:0.3", "purify-db")]
STACKED_CASES.append(("send-db-1", "honest-purified"))


@pytest.mark.parametrize("inst_name,adv_name", STACKED_CASES)
def test_stacked_figures_equal_the_per_pair_loop(monkeypatch, inst_name, adv_name):
    inst = _instance(inst_name)
    adv = _adversary(inst, adv_name)
    stacks = []
    inner = distances.ensemble_trace_distance

    def counted(a, b):
        stacks.append(len(a))
        return inner(a, b)
    monkeypatch.setattr(distances, "ensemble_trace_distance", counted)
    got = {}
    for name, figure in _figures(inst, adv).items():
        stacks.clear()
        got[name] = figure()
        assert sum(stacks) == len(got[name]), name  # every pair in one stack
        if inst_name == "k2" and name == "meter":
            assert len(stacks) > 1  # the meter's pairs come in several [b a] shapes
    monkeypatch.setattr(adversaries, "steered_distances", _per_pair_steered_distances)
    monkeypatch.setattr(privacy, "steered_distances", _per_pair_steered_distances)
    monkeypatch.setattr(privacy, "steered_rows", _per_view_steered)
    monkeypatch.setattr(privacy, "paired_distances", _per_pair_distances)
    want = {name: figure() for name, figure in _figures(inst, adv).items()}
    assert got.keys() == want.keys()
    for name in got:
        assert len(got[name]) == len(want[name]), name
        assert got[name] == want[name], name


def test_stacked_steering_prunes_as_steer_does():
    k2 = build_kerenidis(2)
    steps = _even_steps(k2.spec)
    members = database_groups(standard_inputs(k2))[0]
    run = run_views(k2.spec, members[0].database, steps)
    spans = [in_span(run[t])[0] for t in steps]
    pruned = 0
    for ins, rows in zip(members, steered_rows(spans, members)):
        for span, got in zip(spans, rows):
            # the wrapped span's zero padding gives zero columns after got's
            want = steer(span_ensemble(span), ins.client, ins.reference).dense()
            np.testing.assert_array_equal(got, want[:, :got.shape[1]])
            assert not want[:, got.shape[1]:].any()
            client = ins.client if isinstance(ins.client, Ensemble) else Ensemble.from_pure(
                ins.client)
            pruned += len(client.vectors) * len(span) - len(want)
    # a classical index leaves some run branches at zero weight
    assert pruned > 0
