"""Metamorphic checks of the big-endian index convention.

A figure must not depend on the order in which registers sit in the
layout, or on a global phase of the setup.  Both can be checked at sizes no
dense reference reaches (``tests/test_density_reference.py`` stops at 11
qubits; the k4 attack runs 19 and the n = 8 decode 20), with no reference:
each check runs the same figures on a transformed instance and holds them to
the plain run within ``privacy.FIGURE_TOL``.

* ``setup``: the setup state reordered to a seeded permutation of its
  registers (seed 3801), through ``dataclasses.replace`` of the spec and the
  instance;
* ``inputs``: every run's input state with its registers reversed, by
  wrapping the ``execute`` that the analyses call;
* ``phase``: the setup times ``exp(0.7i)``.

The figures are the k2 purification attack's rows (``purify-db``,
anchored), the k2 and k4 coherent reconstruction attacks, the k2
``gamma-lossy:0.3`` row of ``verify_theorem_bound`` and the kerenidis
n = 8 decode distribution.  The n = 4 purification attack needs 25 qubits,
past the cap, and is left out.
"""

import cmath
import math
from dataclasses import replace
from functools import cache

import numpy as np

from qpirlab import adversaries, bounds, privacy, protocols, runtime
from qpirlab.adversaries import adversary_by_name
from qpirlab.bounds import extraction_attack
from qpirlab.privacy import FIGURE_TOL, privacy_lower_bound, verify_theorem_bound
from qpirlab.protocols import build_kerenidis, decode_distribution
from qpirlab.runtime import Ensemble
from qpirlab.states import PureState, RegisterLayout

K8_DATABASE = (1, 0, 1, 1, 0, 0, 1, 0)


def _instances():
    return build_kerenidis(2), build_kerenidis(4), build_kerenidis(8, database=K8_DATABASE)


def _figures(k2, k4, k8) -> dict[str, float]:
    out = {}
    report = privacy_lower_bound(k2, adversary_by_name(k2, "purify-db"), "anchored")
    for r in report.rows:
        out[f"purify-db/t{r.step}/{r.x_label}/{r.pair[0]}|{r.pair[1]}"] = r.distance
    out["purify-db/eps_lower"] = report.eps_lower
    for name, inst in (("k2", k2), ("k4", k4)):
        tr = extraction_attack(inst, "coherent-reference", None)
        for field in ("delta", "epsilon", "epsilon_prime", "overall"):
            out[f"attack/{name}/{field}"] = getattr(tr, field)
        for b in tr.bits:
            for field in ("probability", "drift", "drift_bound"):
                out[f"attack/{name}/bit{b.index}/{field}"] = getattr(b, field)
    (row,) = verify_theorem_bound(k2, [adversary_by_name(k2, "gamma-lossy:0.3")])
    for field in ("gamma_hat", "eps_hat", "eps_honest", "bound"):
        out[f"theorem_bound/{field}"] = getattr(row, field)
    index = PureState(RegisterLayout(((k8.index_register, k8.levels),)),
                      [1 / math.sqrt(k8.n)] * k8.n)
    dist = decode_distribution(k8.run(input_state=index, keep_states=False),
                               output_register=k8.output_register,
                               index_register=k8.index_register)
    for (i, bit), p in np.ndenumerate(dist):
        out[f"decode/index{i}/bit{bit}"] = p
    return out


@cache
def _plain() -> dict[str, float]:
    return _figures(*_instances())


def _with_setup(inst, setup: PureState):
    return replace(inst, spec=replace(inst.spec, setup=setup))


def _reordered_setup(inst, rng):
    names = inst.spec.setup.layout.names
    perm = names
    while perm == names:  # a permutation that moves something
        perm = tuple(str(n) for n in rng.permutation(names))
    return _with_setup(inst, inst.spec.setup.reordered(perm))


def _phased_setup(inst):
    setup = inst.spec.setup
    return _with_setup(inst, PureState(setup.layout, setup.amplitudes * cmath.exp(0.7j)))


def _reversed_input(state):
    """``state`` with its registers in reverse order: a ``PureState`` or an
    ``Ensemble`` (or ``None``, no input)."""
    if state is None or len(state.layout.names) < 2:
        return state
    names = state.layout.names[::-1]
    if isinstance(state, PureState):
        return state.reordered(names)
    layout = RegisterLayout(tuple((n, state.layout.width(n)) for n in names))
    return Ensemble(layout, state.aligned_vectors(names))


def _check(got: dict[str, float], want: dict[str, float]):
    assert got.keys() == want.keys()
    labels = sorted(want)
    np.testing.assert_allclose([got[k] for k in labels], [want[k] for k in labels],
                               rtol=0, atol=FIGURE_TOL, err_msg=str(labels))


def test_figures_do_not_depend_on_the_setup_order():
    rng = np.random.default_rng(3801)
    instances = _instances()
    moved = [_reordered_setup(inst, rng) for inst in instances]
    for old, new in zip(instances, moved):
        assert new.spec.setup.layout.names != old.spec.setup.layout.names
        assert sorted(new.spec.setup.layout.registers) == sorted(old.spec.setup.layout.registers)
    _check(_figures(*moved), _plain())


def test_figures_do_not_depend_on_the_input_order(monkeypatch):
    execute, reversed_runs = runtime.execute, []

    def reversing(spec, input_state=None, **kw):
        state = _reversed_input(input_state)
        reversed_runs.append(state is not input_state)
        return execute(spec, state, **kw)

    for module in (adversaries, bounds, privacy, protocols):
        monkeypatch.setattr(module, "execute", reversing)
    got = _figures(*_instances())
    assert any(reversed_runs)
    _check(got, _plain())


def test_figures_do_not_depend_on_a_global_phase_of_the_setup():
    instances = _instances()
    phased = [_phased_setup(inst) for inst in instances]
    for old, new in zip(instances, phased):
        assert not np.array_equal(new.spec.setup.amplitudes, old.spec.setup.amplitudes)
    _check(_figures(*phased), _plain())

