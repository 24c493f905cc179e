"""The per-database references the tests hold the shared path to.

``run_views`` runs a spec once per database on the purified index, and
``in_span`` takes whole ensembles into their branch span; the package
reads every view from the runs ``adversaries.database_runs`` plans and
every span from ``adversaries.block_spans``."""

from qpirlab.adversaries import block_spans, purified_input
from qpirlab.runtime import Ensemble, ProtocolSpec, execute


def run_views(spec: ProtocolSpec, database, steps) -> dict[int, Ensemble]:
    """The server's view at each of ``steps`` in one run of ``spec`` over
    ``database`` on the purified index: the per-database reference that
    every view ``privacy._each_view`` gives equals."""
    tr = execute(spec, purified_input(spec, database), keep=steps)
    return {t: tr.server_view(t) for t in steps}


def in_span(ens: Ensemble, *others: Ensemble) -> tuple[Ensemble, ...]:
    """``ens`` and ``others`` whole in the coordinates of their branch span
    (``block_spans``); a run without ``refi`` as it is."""
    return block_spans((ens, *others), None, (None,))[0]
