"""The per-database references the tests hold the shared path to.

``run_views`` runs a spec once per database on the purified index,
``in_span`` takes whole ensembles into their branch span and
``recover_in_order`` applies a recovery's ops before any discard; the
package reads every view from the runs ``adversaries.database_runs`` plans,
every span from ``adversaries.block_spans`` and traces the discards no op
touches first (``adversaries.apply_recovery``)."""

from qpirlab.adversaries import Recovery, block_spans, purified_input
from qpirlab.runtime import Ensemble, ExecutionTranscript, ProtocolSpec, execute


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


def recover_in_order(transcript: ExecutionTranscript, t: int, recovery: Recovery) -> Ensemble:
    """The step-``t`` state with every op of ``recovery`` applied, then every
    discard traced out in one call: the order ``apply_recovery`` equals up
    to the order of its rows (no domain checks)."""
    ens = transcript.ensemble(t)
    for op in recovery.ops:
        ens = ens.apply(op)
    return ens.traced(recovery.discard) if recovery.discard else ens
