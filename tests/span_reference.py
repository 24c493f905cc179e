"""The slow references the tests hold the fast paths to.

``run_views`` runs a spec once per database on the purified index,
``in_span`` takes whole ensembles into their branch span,
``recover_in_order`` applies a recovery's ops before any discard and
``dense_execute`` runs a spec on dense branch arrays; the package reads
every view from the runs ``adversaries.database_runs`` plans, every span
from ``adversaries.block_spans``, traces the discards no op touches first
(``adversaries.apply_recovery``) and runs a spec on its support
(``runtime.execute``)."""

import numpy as np

from qpirlab.adversaries import Recovery, block_spans, purified_input
from qpirlab.runtime import Ensemble, ExecutionTranscript, ProtocolSpec, execute
from qpirlab.states import PureState, RegisterLayout


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


def dense_execute(spec: ProtocolSpec, input_state, keep) -> ExecutionTranscript:
    """``execute`` with every op applied to the whole ``(B, dim)`` branch
    array through ``Ensemble.apply`` (no input checks and no error context):
    the dense run that ``execute``'s support run must equal at every kept
    step."""
    declared = dict((*spec.server.input_registers, *spec.client.input_registers))
    if input_state is None:
        ens = Ensemble(RegisterLayout(()), np.ones((1, 1), dtype=np.complex128))
    elif isinstance(input_state, PureState):
        ens = Ensemble.from_pure(input_state)
    else:
        ens = Ensemble(input_state.layout, input_state.dense().copy())
    refs = tuple(n for n in ens.layout.names if n not in declared)
    if spec.setup is not None:
        ens = ens.tensor(Ensemble.from_pure(spec.setup))
    kept = []
    for st in spec.schedule:
        for op in st.step.ops:
            ens = ens.apply(op)
        kept.append(ens if keep is None or st.t in keep or st is spec.schedule[-1] else None)
    return ExecutionTranscript(spec, kept, refs)
