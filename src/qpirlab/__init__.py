"""Exact simulation and analysis lab for two-party quantum PIR protocols."""

from .config import CapExceeded, qubit_cap, reduced_cap
from .states import DensityOperator, LayoutError, PureState, RegisterLayout, StateError
from .channels import (
    ChannelError,
    ChannelOp,
    DenseOp,
    HadamardOp,
    InnerProductCnotOp,
    MeasureOp,
    PrepareOp,
)
from .distances import (
    partial_trace,
    pure_trace_distance,
    trace_distance,
    trace_in_extraction,
    uhlmann_unitary,
)
from .runtime import (
    CommunicationBill,
    Ensemble,
    ExecutionTranscript,
    PartyProgram,
    PartyStep,
    ProtocolShapeError,
    ProtocolSpec,
    communication,
    execute,
    fold_setup_into_messages,
    spec_from_json,
    spec_to_json,
)
from .protocols import (
    QpirInstance,
    build_baseline,
    build_counterexample,
    build_kerenidis,
    decode_distribution,
    decode_output,
)
from .adversaries import (
    Adversary,
    Recovery,
    SpeciousnessReport,
    adversary_by_name,
    gamma_family,
    measure_speciousness,
    purification_attack,
    purified_honest,
    standard_inputs,
)
from .privacy import (
    PrivacyReport,
    is_measurement_free,
    privacy_lower_bound,
    verify_theorem_bound,
)
from .bounds import (
    chain_rule_check,
    epsilon_prime,
    extraction_attack,
    gentle_measure,
    nayak_bound,
    reconstruction_bound,
)

__version__ = "0.1.0"
