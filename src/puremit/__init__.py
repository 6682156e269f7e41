"""Density-matrix simulation of purification-based quantum error mitigation.

The package models noisy state preparation as Kraus channels, implements
the multi-copy, state-verification, and combined purification schemes at
both the operator level and the explicit controlled-circuit level, and
samples them under finite shot budgets with full resource accounting.
"""

from .channels import (
    NO_NOISE,
    KrausChannel,
    NoiseModel,
    adjoint_channel,
    amplitude_damping_channel,
    apply_channel,
    compose_channels,
    compress_channel,
    dephasing_channel,
    depolarizing_channel,
    dual_state,
    identity_channel,
    noisy_circuit_channel,
    prepare_noisy_state,
    unitary_channel,
)
from .circuits import (
    CircuitFormatError,
    Gate,
    GateCircuit,
    circuit_unitary,
    embed_operator,
    format_circuit,
    inverse_circuit,
    load_circuit,
    parse_circuit,
    random_circuit,
)
from .config import ConfigError, ExperimentConfig, format_config, load_config, parse_config
from .linalg import (
    MAX_DIM,
    DensityOperator,
    DimensionCapError,
    hermitian_eig,
    partial_trace,
    pure_fidelity,
    random_density,
    random_hermitian,
    random_unitary,
)
from .measurement import (
    antisymmetric_product_measure,
    hadamard_test,
    involution_projectors,
    product_expectation,
    symmetric_product_measure,
    symmetrized_verified_estimate,
)
from .observables import (
    ObservableFormatError,
    PauliObservable,
    format_observable,
    parse_observable,
    pauli_string_matrix,
)
from .purification import (
    DegenerateSpectrumError,
    NoisyDecomposition,
    coherent_mismatch,
    decompose_noisy_state,
    purified_expectation,
    purified_infidelity_bound,
    purified_state,
)
from .reports import EstimateReport
from .resources import SCHEME_KINDS, ResourceProfile, resource_profile
from .sampling import (
    SampleStats,
    ShotConfig,
    UnstableDenominatorError,
    ratio_estimator,
    sample_expectation,
    scheme_shot_experiment,
)
from .schemes import (
    SchemePipeline,
    VanishingDenominatorError,
    build_pipeline,
    circuit_level_combined,
    combined_estimate,
    controlled_register_swap,
    cyclic_permutation,
    fredkin_matrix,
    multicopy_estimate,
    register_swap,
    state_verification_estimate,
)

__version__ = "0.1.0"
