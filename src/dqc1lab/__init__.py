"""Numerical toolkit for the one-clean-qubit circuit family.

Builds the circuit output states, estimates normalized unitary traces
exactly and by shot sampling, computes entanglement and discord-type
correlation measures, certifies full separability of the three-qubit
output, and runs the correlation-activation protocol.
"""

from .activation import ActivationResult, AdversaryStrategy, activate, activation_sweep
from .correlations import (
    DiscordResult,
    MeasurementBasis,
    classical_correlation,
    discord,
    multiplicative_negativity,
    mutual_information,
    negativity,
)
from .dqc1 import (
    Dqc1State,
    RHO3_ENTANGLING_CUT,
    TraceEstimate,
    UnitaryBlockSpec,
    build_un,
    canonical_blocks,
    expectation_xy,
    rho3,
    sample_trace_estimate,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    kron,
    kron_all,
    maximally_mixed,
    partial_trace,
    partial_transpose,
    partial_transpose_matrix,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .reproduce import Check, run_reproduce
from .separability import (
    GHZ_PAULI_STRINGS,
    NonGhzDiagonalError,
    SeparabilityVerdict,
    Verdict,
    eta_state,
    full_separability_verdict,
    ghz_diagonal_coefficients,
    ghz_reconstruct,
    kay_criterion,
    omega_state,
    pauli_string_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationResult", "AdversaryStrategy", "Check", "DensityMatrix",
    "DiscordResult", "Dqc1State", "GHZ_PAULI_STRINGS", "MeasurementBasis",
    "NonGhzDiagonalError", "RHO3_ENTANGLING_CUT", "SeparabilityVerdict",
    "TraceEstimate", "UnitaryBlockSpec", "Verdict",
    "activate", "activation_sweep", "build_un", "canonical_blocks",
    "classical_correlation", "discord", "eta_state",
    "expectation_xy", "full_separability_verdict", "ghz_diagonal_coefficients",
    "ghz_reconstruct", "hermitian_eigensystem", "hermitian_eigenvalues",
    "kay_criterion", "kron", "kron_all", "maximally_mixed",
    "multiplicative_negativity", "mutual_information", "negativity",
    "omega_state", "partial_trace", "partial_transpose",
    "partial_transpose_matrix", "pauli_string_matrix",
    "relative_entropy", "rho3", "run_reproduce",
    "sample_trace_estimate", "trace_norm", "von_neumann_entropy",
]
