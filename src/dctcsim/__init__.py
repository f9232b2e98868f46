"""Density-matrix simulation of Deutschian closed-timelike-curve circuits.

The library solves the self-consistency condition for a CTC register coupled
to ordinary qubits through a unitary, builds the CTC-assisted circuit that
discriminates four non-orthogonal states, and runs the resulting
Bell-discrimination and Smolin-state experiments with entanglement
diagnostics.
"""

from .circuits import (
    AmplitudePair,
    bell_projectors,
    bhw_interaction,
    bhw_layout,
    block_unitary,
    candidate_states,
    register_swap,
)
from .deutsch import (
    FixedPointResult,
    SolverConfig,
    apply_dctc,
    ctc_map,
    fixed_point_space_dim,
    solve_fixed_point,
    superoperator_matrix,
)
from .entanglement import (
    BipartiteCut,
    distillable_upper_bound,
    is_ppt,
    log_negativity,
    partial_transpose,
    smolin_cuts,
    smolin_layout,
    smolin_state,
)
from .errors import (
    DctcSimError,
    DegenerateAmplitudesError,
    FixedPointConvergenceError,
    InvariantViolationError,
)
from .protocols import (
    BellLabel,
    BranchOutcome,
    DiscriminationRecord,
    DistillationReport,
    ImproperMixtureRecord,
    alice_outcome_distribution,
    discriminate_bell,
    distill_smolin,
    pauli_residual,
    run_improper_mixture,
    teleport_and_correct,
)
from .qmath import (
    DensityOperator,
    RegisterLayout,
    UnitaryOperator,
    constants,
    hermitian_eigenvalues,
    ket,
    kron,
    partial_trace,
    pure_fidelity,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudePair",
    "BellLabel",
    "BipartiteCut",
    "BranchOutcome",
    "DctcSimError",
    "DegenerateAmplitudesError",
    "DensityOperator",
    "DiscriminationRecord",
    "DistillationReport",
    "FixedPointConvergenceError",
    "FixedPointResult",
    "ImproperMixtureRecord",
    "InvariantViolationError",
    "RegisterLayout",
    "SolverConfig",
    "UnitaryOperator",
    "alice_outcome_distribution",
    "apply_dctc",
    "bell_projectors",
    "bhw_interaction",
    "bhw_layout",
    "block_unitary",
    "candidate_states",
    "constants",
    "ctc_map",
    "discriminate_bell",
    "distill_smolin",
    "distillable_upper_bound",
    "fixed_point_space_dim",
    "hermitian_eigenvalues",
    "is_ppt",
    "ket",
    "kron",
    "log_negativity",
    "partial_trace",
    "partial_transpose",
    "pauli_residual",
    "pure_fidelity",
    "register_swap",
    "run_improper_mixture",
    "smolin_cuts",
    "smolin_layout",
    "smolin_state",
    "solve_fixed_point",
    "superoperator_matrix",
    "teleport_and_correct",
    "trace_norm",
]
