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
    SolverConfig,
    ctc_map,
    solve_fixed_point,
)
from .entanglement import (
    BipartiteCut,
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
    discriminate_bell,
    distill_smolin,
    pauli_residual,
)
from .qmath import (
    DensityOperator,
    RegisterLayout,
    UnitaryOperator,
    kron,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudePair",
    "BellLabel",
    "BipartiteCut",
    "DctcSimError",
    "DegenerateAmplitudesError",
    "DensityOperator",
    "FixedPointConvergenceError",
    "InvariantViolationError",
    "RegisterLayout",
    "SolverConfig",
    "UnitaryOperator",
    "bell_projectors",
    "bhw_interaction",
    "bhw_layout",
    "block_unitary",
    "candidate_states",
    "ctc_map",
    "discriminate_bell",
    "distill_smolin",
    "is_ppt",
    "kron",
    "log_negativity",
    "partial_transpose",
    "pauli_residual",
    "register_swap",
    "smolin_cuts",
    "smolin_layout",
    "smolin_state",
    "solve_fixed_point",
    "trace_norm",
]
