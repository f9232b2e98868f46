"""Deutsch fixed-point solver for closed-timelike-curve interactions.

A CTC register interacting with a chronology-respecting (CR) register through
a unitary U must come out of the loop in the same state it entered: the CTC
state sigma is a fixed point of the channel

    Phi(sigma) = Tr_CR( U (rho_CR (x) sigma) U^dag ).

Phi is linear and completely positive trace preserving in sigma for a fixed
CR input, so a fixed point always exists; it need not be unique.  Each solve
builds the vectorized channel S, a d^2 x d^2 matrix, once, with one einsum

    S[tu, sv] = sum_{a,b,c} U[a,t,b,s] rho_CR[b,c] conj(U[a,u,c,v]),

and applies the eigenvalue-1 spectral projector of S to the maximally mixed
state.  That is the limit of the Cesaro average (1/N) sum_n Phi^n(I/d), so a
degenerate fixed-point space still gives one deterministic answer.  The
number of eigenvalue-1 eigenvectors is reported as ``fp_space_dim`` so
degeneracy is visible, and the answer must pass a trace-norm residual check.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import DEGENERACY_ATOL
from .errors import FixedPointConvergenceError, InvariantViolationError
from .qmath import (
    DensityOperator,
    RegisterLayout,
    UnitaryOperator,
    _partial_trace_matrix,
    kron,
    trace_norm,
)

# |lambda - 1| window that counts an eigenvalue of S as 1.  The discrimination
# channel's second eigenvalue sits (alpha^2 - beta^2)^2 ~ 2 (alpha - beta)^2
# below 1, so it falls inside the window exactly when the amplitude pair is
# degenerate; eig puts the unit eigenvalue of a CPTP map within ~4e-15 of 1.
UNIT_EIGENVALUE_ATOL = 2 * DEGENERACY_ATOL ** 2


@dataclass(frozen=True)
class SolverConfig:
    """Acceptance tolerance for the fixed point."""

    tolerance: float = 1e-12          # trace-norm residual ||Phi(s) - s||_1

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvariantViolationError("tolerance must be positive")


@dataclass(frozen=True)
class FixedPointResult:
    """Self-consistent CTC state plus solver diagnostics."""

    fixed_point: DensityOperator
    residual: float
    fp_space_dim: int
    unique: bool

    def __post_init__(self):
        if self.residual < 0:
            raise InvariantViolationError("residual must be non-negative")
        if self.unique != (self.fp_space_dim == 1):
            raise InvariantViolationError("unique flag must mirror fp_space_dim == 1")


def _interaction_dims(U: UnitaryOperator, rho_cr: DensityOperator,
                      layout: RegisterLayout) -> tuple:
    cr, ctc = layout.cr_labels, layout.ctc_labels
    if not ctc:
        raise InvariantViolationError("layout has no CTC qubits")
    if layout.labels != cr + ctc:
        raise InvariantViolationError(
            "CR labels must precede CTC labels in layout order; got "
            f"{layout.labels} with CTC {sorted(layout.ctc)}")
    d_cr, d_ctc = 2 ** len(cr), 2 ** len(ctc)
    if rho_cr.dim != d_cr:
        raise InvariantViolationError(
            f"CR state has dimension {rho_cr.dim}, layout expects {d_cr}")
    if U.dim != d_cr * d_ctc:
        raise InvariantViolationError(
            f"interaction has dimension {U.dim}, layout expects {d_cr * d_ctc}")
    return d_cr, d_ctc


def _joint_output(U: UnitaryOperator, rho_cr: DensityOperator, sigma: DensityOperator,
                  layout: RegisterLayout, keep: tuple) -> DensityOperator:
    """The ``keep`` part of U (rho_CR (x) sigma) U^dag."""
    big = U.matrix @ kron(rho_cr.matrix, sigma.matrix) @ U.matrix.conj().T
    return DensityOperator(_partial_trace_matrix(big, layout.n_qubits, layout.positions(keep)))


def ctc_map(U: UnitaryOperator, rho_cr: DensityOperator, sigma: DensityOperator,
            layout: RegisterLayout) -> DensityOperator:
    """Evaluate Phi(sigma) = Tr_CR(U (rho_CR (x) sigma) U^dag)."""
    _, d_ctc = _interaction_dims(U, rho_cr, layout)
    if sigma.dim != d_ctc:
        raise InvariantViolationError(
            f"CTC state has dimension {sigma.dim}, layout expects {d_ctc}")
    return _joint_output(U, rho_cr, sigma, layout, layout.ctc_labels)


def superoperator_matrix(U: UnitaryOperator, rho_cr: DensityOperator,
                         layout: RegisterLayout) -> np.ndarray:
    """Matrix of sigma -> Phi(sigma) acting on row-major vectorized sigma."""
    d_cr, d_ctc = _interaction_dims(U, rho_cr, layout)
    u = U.matrix.reshape(d_cr, d_ctc, d_cr, d_ctc)
    S = np.einsum("atbs,bc,aucv->tusv", u, rho_cr.matrix, u.conj(), optimize=True)
    return S.reshape(d_ctc * d_ctc, d_ctc * d_ctc)


def _unit_eigenvectors(M: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eig(M)
    return vectors[:, np.abs(values - 1.0) <= UNIT_EIGENVALUE_ATOL]


def fixed_point_space_dim(U: UnitaryOperator, rho_cr: DensityOperator,
                          layout: RegisterLayout) -> int:
    """Multiplicity of eigenvalue 1 of the vectorized channel."""
    return _unit_eigenvectors(superoperator_matrix(U, rho_cr, layout)).shape[1]


def solve_fixed_point(U: UnitaryOperator, rho_cr: DensityOperator,
                      layout: RegisterLayout,
                      config: SolverConfig | None = None) -> FixedPointResult:
    """Find sigma with ||Phi(sigma) - sigma||_1 below tolerance.

    With R and L the right and left eigenvalue-1 eigenvectors of S, sigma is
    R (L^H R)^-1 L^H vec(I/d), the eigenvalue-1 component of I/d and the limit
    of the Cesaro average of Phi^n(I/d), made Hermitian and divided by its
    trace.  Rounding of S moves sigma by about 1e-16 / gap, which near
    alpha = beta leaves small negative eigenvalues on a pure fixed point;
    they are set to zero before the residual check, so the check judges the
    state that is returned.  Raises ``FixedPointConvergenceError`` when S has
    no eigenvalue 1 or unequal left and right multiplicities, when the linear
    algebra fails, or when sigma fails the residual check.
    """
    config = config or SolverConfig()
    S = superoperator_matrix(U, rho_cr, layout)
    d = 2 ** len(layout.ctc_labels)
    residual = np.inf
    try:
        right = _unit_eigenvectors(S)
        left = _unit_eigenvectors(S.conj().T)
        if right.shape[1] == 0 or right.shape[1] != left.shape[1]:
            raise np.linalg.LinAlgError(f"eigenvalue-1 multiplicities {right.shape[1]} "
                                        f"(right) and {left.shape[1]} (left)")
        mixed = (np.eye(d, dtype=complex) / d).reshape(-1)
        vec = right @ np.linalg.solve(left.conj().T @ right, left.conj().T @ mixed)
        weights, basis = np.linalg.eigh(vec.reshape(d, d) + vec.reshape(d, d).conj().T)
        sigma = (basis * np.clip(weights, 0.0, None)) @ basis.conj().T
        sigma = sigma / sigma.trace().real
        residual = trace_norm((S @ sigma.reshape(-1)).reshape(d, d) - sigma)
        fixed_point = DensityOperator(sigma)
    except (np.linalg.LinAlgError, InvariantViolationError) as exc:
        raise FixedPointConvergenceError(residual, config.tolerance, str(exc)) from exc
    if not residual < config.tolerance:
        raise FixedPointConvergenceError(residual, config.tolerance)
    return FixedPointResult(fixed_point, residual, right.shape[1], right.shape[1] == 1)


def apply_dctc(U: UnitaryOperator, rho_cr: DensityOperator, layout: RegisterLayout,
               config: SolverConfig | None = None) -> tuple:
    """Run the full CTC interaction: solve for the self-consistent CTC state
    sigma*, then return the CR output Tr_CTC(U (rho_CR (x) sigma*) U^dag)
    together with the solver diagnostics."""
    result = solve_fixed_point(U, rho_cr, layout, config)
    return _joint_output(U, rho_cr, result.fixed_point, layout, layout.cr_labels), result
