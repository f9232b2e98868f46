"""Deutsch fixed-point solvers for closed-timelike-curve interactions.

A CTC register interacting with a chronology-respecting (CR) register through
a unitary U must come out of the loop in the same state it entered: the CTC
state sigma is a fixed point of the channel

    Phi(sigma) = Tr_CR( U (rho_CR (x) sigma) U^dag ).

Phi is linear and completely positive trace preserving in sigma for a fixed
CR input, so a fixed point always exists; it need not be unique.  Both
solvers return the limit of the Cesaro average (1/N) sum_n Phi^n(I/d), so a
degenerate fixed-point space still gives one deterministic answer, report
the dimension of that space as ``fp_space_dim`` so degeneracy is visible,
and accept the answer only if it passes a trace-norm residual check.

The *spectral* solve (:func:`solve_fixed_point`, :func:`apply_dctc`) takes a
general U.  It builds the vectorized channel S, a d^2 x d^2 matrix,

    S[tu, sv] = sum_{a,b,c} U[a,t,b,s] rho_CR[b,c] conj(U[a,u,c,v]),

and applies its eigenvalue-1 spectral projector to the maximally mixed state.

The *chain* solve (:func:`apply_label_chain`) takes a CTC that only serves
as a classical label: U swaps the registers and then applies block U_c to
the CTC register when the CR register reads c.  Phi then reads only the
diagonal of sigma, Phi(sigma) = sum_c sigma_cc tau_c with
tau_c = U_c rho_CR U_c^dag, so the fixed points are sigma = sum_c p_c tau_c
for the stationary distributions p of the label chain
M[c', c] = <c'|tau_c|c'>.  Each label c must stay or escape to one other
label, with probability e_c.  The discrimination circuit meets this for any
CR input, since each block's ancilla-|0> columns are two columns of a
permutation layer.  Following the escapes, every label reaches one cycle,
and on a cycle the flow p_c e_c into the next label is the same for every c,
so p_c is proportional to 1/e_c.  Nothing is subtracted, so p stays accurate
however small the chain's gap is.
"""

import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuits import UNIT_EIGENVALUE_ATOL
from .errors import FixedPointConvergenceError, InvariantViolationError
from .qmath import (
    DensityOperator,
    RegisterLayout,
    TRACE_ATOL,
    UnitaryOperator,
    _partial_trace_matrix,
    kron,
    trace_norm,
)


@dataclass(frozen=True)
class SolverConfig:
    """Acceptance tolerance for the fixed point."""

    tolerance: float = 1e-12          # trace-norm residual ||Phi(s) - s||_1

    def __post_init__(self):
        if (isinstance(self.tolerance, bool) or not isinstance(self.tolerance, numbers.Real)
                or not 0 < self.tolerance < np.inf):
            raise InvariantViolationError("tolerance must be a finite positive real number")


@dataclass(frozen=True)
class FixedPointResult:
    """Self-consistent CTC state plus solver diagnostics."""

    fixed_point: DensityOperator
    residual: float
    fp_space_dim: int
    method: str = "spectral"          # "spectral" or "chain"

    def __post_init__(self):
        if self.residual < 0:
            raise InvariantViolationError("residual must be non-negative")
        if self.method not in ("spectral", "chain"):
            raise InvariantViolationError(f"unknown solve method {self.method!r}")

    @property
    def unique(self) -> bool:
        return self.fp_space_dim == 1


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
    # Two matrix products: [ts, ac] = sum_b u[a,t,b,s] rho[b,c], then sum over (a, c).
    left = (u.transpose(1, 3, 0, 2) @ rho_cr.matrix).reshape(d_ctc * d_ctc, d_cr * d_cr)
    right = u.conj().transpose(0, 2, 1, 3).reshape(d_cr * d_cr, d_ctc * d_ctc)
    S = (left @ right).reshape(d_ctc, d_ctc, d_ctc, d_ctc).transpose(0, 2, 1, 3)
    return S.reshape(d_ctc * d_ctc, d_ctc * d_ctc)


def _unit_eigenvectors(M: np.ndarray) -> np.ndarray:
    # eig puts the unit eigenvalue of a CPTP map within ~4e-15 of 1.
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
    they are set to zero, and since that moves sigma along fast modes of S,
    sigma then takes one channel step (positive, residual not increased)
    before the residual check judges the returned state.  Raises
    ``FixedPointConvergenceError`` when S has no eigenvalue 1 or unequal
    left and right multiplicities, when the linear algebra fails, or when
    sigma fails the residual check.
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
        sigma = (S @ sigma.reshape(-1)).reshape(d, d)
        sigma = sigma + sigma.conj().T
        sigma = sigma / sigma.trace().real
        residual = trace_norm((S @ sigma.reshape(-1)).reshape(d, d) - sigma)
        fixed_point = DensityOperator(sigma)
    except (np.linalg.LinAlgError, InvariantViolationError) as exc:
        raise FixedPointConvergenceError(residual, config.tolerance, str(exc)) from exc
    if not residual < config.tolerance:
        raise FixedPointConvergenceError(residual, config.tolerance)
    return FixedPointResult(fixed_point, residual, right.shape[1])


def apply_dctc(U: UnitaryOperator, rho_cr: DensityOperator, layout: RegisterLayout,
               config: SolverConfig | None = None) -> tuple:
    """Run the full CTC interaction: solve for the self-consistent CTC state
    sigma*, then return the CR output Tr_CTC(U (rho_CR (x) sigma*) U^dag)
    together with the solver diagnostics."""
    result = solve_fixed_point(U, rho_cr, layout, config)
    return _joint_output(U, rho_cr, result.fixed_point, layout, layout.cr_labels), result


# --- classically controlled CTCs: the label chain ----------------------------

def _cesaro_limit(P: list) -> tuple:
    """Limit of the Cesaro average of the uniform distribution under the
    row-stochastic ``P[i][j]`` (i -> j), and the number of closed classes.

    Each label's escape, its one probability above 0 of leaving for another
    label, is followed to the cycle it reaches; a label that never escapes
    is a cycle of one.  Each label's mass goes to its cycle, spread there in
    proportion to 1/e_c: ratios to the cycle's smallest escape, which cannot
    overflow.  With escapes of at most ``UNIT_EIGENVALUE_ATOL`` counted as
    absent, the closed classes are the cycles with no such escape plus the
    labels with one.  Returns ``(p, closed)``.  Raises
    ``InvariantViolationError`` for a label with two escapes."""
    escapes = {}
    for i, row in enumerate(P):
        out = [(j, rate) for j, rate in enumerate(row) if j != i and rate > 0]
        if len(out) > 1:
            raise InvariantViolationError(
                f"label {i} escapes to labels {[j for j, _ in out]}, not to one")
        if out:
            escapes[i] = out[0]
    cycles = Counter()
    for label in range(len(P)):
        path = []
        while label not in path:
            path.append(label)
            label = escapes.get(label, (label,))[0]
        cycles[tuple(sorted(path[path.index(label):]))] += 1
    p = np.zeros(len(P))
    closed = sum(rate <= UNIT_EIGENVALUE_ATOL for _, rate in escapes.values())
    for cycle, count in cycles.items():
        rates = [escapes[c][1] for c in cycle] if len(cycle) > 1 else [1.0]
        shares = np.array([min(rates) / rate for rate in rates])
        p[list(cycle)] = count / len(P) * (shares / shares.sum())
        closed += min(rates) > UNIT_EIGENVALUE_ATOL
    return p, closed


def apply_label_chain(outputs: np.ndarray, config: SolverConfig | None = None) -> tuple:
    """Run a CTC that acts as a classical label: the registers are swapped,
    then block U_c acts on the CTC register when the CR register reads c.

    The CR input is rho_CR = K K^dag, given through the block outputs
    ``outputs[c] = U_c K`` of its factor K.  With tau_c = U_c rho_CR U_c^dag
    and the label chain M[c', c] = sum_j |outputs[c, c', j]|^2, the CTC state
    is sigma* = sum_c p_c tau_c, where p is the Cesaro limit of M^n applied to
    the uniform distribution, and the CR output is sigma* times the Gram
    matrix of the blocks, entrywise: sigma*_cc' Tr(U_c rho_CR U_c'^dag).  Each
    label must stay or escape to one other label, and p_c goes as 1/e_c on
    each cycle of escapes (see the module docstring).

    ``fp_space_dim`` counts the chain's closed classes, found in the same
    walk of the escapes as p, with an escape of probability at most
    ``UNIT_EIGENVALUE_ATOL`` counted as absent: the window the spectral solve
    applies to eigenvalues.  p itself is solved on every escape, so it stays
    an exact fixed point inside that window.  Returns
    ``(cr_out, FixedPointResult)`` like :func:`apply_dctc`.  Raises
    ``InvariantViolationError`` for non-finite outputs, a CR input whose
    trace (the sum of every row of the chain) is not 1 within
    ``TRACE_ATOL``, or a label with two escapes, and
    ``FixedPointConvergenceError`` when sigma* is not a density operator or
    fails the residual check.
    """
    config = config or SolverConfig()
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.ndim != 3 or outputs.shape[0] != outputs.shape[1]:
        raise InvariantViolationError(
            f"block outputs must have shape (labels, labels, vectors), got {outputs.shape}")
    if not np.isfinite(outputs).all():
        raise InvariantViolationError("block outputs must be finite")
    d = outputs.shape[0]
    P = (outputs.real ** 2 + outputs.imag ** 2).sum(axis=2)             # P[c, c'] = M[c', c]
    traces = P.sum(axis=1)                          # row c: ||U_c K||_F^2 = Tr(rho_CR)
    if not (abs(traces - 1.0) <= TRACE_ATOL).all():
        raise InvariantViolationError(f"CR input has trace {traces.tolist()}, not 1")
    P = P.tolist()
    taus = (outputs @ outputs.conj().transpose(0, 2, 1)).reshape(d, d * d)
    flat = outputs.reshape(d, -1)
    gram = flat @ flat.conj().T
    p, closed = _cesaro_limit(P)
    residual = np.inf
    try:
        sigma = (p @ taus).reshape(d, d)
        sigma = sigma / sigma.trace().real
        residual = trace_norm((sigma.diagonal().real @ taus).reshape(d, d) - sigma)
        fixed_point = DensityOperator(sigma)
    except InvariantViolationError as exc:
        raise FixedPointConvergenceError(residual, config.tolerance, str(exc)) from exc
    if not residual < config.tolerance:
        raise FixedPointConvergenceError(residual, config.tolerance)
    result = FixedPointResult(fixed_point, residual, closed, method="chain")
    return DensityOperator(sigma * gram), result
