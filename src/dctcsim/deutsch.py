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
M[c', c] = <c'|tau_c|c'>.  The chain is solved by Grassmann-Taksar-Heyman
elimination (Oper. Res. 33, 1107, 1985), which never subtracts, so p stays
accurate however small the chain's gap is.
"""

from dataclasses import dataclass

import numpy as np

from .circuits import UNIT_EIGENVALUE_ATOL
from .errors import FixedPointConvergenceError, InvariantViolationError
from .qmath import (
    DensityOperator,
    RegisterLayout,
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
        if not self.tolerance > 0:
            raise InvariantViolationError("tolerance must be positive")


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

def _closed_classes(rates: list, floor: float) -> list:
    """Closed communicating classes of a chain, each as a sorted tuple of
    states, in order of lowest state.  ``rates[i][j]`` is the probability of
    i -> j; an off-diagonal one counts as an edge when it exceeds ``floor``."""
    n = len(rates)
    successors = [[j for j in range(n) if j != i and rates[i][j] > floor] for i in range(n)]
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in successors[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return [tuple(sorted(reach[i])) for i in range(n)
            if min(reach[i]) == i and all(i in reach[j] for j in reach[i])]


def _gth_stationary(rates: list) -> list:
    """Stationary distribution of an irreducible chain from its off-diagonal
    transition probabilities ``rates[i][j]`` (i -> j), by GTH elimination:
    each state is censored in turn, with its exit probability taken as the
    sum of its remaining off-diagonal rates rather than 1 minus its stay."""
    r = [row[:] for row in rates]
    m = len(r)
    for k in range(m - 1, 0, -1):
        out = sum(r[k][:k])
        for i in range(k):
            share = r[i][k] / out
            if share:
                for j in range(k):
                    if j != i:
                        r[i][j] += share * r[k][j]
    pi = [1.0]
    for k in range(1, m):
        pi.append(sum(pi[i] * r[i][k] for i in range(k)) / sum(r[k][:k]))
    total = sum(pi)
    return [x / total for x in pi]


def _cesaro_limit(P: list) -> np.ndarray:
    """Limit of the Cesaro average of the uniform distribution under the
    row-stochastic ``P[i][j]`` (i -> j).  Transient states are censored one
    at a time: their mass and every path through them pass on to their
    successors in proportion to their exit rates.  Each closed class then
    keeps the mass absorbed into it, spread by its GTH stationary
    distribution."""
    n = len(P)
    rates = [[0.0 if i == j else P[i][j] for j in range(n)] for i in range(n)]
    classes = _closed_classes(rates, 0.0)
    recurrent = {state for members in classes for state in members}
    mass = [1.0 / n] * n
    for t in range(n):
        if t in recurrent:
            continue
        out = sum(rates[t])
        for j in range(n):
            share = rates[t][j] / out
            if not share:
                continue
            mass[j] += mass[t] * share
            for i in range(n):
                if rates[i][t] and i != j:
                    rates[i][j] += rates[i][t] * share
        for i in range(n):
            rates[i][t] = rates[t][i] = 0.0
    p = np.zeros(n)
    for members in classes:
        pi = _gth_stationary([[rates[i][j] for j in members] for i in members])
        p[list(members)] = sum(mass[i] for i in members) * np.array(pi)
    return p


def apply_label_chain(outputs: np.ndarray, weights: np.ndarray,
                      config: SolverConfig | None = None) -> tuple:
    """Run a CTC that acts as a classical label: the registers are swapped,
    then block U_c acts on the CTC register when the CR register reads c.

    The CR input is rho_CR = sum_j weights[j] v_j v_j^dag, given through the
    block outputs ``outputs[c, :, j] = U_c v_j``.  With
    tau_c = U_c rho_CR U_c^dag and the label chain
    M[c', c] = sum_j weights[j] |outputs[c, c', j]|^2, the CTC state is
    sigma* = sum_c p_c tau_c, where p is the Cesaro limit of M^n applied to the
    uniform distribution (the stationary distribution when M has one closed
    class), and the CR output is sigma* times the Gram matrix of the blocks,
    entrywise: sigma*_cc' Tr(U_c rho_CR U_c'^dag).

    ``fp_space_dim`` counts the closed classes of M, with an off-diagonal
    transition of probability at most ``UNIT_EIGENVALUE_ATOL`` counted as
    absent: the window the spectral solve applies to eigenvalues.  p itself
    is solved on every transition, so it stays an exact fixed point inside
    that window.  Returns ``(cr_out, FixedPointResult)`` like
    :func:`apply_dctc`.  Raises ``FixedPointConvergenceError`` when sigma* is
    not a density operator or fails the residual check.
    """
    config = config or SolverConfig()
    outputs = np.asarray(outputs, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if outputs.ndim != 3 or outputs.shape[0] != outputs.shape[1]:
        raise InvariantViolationError(
            f"block outputs must have shape (labels, labels, vectors), got {outputs.shape}")
    if weights.shape != outputs.shape[2:] or (weights < 0).any():
        raise InvariantViolationError("weights must be one non-negative number per vector")
    d = outputs.shape[0]
    scaled = outputs * np.sqrt(weights)
    P = (scaled.real ** 2 + scaled.imag ** 2).sum(axis=2).tolist()      # P[c][c'] = M[c', c]
    taus = (scaled @ scaled.conj().transpose(0, 2, 1)).reshape(d, d * d)
    flat = scaled.reshape(d, -1)
    gram = flat @ flat.conj().T
    residual = np.inf
    try:
        sigma = (_cesaro_limit(P) @ taus).reshape(d, d)
        sigma = sigma / sigma.trace().real
        residual = trace_norm((sigma.diagonal().real @ taus).reshape(d, d) - sigma)
        fixed_point = DensityOperator(sigma)
    except (ZeroDivisionError, InvariantViolationError) as exc:
        raise FixedPointConvergenceError(residual, config.tolerance, str(exc)) from exc
    if not residual < config.tolerance:
        raise FixedPointConvergenceError(residual, config.tolerance)
    dim = len(_closed_classes(P, UNIT_EIGENVALUE_ATOL))
    result = FixedPointResult(fixed_point, residual, dim, method="chain")
    return DensityOperator(sigma * gram), result
