"""Deutsch fixed-point solvers for closed-timelike-curve interactions.

A CTC register interacting with a chronology-respecting (CR) register through
a unitary U must come out of the loop in the state it entered: the CTC state
sigma is a fixed point of the channel

    Phi(sigma) = Tr_CR( U (rho_CR (x) sigma) U^dag ),

linear and CPTP in sigma for a fixed CR input, so a fixed point exists but
need not be unique.  Both solvers return the limit of the Cesaro average
(1/N) sum_n Phi^n(I/d), one deterministic answer even then, report the
dimension of the fixed-point space as ``fp_space_dim``, and accept the
answer only if it passes a trace-norm residual check.

The *spectral* solve (:func:`solve_fixed_point`, :func:`apply_dctc`) takes a
general U.  It applies the eigenvalue-1 spectral projector of the vectorized
channel S, a d^2 x d^2 matrix, to the maximally mixed state:

    S[tu, sv] = sum_{a,b,c} U[a,t,b,s] rho_CR[b,c] conj(U[a,u,c,v]).

The *chain* solve (:func:`apply_label_chains`) takes a CTC that only serves
as a classical label: U swaps the registers, then applies block U_c to the
CTC register when the CR register reads c.  So Phi(sigma) =
sum_c sigma_cc tau_c with tau_c = U_c rho_CR U_c^dag, and the fixed points
are sum_c p_c tau_c for the stationary distributions p of the label chain
M[c', c] = <c'|tau_c|c'>.  Each label c must stay or escape to one other
label, with probability e_c; the discrimination circuit meets this for any
CR input, since each block's ancilla-|0> columns are two columns of a
permutation layer.  Following the escapes, every label reaches one cycle,
on which the flow p_c e_c is the same for every c, so p_c goes as 1/e_c:
nothing is subtracted, however small the chain's gap.  The chain solve
takes a stack of CR inputs and solves them in one call.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import FixedPointConvergenceError, InvariantViolationError
from .qmath import (
    DensityOperator,
    RegisterLayout,
    TRACE_ATOL,
    UNIT_EIGENVALUE_ATOL,
    UnitaryOperator,
    _complex_array,
    _density_errors,
    _partial_trace_matrix,
    _readonly,
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


_DEFAULT_CONFIG = SolverConfig()


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
    R (L^H R)^-1 L^H vec(I/d), the Cesaro limit of Phi^n(I/d), made Hermitian
    and divided by its trace.  Rounding of S moves sigma by about 1e-16 / gap,
    which near alpha = beta leaves small negative eigenvalues on a pure fixed
    point; they are set to zero, then one channel step (positive, residual not
    increased) undoes the move along fast modes of S before the residual
    check.  Raises ``FixedPointConvergenceError`` when S has no eigenvalue 1
    or unequal left and right multiplicities, when the linear algebra fails,
    or when sigma fails the residual check."""
    config = config or _DEFAULT_CONFIG
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
    label, is followed to the cycle it reaches (a label that never escapes
    is a cycle of one), and its mass is spread on that cycle in proportion
    to 1/e_c: ratios to the cycle's smallest escape, which cannot overflow.
    With escapes of at most ``UNIT_EIGENVALUE_ATOL`` counted as absent, the
    closed classes are the cycles with no such escape plus the labels with
    one.  Returns ``(p, closed)``, p as a list.  Raises
    ``InvariantViolationError`` for a label with two escapes."""
    n = len(P)
    escape, rate = list(range(n)), [1.0] * n        # a label that never escapes: rate 1
    for i, row in enumerate(P):
        for j, r in enumerate(row):
            if r > 0 and j != i:
                if escape[i] != i:
                    out = [j for j, r in enumerate(row) if j != i and r > 0]
                    raise InvariantViolationError(f"label {i} escapes to labels {out}, not to one")
                escape[i], rate[i] = j, r
    # cycle[c]: the key of c's cycle (n: c is on none); per key: labels it collects, lowest escape
    cycle, reach, lowest, total = [n] * n, [0] * n, [np.inf] * n, [0.0] * n
    for c in range(n):
        for _ in range(n):              # n escapes from any label end on its cycle
            if cycle[c] < n:
                break
            c = escape[c]
        key = c
        while cycle[c] == n:            # a new cycle: mark its labels
            cycle[c], lowest[key], c = key, min(lowest[key], rate[c]), escape[c]
        reach[cycle[c]] += 1
    for c, m in enumerate(cycle):       # in label order, the order numpy sums < 8 terms in
        if m < n:
            total[m] += lowest[m] / rate[c]
    p = [reach[m] / n * (lowest[m] / rate[c] / total[m]) if m < n else 0.0
         for c, m in enumerate(cycle)]
    closed = (sum(r <= UNIT_EIGENVALUE_ATOL for r in rate)
              + sum(low > UNIT_EIGENVALUE_ATOL for low, k in zip(lowest, reach) if k))
    return p, closed


def apply_label_chains(outputs: np.ndarray, config: SolverConfig | None = None) -> list:
    """Solve a stack of label-chain CTCs (see the module docstring), one per
    CR input, in one call; only the walk of the escapes runs per input.

    Input i's rho_CR = K K^dag comes as ``outputs[i, c] = U_c K``, so
    M[c', c] = sum_j |outputs[i, c, c', j]|^2, p is the Cesaro limit of M^n on
    the uniform distribution (solved on every escape), and the CR output is
    sigma* times the Gram matrix of the blocks, entrywise.  ``fp_space_dim``
    counts closed classes, an escape of at most ``UNIT_EIGENVALUE_ATOL`` (the
    spectral eigenvalue window) counted as absent.  Returns one
    ``(cr_out, FixedPointResult)`` per input.

    Checks, in order: the trace test on every input
    (``InvariantViolationError`` for non-finite outputs, or a row sum of the
    chain, Tr(rho_CR), off 1 by more than ``TRACE_ATOL``), then the walk on
    every input (a label with two escapes), then for each input in turn
    sigma* as a density operator and the residual
    (``FixedPointConvergenceError``) and the CR output as a density operator
    (``InvariantViolationError``).  The first failure raises, from the lowest
    input that fails it.
    """
    config = config or _DEFAULT_CONFIG
    outputs = _complex_array(outputs, "block outputs")
    if outputs.ndim != 4 or 0 in outputs.shape[:2] or outputs.shape[1] != outputs.shape[2]:
        raise InvariantViolationError("block outputs must have shape (inputs, labels, labels, "
                                      f"vectors), got {outputs.shape}")
    with np.errstate(over="ignore"):                # a huge entry gives inf, which fails the trace
        P = (outputs.real ** 2 + outputs.imag ** 2).sum(axis=3)     # P[i, c, c'] = M_i[c', c]
        traces = P.sum(axis=2).tolist()             # row c: ||U_c K||_F^2 = Tr(rho_CR)
    for i, trace in enumerate(traces):
        if not all(abs(t - 1.0) <= TRACE_ATOL for t in trace):     # fails on NaN or inf too
            raise InvariantViolationError(f"CR input has trace {trace}, not 1"
                                          if np.isfinite(outputs[i]).all()
                                          else "block outputs must be finite")
    walks = [_cesaro_limit(rows) for rows in P.tolist()]
    n, d = outputs.shape[:2]
    conj = outputs.conj()
    taus = (outputs @ conj.transpose(0, 1, 3, 2)).reshape(n, d, d * d)
    gram = outputs.reshape(n, d, -1) @ conj.reshape(n, d, -1).transpose(0, 2, 1)
    sigma = (np.array([[p] for p, _ in walks]) @ taus).reshape(n, d, d)
    sigma = sigma / sigma.trace(axis1=1, axis2=2).real[:, None, None]
    step = (sigma.diagonal(axis1=1, axis2=2).real[:, None] @ taus).reshape(n, d, d)
    try:
        residuals = np.linalg.svd(step - sigma, compute_uv=False).sum(axis=1).tolist()
    except np.linalg.LinAlgError as exc:
        raise FixedPointConvergenceError(np.inf, config.tolerance, str(exc)) from exc
    states = _readonly(np.concatenate([sigma, sigma * gram]))     # each sigma*, each CR output
    errors = _density_errors(states)
    results = []
    for i, (residual, (_, closed)) in enumerate(zip(residuals, walks)):
        if errors[i] is not None or not residual < config.tolerance:   # sigma*, then the residual
            raise FixedPointConvergenceError(residual, config.tolerance, errors[i] or "")
        if errors[n + i] is not None:
            raise InvariantViolationError(errors[n + i])
        fixed = FixedPointResult(DensityOperator._checked(states[i]), residual, closed, "chain")
        results.append((DensityOperator._checked(states[n + i]), fixed))
    return results

