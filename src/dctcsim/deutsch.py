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

A layout puts every CR qubit first, so each register is one pair of axes of
the joint output U (rho_CR (x) sigma) U^dag: both solvers take the CR output
and Phi(sigma) as its block traces, over ``_CTC_AXES`` and ``_CR_AXES``.

The *spectral* solve (:func:`solve_fixed_point`, :func:`apply_dctc`) takes a
general U.  It applies the eigenvalue-1 spectral projector of the vectorized
channel S, a d^2 x d^2 matrix, to the maximally mixed state:

    S[tu, sv] = sum_{a,b,c} U[a,t,b,s] rho_CR[b,c] conj(U[a,u,c,v]).

One SVD of S - I gives orthonormal right and left fixed vectors (eigenvalue 1
of a channel is semisimple); the eigenvalues of S count them, since a singular
value can sit ~1.15x past the eigenvalue distance the window was set for.

The *chain* solve (:func:`apply_label_chains`) takes a CTC that only serves
as a classical label: U swaps the registers, then applies block U_c to the
CTC register when the CR register reads c.  So the joint output on axes
(c, a, c', b) is sigma_cc' U_c rho_CR U_c'^dag, Phi(sigma) = sum_c sigma_cc
tau_c with tau_c = U_c rho_CR U_c^dag, and the fixed points are
sum_c p_c tau_c for the stationary distributions p of the label chain
M[c', c] = <c'|tau_c|c'>.  Each label c must stay or escape to one other
label, with probability e_c; the discrimination circuit meets this for any
CR input, since each block's ancilla-|0> columns are two columns of a
permutation layer.  Following the escapes, every label reaches one cycle,
on which the flow p_c e_c is the same for every c, so p_c goes as 1/e_c:
nothing is subtracted, however small the chain's gap.  One call solves a
stack of CR inputs, with one LAPACK call, an ``eigvalsh``.
"""

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
    _is_real,
    _readonly,
    _require,
    kron,
    trace_norm,
)


@dataclass(frozen=True)
class SolverConfig:
    """Acceptance tolerance for the fixed point."""

    tolerance: float = 1e-12          # trace-norm residual ||Phi(s) - s||_1

    def __post_init__(self):
        if (isinstance(self.tolerance, bool) or not _is_real(self.tolerance)
                or not 0 < self.tolerance < np.inf):
            raise InvariantViolationError("tolerance must be a finite positive real number")


_DEFAULT_CONFIG = SolverConfig()
STRADDLE_FACTOR = 100.0     # how much farther from 1 uncounted eigenvalues must lie
_CR_AXES, _CTC_AXES = (-4, -2), (-3, -1)    # of a joint output's axes (CR, CTC, CR', CTC')


@dataclass(frozen=True)
class FixedPointResult:
    """Self-consistent CTC state plus solver diagnostics."""

    fixed_point: DensityOperator
    residual: float
    fp_space_dim: int
    method: str = "spectral"          # "spectral" or "chain"

    def __post_init__(self):
        # Concrete types, not the numbers ABCs, which cost more on every solve.
        residual, dim = self.residual, self.fp_space_dim
        real = isinstance(residual, (float, int, np.floating, np.integer))
        if isinstance(residual, bool) or not real or not 0 <= residual < np.inf:   # NaN fails
            raise InvariantViolationError(f"invalid residual {residual!r}")
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise InvariantViolationError(f"invalid fixed-point space dimension {dim!r}")
        if self.method not in ("spectral", "chain"):
            raise InvariantViolationError(f"unknown solve method {self.method!r}")

    @property
    def unique(self) -> bool:
        return self.fp_space_dim == 1


def _config(config) -> SolverConfig:
    """``config``, or the default for None; any other non-``SolverConfig`` is a typed error."""
    return _DEFAULT_CONFIG if config is None else _require(config, SolverConfig, "solver config")


def _interaction_dims(U: UnitaryOperator, rho_cr: DensityOperator,
                      layout: RegisterLayout) -> tuple:
    _require(U, UnitaryOperator, "interaction")
    _require(rho_cr, DensityOperator, "CR state")
    cr, ctc = _require(layout, RegisterLayout, "register layout").cr_labels, layout.ctc_labels
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
                  traced: tuple) -> DensityOperator:
    """The block trace of U (rho_CR (x) sigma) U^dag over the axes ``traced``:
    ``_CTC_AXES`` for the CR output, ``_CR_AXES`` for the CTC image."""
    big = U.matrix @ kron(rho_cr.matrix, sigma.matrix) @ U.matrix.conj().T
    return DensityOperator(big.reshape((rho_cr.dim, sigma.dim) * 2).trace(0, *traced))


def ctc_map(U: UnitaryOperator, rho_cr: DensityOperator, sigma: DensityOperator,
            layout: RegisterLayout) -> DensityOperator:
    """Evaluate Phi(sigma) = Tr_CR(U (rho_CR (x) sigma) U^dag)."""
    _, d_ctc = _interaction_dims(U, rho_cr, layout)
    if _require(sigma, DensityOperator, "CTC state").dim != d_ctc:
        raise InvariantViolationError(
            f"CTC state has dimension {sigma.dim}, layout expects {d_ctc}")
    return _joint_output(U, rho_cr, sigma, _CR_AXES)


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


def _unit_count(S: np.ndarray) -> int:
    """Number of eigenvalues of S within ``UNIT_EIGENVALUE_ATOL`` of 1, from one
    ``eigvals``; ``LinAlgError`` if the nearest outside is within ``STRADDLE_FACTOR``
    of the farthest inside, compared by multiplying as a counted distance can be 0."""
    distance = np.abs(np.linalg.eigvals(S) - 1.0)
    inside = distance <= UNIT_EIGENVALUE_ATOL
    if distance[~inside].min(initial=np.inf) < STRADDLE_FACTOR * distance[inside].max(initial=0.0):
        raise np.linalg.LinAlgError("spectrum straddles the unit-eigenvalue window")
    return int(inside.sum())


def fixed_point_space_dim(U: UnitaryOperator, rho_cr: DensityOperator,
                          layout: RegisterLayout) -> int:
    """Eigenvalue-1 multiplicity of the vectorized channel: counts and raises as the solve."""
    try:
        return _unit_count(superoperator_matrix(U, rho_cr, layout))
    except np.linalg.LinAlgError as exc:
        raise FixedPointConvergenceError(np.inf, _DEFAULT_CONFIG.tolerance, str(exc)) from exc


def solve_fixed_point(U: UnitaryOperator, rho_cr: DensityOperator,
                      layout: RegisterLayout,
                      config: SolverConfig | None = None) -> FixedPointResult:
    """Find sigma with ||Phi(sigma) - sigma||_1 below tolerance.

    With R and L the k trailing right and left singular vectors of S - I, k
    counted by :func:`_unit_count`, sigma is R (L^H R)^-1 L^H vec(I/d), the
    Cesaro limit of Phi^n(I/d), made Hermitian and divided by its trace.
    Rounding of S moves sigma by about 1e-16 / gap, which near alpha = beta
    leaves small negative eigenvalues on a pure fixed point; they are set to
    zero, then one channel step (positive, residual not increased) undoes the
    move along fast modes of S before the residual check.  Raises
    ``FixedPointConvergenceError`` when S has no eigenvalue 1 or a spectrum
    that straddles the window, when the linear algebra fails, or when sigma
    fails the residual check."""
    config = _config(config)
    S = superoperator_matrix(U, rho_cr, layout)
    d = 2 ** len(layout.ctc_labels)
    residual = np.inf
    try:
        k = _unit_count(S)
        if k == 0:
            raise np.linalg.LinAlgError("eigenvalue-1 multiplicities 0 (right and left)")
        left, _, right = np.linalg.svd(S - np.eye(d * d))
        left_h, right = left[:, -k:].conj().T, right[-k:].conj().T      # L^H and R
        vec = right @ np.linalg.solve(left_h @ right, left_h @ np.eye(d).reshape(-1) / d)
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
    return FixedPointResult(fixed_point, residual, k)


def apply_dctc(U: UnitaryOperator, rho_cr: DensityOperator, layout: RegisterLayout,
               config: SolverConfig | None = None) -> tuple:
    """Run the full CTC interaction: solve for the self-consistent CTC state
    sigma*, then return the CR output Tr_CTC(U (rho_CR (x) sigma*) U^dag)
    together with the solver diagnostics."""
    result = solve_fixed_point(U, rho_cr, layout, config)
    return _joint_output(U, rho_cr, result.fixed_point, _CTC_AXES), result


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
    closed = 0                          # a label's tiny escape, a key's escape-free cycle
    for r, low, k in zip(rate, lowest, reach):
        closed += (r <= UNIT_EIGENVALUE_ATOL) + (k > 0 and low > UNIT_EIGENVALUE_ATOL)
    return p, closed


def apply_label_chains(outputs: np.ndarray, config: SolverConfig | None = None) -> list:
    """Solve a stack of label-chain CTCs (see the module docstring), one per
    CR input, in one call; only the walk of the escapes runs per input.

    Input i's rho_CR = K K^dag comes as ``outputs[i, c] = U_c K``.  One
    product gives G[(c, a), (c', b)] = (U_c K K^dag U_c'^dag)[a, b]: tau_c
    is its (c, c) block and M[c', c] its diagonal.  p is the Cesaro limit of
    M^n on the uniform distribution (solved on every escape), sigma* =
    sum_c p_c tau_c, and sigma*_cc' G[(c, a), (c', b)] is the joint output,
    whose block traces are the CR output and Phi(sigma*).  One ``eigvalsh``
    of every sigma*, CR output and Phi(sigma*) - sigma* gives the lowest
    eigenvalues for the density checks and each residual: Phi(sigma*) -
    sigma* is Hermitian, so its trace norm is the sum of its |eigenvalues|.
    ``fp_space_dim`` counts closed classes, an escape of at most
    ``UNIT_EIGENVALUE_ATOL`` (the spectral eigenvalue window) counted as
    absent.  Returns one ``(cr_out, FixedPointResult)`` per input.

    Checks, in order: the trace test on every input
    (``InvariantViolationError`` for non-finite outputs, or a row sum of the
    chain, Tr(rho_CR), off 1 by more than ``TRACE_ATOL``), then the walk on
    every input (a label with two escapes), then for each input in turn
    sigma* as a density operator and the residual
    (``FixedPointConvergenceError``) and the CR output as a density operator
    (``InvariantViolationError``).  The first failure raises, from the lowest
    input that fails it.
    """
    config = _config(config)
    outputs = _complex_array(outputs, "block outputs")
    if outputs.ndim != 4 or 0 in outputs.shape[:2] or outputs.shape[1] != outputs.shape[2]:
        raise InvariantViolationError("block outputs must have shape (inputs, labels, labels, "
                                      f"vectors), got {outputs.shape}")
    n, d, _, k = outputs.shape
    rows = outputs.reshape(n, d * d, k)             # row (c, a): row a of U_c K
    with np.errstate(over="ignore", invalid="ignore"):   # inf, or inf * 0: fails the trace test
        gram = (rows @ rows.conj().transpose(0, 2, 1)).reshape(n, d, d, d, d)
        taus = gram.diagonal(axis1=1, axis2=3)      # taus[i, a, b, c] = tau_c[a, b]
        P = taus.diagonal(axis1=1, axis2=2).real.tolist()   # P[i][c][c'] = M_i[c', c]
    for i, chain in enumerate(P):
        for row in chain:                           # sum: ||U_c K||_F^2 = Tr(rho_CR)
            if not abs(sum(row) - 1.0) <= TRACE_ATOL:   # fails on NaN or inf too
                raise InvariantViolationError(
                    f"CR input has trace {[sum(r) for r in chain]}, not 1"
                    if np.isfinite(outputs[i]).all() else "block outputs must be finite")
    walks = [_cesaro_limit(chain) for chain in P]
    sigma = (taus @ np.array([p for p, _ in walks])[:, None, :, None])[..., 0]
    sigma = sigma / sigma.trace(axis1=1, axis2=2).real[:, None, None]
    joint = sigma[:, :, None, :, None] * gram       # U (rho_CR (x) sigma*) U^dag, CR axes first
    # Each sigma*, each CR output, each Phi(sigma*) - sigma*: one eigvalsh.
    stack = _readonly(np.concatenate([sigma, joint.trace(0, *_CTC_AXES),
                                      joint.trace(0, *_CR_AXES) - sigma]))
    spectra = np.linalg.eigvalsh(stack)
    residuals = np.add.reduce(np.abs(spectra[2 * n:]), axis=1).tolist()
    errors = _density_errors(stack[:2 * n], spectra[:2 * n, 0])
    results = []
    for i, (residual, (_, closed)) in enumerate(zip(residuals, walks)):
        if errors[i] is not None or not residual < config.tolerance:   # sigma*, then the residual
            raise FixedPointConvergenceError(residual, config.tolerance, errors[i] or "")
        if errors[n + i] is not None:
            raise InvariantViolationError(errors[n + i])
        fixed = FixedPointResult(DensityOperator._checked(stack[i]), residual, closed, "chain")
        results.append((DensityOperator._checked(stack[n + i]), fixed))
    return results
