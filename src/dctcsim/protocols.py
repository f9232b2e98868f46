"""End-to-end protocols: teleportation with Pauli correction, CTC-assisted
Bell-state discrimination, and the Smolin-state distillation experiment.

The discrimination strategy: Alice teleports a known state psi = a|0> + b|1>
to Bob through the shared (unknown) Bell pair and tells him her Bell
measurement outcome.  Bob applies the standard correction for that outcome,
so his qubit ends up carrying the residual Pauli error that identifies the
shared pair: psi, Z psi, X psi or XZ psi.  Feeding that qubit (with a fresh
|0> ancilla) through the CTC interaction maps the four non-orthogonal
possibilities onto the four computational CR outcomes b1 b2.  The CTC fixed
point of the circuit (:mod:`dctcsim.circuits`) is unique for every
non-degenerate amplitude pair, so that readout is deterministic.

:func:`ctc_readout` is that CTC stage, the one place it is assembled: Bob's
qubit, given as a factor K of his density matrix K K^dag, and a |0> ancilla
form the CR input, the Deutsch fixed point is solved through the circuit's
four-label chain (no 16x16 interaction is built), and the CR register is
read out.  The discrimination, the improper-mixture run and the CLI
``fixed-point`` experiment all call it.  The experiments get Bob's factor
from the one teleportation step, :func:`teleport_and_correct`: Alice's Bell
measurement on psi (x) the shared pair, given as a factor (the Bell vector,
or the eigenvectors of the AB marginal scaled by the square roots of their
eigenvalues), then Bob's correction.

The CTC stage is simulated branch-wise: the self-consistency map is
nonlinear in the CR input, so convex mixtures cannot be pushed through the
solver; each pure branch is solved on its own.  An improper-mixture run
(tracing out the distant parties first) is available as an experimental
variant with no correctness claim; it illustrates how the nonlinearity
breaks when the branch identity is discarded.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .circuits import AmplitudePair, BLOCK_CODES, _PAULI_ERRORS, block_outputs
from .deutsch import FixedPointResult, SolverConfig, apply_label_chain
from .entanglement import (
    BipartiteCut,
    is_ppt,
    log_negativity,
    smolin_cuts,
    smolin_layout,
    smolin_state,
)
from .errors import DegenerateAmplitudesError, InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    DensityOperator,
    I2,
    PSD_ATOL,
    RegisterLayout,
    TRACE_ATOL,
    X,
    Y,
    Z,
    _complex_array,
    _partial_trace_matrix,
    as_state_vector,
    pure_fidelity,
)

READOUT_TIE_ATOL = 1e-9   # CR probabilities this close to the largest count as tied
# Largest diagonal of a two-qubit DensityOperator: trace 1 + TRACE_ATOL, 3 eigenvalues -PSD_ATOL.
MAX_READOUT_PROBABILITY = 1.0 + TRACE_ATOL + 3 * PSD_ATOL


class BellLabel(enum.Enum):
    """The four maximally entangled two-qubit states, in CR code order 00, 01,
    10, 11; a label's position is also the index of Alice's outcome."""

    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"

    @classmethod
    def from_string(cls, name: str) -> "BellLabel":
        for label in cls:
            if label.value == name:
                return label
        raise InvariantViolationError(f"unknown Bell label {name!r}")

    @classmethod
    def from_b1b2(cls, b1: int, b2: int) -> "BellLabel":
        if (b1, b2) not in BLOCK_CODES:
            raise InvariantViolationError(f"invalid CR outcome {(b1, b2)!r}")
        return _OUTCOMES[BLOCK_CODES.index((b1, b2))]

    def state_vector(self) -> np.ndarray:
        return BELL_VECTORS[self.value]


# Every four-outcome table is indexed by a Bell label's position k in BellLabel
# order, which is BLOCK_CODES order: the shared pair k leaves Bob the residual
# error _PAULI_ERRORS[k] and is read out as BLOCK_CODES[k].  Alice's outcome k
# is sent as (phase bit, flip bit) = (k & 1, k >> 1), and Bob corrects it with
# I, Z, X or Y.
_OUTCOMES = tuple(BellLabel)
ALICE_OUTCOME_BITS = {label: (k & 1, k >> 1) for k, label in enumerate(_OUTCOMES)}
_CORRECTIONS = (I2, Z, X, Y)

# Alice's Bell measurement on qubits (psi, her half of the pair): row k is
# the conjugated Bell vector of outcome k.
_BELL_BRAS = np.array([label.state_vector().conj() for label in _OUTCOMES])


def pauli_residual(bell: BellLabel) -> np.ndarray:
    """Operator E with Bob's post-correction qubit equal to E psi (up to a
    global phase) when the shared pair is ``bell``."""
    if not isinstance(bell, BellLabel):
        raise InvariantViolationError(f"invalid Bell label {bell!r}")
    return _PAULI_ERRORS[_OUTCOMES.index(bell)]


def modal_readout(cr_out: DensityOperator) -> tuple:
    """Read a two-qubit CR register in the computational basis.

    Returns ``(distribution, b1b2, probability)``: the four outcome
    probabilities, the most probable outcome and its probability.  Outcomes
    within ``READOUT_TIE_ATOL`` of the largest tie, and a tie goes to the
    lowest label, so rounding noise cannot pick the label.
    """
    distribution = tuple(cr_out.matrix.diagonal().real.tolist())
    top = max(distribution)
    modal = next(i for i, p in enumerate(distribution) if p >= top - READOUT_TIE_ATOL)
    return distribution, BLOCK_CODES[modal], distribution[modal]


def _generator(seed) -> "np.random.Generator":
    """``np.random.default_rng(seed)``, with a bad seed as a typed error."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvariantViolationError(f"invalid seed {seed!r}: {exc}") from exc


def _alice_branches(pair: np.ndarray, amps: AmplitudePair) -> tuple:
    """Project Alice's four Bell outcomes out of psi (x) |pair> at once, for a
    two-qubit ket ``pair`` (Alice's half first) or a stack of them, one per row.

    Returns ``(branches, probabilities)``: row k of the 4x2 ``branches`` is
    Bob's unnormalised, uncorrected qubit for outcome k (``BellLabel`` order)
    and ``probabilities[k]`` is its squared norm; a stack adds a leading axis.
    """
    psi = np.array([amps.alpha, amps.beta], dtype=complex)
    full = (psi[:, None] * pair[..., None, :]).reshape(*pair.shape[:-1], 4, 2)
    branches = _BELL_BRAS @ full
    return branches, np.linalg.norm(branches, axis=-1) ** 2


def teleport_and_correct(pairs, amps: AmplitudePair, seed=None, alice_outcome=None) -> tuple:
    """Alice's Bell measurement on psi (x) rho_AB, then Bob's correction.

    rho_AB = sum_j f_j f_j^dag for the rows f_j of the k x 4 factor ``pairs``,
    Alice's qubit first.  Outcome k, unless ``alice_outcome`` (a
    :class:`BellLabel`) pins it, is drawn with probability p_k = sum_j |b_jk|^2.
    Returns ``(outcome, kets)``: Bob's corrected b_jk / sqrt(p_k) as the
    columns of ``kets``, so his state is ``kets @ kets.conj().T``.  ``pairs``
    must be finite, with trace sum_j ||f_j||^2 within ``TRACE_ATOL`` of 1.
    """
    pairs = _complex_array(pairs, "pair factor")
    if pairs.ndim != 2 or pairs.shape[1] != 4:
        raise InvariantViolationError(f"pair factor must be a k x 4 array, got shape {pairs.shape}")
    trace = float(np.vdot(pairs, pairs).real)    # NaN or inf for a non-finite entry
    if not abs(trace - 1.0) <= TRACE_ATOL:
        raise InvariantViolationError(f"pair factor has trace {trace!r}, not 1")
    branches, probabilities = _alice_branches(pairs, amps)
    p = probabilities.sum(axis=0)
    if alice_outcome is None:
        k = _generator(seed).choice(4, p=p / p.sum())
    elif isinstance(alice_outcome, BellLabel):
        k = _OUTCOMES.index(alice_outcome)
    else:
        raise InvariantViolationError(f"invalid Alice outcome {alice_outcome!r}")
    return _OUTCOMES[k], _CORRECTIONS[k] @ (branches[:, k] / np.sqrt(p[k])).T


def ctc_readout(amps: AmplitudePair, kets: np.ndarray,
                config: SolverConfig | None = None) -> tuple:
    """Run Bob's qubit through the CTC stage and read the CR register.

    Bob's qubit is K K^dag for the 2 x k factor K = ``kets``; a ket is one
    column.  The circuit's CTC is a classical label, so the stage is solved
    through its label chain (:func:`apply_label_chain`) from the block
    outputs of those columns; that solve checks the unit trace of the CR
    input.
    Returns ``(distribution, b1b2, probability, fixed_point)``: the
    :func:`modal_readout` triple of the CR output and the
    :class:`FixedPointResult` of the solve.  Degeneracy is not checked here;
    callers that need a unique fixed point check the pair.
    """
    kets = _complex_array(kets, "Bob's factor")
    if kets.ndim != 2 or kets.shape[0] != 2:
        raise InvariantViolationError(f"Bob's kets must be a 2 x k array, got shape {kets.shape}")
    cr_out, fixed = apply_label_chain(block_outputs(amps, kets), config)
    return (*modal_readout(cr_out), fixed)


@dataclass(frozen=True, eq=False)
class DiscriminationRecord:
    """Everything observed in one discrimination run."""

    input_bell: BellLabel
    alice_outcome: tuple
    bob_state: np.ndarray
    b1b2: tuple
    identified: BellLabel
    outcome_probability: float
    fixed_point: FixedPointResult

    def __post_init__(self):
        if not 0.0 <= self.outcome_probability <= MAX_READOUT_PROBABILITY:
            raise InvariantViolationError(
                f"outcome probability {self.outcome_probability} outside [0, 1]")
        if self.identified is not BellLabel.from_b1b2(*self.b1b2):
            raise InvariantViolationError("identified label inconsistent with b1 b2")


def discriminate_bell(bell: BellLabel, amps: AmplitudePair,
                      config: SolverConfig | None = None,
                      seed=None, alice_outcome=None) -> DiscriminationRecord:
    """Run the full discrimination protocol for one shared Bell pair.

    Alice's outcome is drawn from seeded randomness unless ``alice_outcome``
    pins it.  The CR register is read out at its most probable
    computational value (:func:`modal_readout`); the probability of that
    value is reported, not assumed.
    """
    if not isinstance(bell, BellLabel):
        raise InvariantViolationError(f"invalid Bell label {bell!r}")
    if amps.is_degenerate:
        raise DegenerateAmplitudesError(
            "discrimination requires alpha != beta and both clear of 0; the four "
            "candidate states coalesce pairwise at alpha = beta and as alpha or beta -> 0")
    outcome, kets = teleport_and_correct(bell.state_vector()[None], amps, seed, alice_outcome)
    _, b1b2, probability, fixed = ctc_readout(amps, kets, config)
    return DiscriminationRecord(
        input_bell=bell,
        alice_outcome=ALICE_OUTCOME_BITS[outcome],
        bob_state=as_state_vector(kets[:, 0]),
        b1b2=b1b2,
        identified=BellLabel.from_b1b2(*b1b2),
        outcome_probability=probability,
        fixed_point=fixed,
    )


@dataclass(frozen=True)
class BranchOutcome:
    """One branch of the Smolin mixture after discrimination on AB."""

    branch: BellLabel
    probability: float
    record: DiscriminationRecord
    message: BellLabel
    cd_fidelity: float
    cd_log_negativity: float


@dataclass(frozen=True)
class DistillationReport:
    branches: tuple
    baseline_log_negativity: dict
    baseline_ppt: dict
    all_identified: bool


def distill_smolin(amps: AmplitudePair, config: SolverConfig | None = None,
                   seed=None) -> DistillationReport:
    """Branch-wise Smolin distillation: in each equally likely branch the AB
    and CD pairs share the same Bell identity, Alice and Bob discriminate
    theirs through the CTC circuit and broadcast the label, leaving Charlie
    and Dan with a known Bell pair (one ebit).  The report carries the
    pre-protocol baseline: log-negativity 0 and PPT across all three
    balanced cuts of the Smolin state."""
    rng = _generator(seed)
    cd_layout = RegisterLayout(("C", "D"))
    cd_cut = BipartiteCut(("C",), ("D",))

    branches = []
    for branch in BellLabel:
        record = discriminate_bell(branch, amps, config, seed=rng)
        cd_state = branch.state_vector()
        message = record.identified
        branches.append(BranchOutcome(
            branch=branch,
            probability=0.25,
            record=record,
            message=message,
            cd_fidelity=pure_fidelity(message.state_vector(), cd_state),
            cd_log_negativity=log_negativity(
                DensityOperator.from_state_vector(cd_state), cd_layout, cd_cut),
        ))

    rho = smolin_state()
    layout = smolin_layout()
    baseline_en = {name: log_negativity(rho, layout, cut)
                   for name, cut in smolin_cuts().items()}
    baseline_ppt = {name: is_ppt(rho, layout, cut)
                    for name, cut in smolin_cuts().items()}
    return DistillationReport(
        branches=tuple(branches),
        baseline_log_negativity=baseline_en,
        baseline_ppt=baseline_ppt,
        all_identified=all(b.message is b.branch for b in branches),
    )


@dataclass(frozen=True)
class ImproperMixtureRecord:
    """Result of pushing the unconditioned AB marginal through the CTC stage.

    Experimental, no correctness claim: discarding the branch identity hands
    the solver the maximally mixed Bob qubit, and the CR readout carries no
    information about the original pair.
    """

    alice_outcome: tuple
    bob_state: DensityOperator
    cr_distribution: tuple
    modal_b1b2: tuple
    modal_probability: float
    fixed_point: FixedPointResult


def run_improper_mixture(amps: AmplitudePair, config: SolverConfig | None = None,
                         seed=None) -> ImproperMixtureRecord:
    """Teleport psi through the Smolin AB marginal, factored as its
    eigenvectors scaled by the square roots of their eigenvalues
    (:func:`teleport_and_correct`, Alice's outcome drawn from ``seed``), and
    run Bob's corrected factor through :func:`ctc_readout`."""
    if amps.is_degenerate:
        raise DegenerateAmplitudesError("improper-mixture run requires a non-degenerate pair")
    rho_ab = _partial_trace_matrix(smolin_state().matrix, 4, (0, 1))
    w, pairs = np.linalg.eigh(rho_ab)
    outcome, kets = teleport_and_correct((pairs * np.sqrt(np.clip(w, 0.0, None))).T, amps, seed)
    distribution, b1b2, probability, fixed = ctc_readout(amps, kets, config)
    return ImproperMixtureRecord(
        alice_outcome=ALICE_OUTCOME_BITS[outcome],
        bob_state=DensityOperator(kets @ kets.conj().T),
        cr_distribution=distribution,
        modal_b1b2=b1b2,
        modal_probability=probability,
        fixed_point=fixed,
    )
