"""End-to-end protocols: teleportation with Pauli correction, CTC-assisted
Bell-state discrimination, and the Smolin-state distillation experiment.

The discrimination strategy: Alice teleports a known state psi = a|0> + b|1>
to Bob through the shared (unknown) Bell pair and tells him her Bell
measurement outcome.  Bob's correction leaves his qubit carrying the residual
Pauli error that identifies the pair: psi, Z psi, X psi or XZ psi.  The CTC
interaction maps these four non-orthogonal states (with a |0> ancilla) onto
the four computational CR outcomes b1 b2, deterministically for every
non-degenerate amplitude pair (:mod:`dctcsim.circuits`).

:func:`ctc_readouts` is that CTC stage, the one place it is assembled, for a
stack of inputs: each Bob qubit, a factor K of his density matrix K K^dag,
forms a CR input with the ancilla, one call solves every Deutsch fixed point
through the circuit's four-label chain (no 16x16 interaction is built), and
each CR register is read out.  A single input is a stack of one.  Bob's
factors come from the one teleportation step, :func:`teleport_and_correct`,
which takes the same stack: every input's pair factor is measured and
corrected in one call, and its n x 2 x k output is the CTC stage's input.

The self-consistency map is nonlinear in the CR input, so a convex mixture
cannot be pushed through the solver branch by branch and summed: which
Deutsch reading a run uses is the shape of the stage's input.  The two
experiments here read branch-wise, one pure input per branch.  Handing the
stage one input that holds every branch as a column solves Deutsch on the
actual state instead; ``dctc-sim smolin --improper-mixture`` does so for
the Smolin AB marginal (:data:`_SMOLIN_AB_FACTOR`), an experimental run
with no correctness claim.  The spectra of the constant states (the Smolin
baseline and the four C:D Bell pairs) are taken once per process, on first
use (:mod:`dctcsim.entanglement`).
"""

import enum
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .circuits import AmplitudePair, BLOCK_CODES, _PAULI_ERRORS, block_outputs
from .deutsch import FixedPointResult, SolverConfig, apply_label_chains
from .entanglement import PPT_ATOL, _bell_spectra, _log_negativities, _smolin_spectra, smolin_cuts
from .errors import DegenerateAmplitudesError, InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    DensityOperator,
    I2,
    PSD_ATOL,
    TRACE_ATOL,
    X,
    Y,
    Z,
    _complex_array,
    _label_tuple,
    _readonly,
    _require,
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
        try:
            return cls(name)
        except ValueError:
            raise InvariantViolationError(f"unknown Bell label {name!r}") from None

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

# Each Bell pair as a 1 x 4 factor, in BellLabel order; Alice's Bell measurement
# (row k: the conjugated Bell vector of outcome k); and the Smolin AB marginal,
# sum_k |B_k><B_k| / 4, as one input of one 4-row factor with rows B_k / 2.
_BELL_KETS = _readonly(np.array([[label.state_vector()] for label in _OUTCOMES]))
_BELL_BRAS = _BELL_KETS[:, 0].conj()
_SMOLIN_AB_FACTOR = _readonly(_BELL_KETS.transpose(1, 0, 2) / 2)


def pauli_residual(bell: BellLabel) -> np.ndarray:
    """Operator E with Bob's post-correction qubit equal to E psi (up to a
    global phase) when the shared pair is ``bell``."""
    return _PAULI_ERRORS[_OUTCOMES.index(_require(bell, BellLabel, "Bell label"))]


def modal_readout(cr_out: DensityOperator) -> tuple:
    """Read a two-qubit CR register in the computational basis: returns
    ``(distribution, b1b2, probability)``, the four outcome probabilities, the
    most probable outcome and its probability.  Outcomes within
    ``READOUT_TIE_ATOL`` of the largest tie, and a tie goes to the lowest
    label, so rounding noise cannot pick the label."""
    if _require(cr_out, DensityOperator, "CR state").dim != 4:
        raise InvariantViolationError(f"CR register must be two qubits, got dimension {cr_out.dim}")
    distribution = tuple(cr_out.matrix.diagonal().real.tolist())
    top = max(distribution)
    for modal, p in enumerate(distribution):
        if p >= top - READOUT_TIE_ATOL:
            break
    return distribution, BLOCK_CODES[modal], distribution[modal]


def _generator(seed) -> "np.random.Generator":
    """``np.random.default_rng(seed)``, with a bad seed as a typed error."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvariantViolationError(f"invalid seed {seed!r}: {exc}") from exc


def _alice_branches(pair: np.ndarray, amps: AmplitudePair) -> tuple:
    """Project Alice's four Bell outcomes out of psi (x) |pair> at once, for a
    two-qubit ket ``pair`` (Alice's half first) or a stack of them along
    leading axes.  Returns ``(branches, probabilities)``: row k of the 4x2
    ``branches`` is Bob's unnormalised, uncorrected qubit for outcome k
    (``BellLabel`` order) and ``probabilities[k]`` is its squared norm; a
    stack adds its leading axes."""
    psi = np.array([amps.alpha, amps.beta], dtype=complex)
    full = (psi[:, None] * pair[..., None, :]).reshape(*pair.shape[:-1], 4, 2)
    branches = _BELL_BRAS @ full
    # np.linalg.norm(branches, axis=-1) ** 2, the same operations without its dispatch
    return branches, np.sqrt(np.add.reduce((branches.conj() * branches).real, axis=-1)) ** 2


def teleport_and_correct(pairs, amps: AmplitudePair, seed=None, alice_outcome=None) -> tuple:
    """Alice's Bell measurement on psi (x) rho_AB, then Bob's correction, for
    a stack of pair states in one call.

    Input i's rho_AB = sum_j f_j f_j^dag for the rows f_j of the k x 4 factor
    ``pairs[i]`` (``pairs`` is n x k x 4, n >= 1), Alice's qubit first.  Its outcome,
    unless ``alice_outcome`` (a :class:`BellLabel`) pins every outcome, is
    drawn with probability p_k = sum_j |b_jk|^2.  The n draws are one block
    of ``Generator.random`` doubles from the generator made from ``seed``,
    input i's read through the inverse CDF of its p_k: each outcome is the
    one ``Generator.choice`` picks input by input from that generator.
    Returns ``(outcomes, kets)``: the n outcomes as a tuple of
    :class:`BellLabel`, and the n x 2 x k ``kets``,
    input i's Bob's corrected b_jk / sqrt(p_k) as the columns of ``kets[i]``,
    so his state is ``kets[i] @ kets[i].conj().T``; ``kets`` is the input of
    :func:`ctc_readouts`.  Each ``pairs[i]`` must be finite, with trace
    sum_j ||f_j||^2 within ``TRACE_ATOL`` of 1, and an outcome, pinned or
    drawn, must have p_k above ``TRACE_ATOL``.
    """
    _require(amps, AmplitudePair, "amplitude pair")
    pairs = _complex_array(pairs, "pair factors")
    if pairs.ndim != 3 or pairs.shape[2] != 4 or not len(pairs):
        raise InvariantViolationError(
            f"pair factors must be an n x k x 4 array with n >= 1, got shape {pairs.shape}")
    for i, factor in enumerate(pairs):
        trace = float(np.vdot(factor, factor).real)    # NaN or inf for a non-finite entry
        if not abs(trace - 1.0) <= TRACE_ATOL:
            raise InvariantViolationError(f"pair factor {i} has trace {trace!r}, not 1")
    branches, probabilities = _alice_branches(pairs, amps)
    p = np.add.reduce(probabilities, axis=1)
    if alice_outcome is None:
        # Generator.choice(4, p=row / sum(row)) for each row, from one block of
        # draws: the count of CDF entries at or below the row's uniform draw.
        cdf = np.add.accumulate(p / np.add.reduce(p, axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        ks = np.add.reduce(cdf <= _generator(seed).random(len(p))[:, None], axis=1).tolist()
    else:
        ks = [_OUTCOMES.index(_require(alice_outcome, BellLabel, "Alice outcome"))] * len(p)
    kets = np.empty((len(p), 2, pairs.shape[1]), dtype=complex)
    for i, k in enumerate(ks):
        probability = p[i, k]
        if probability <= TRACE_ATOL:       # zero up to rounding: no ket to normalise
            raise InvariantViolationError(
                f"Alice outcome {_OUTCOMES[k].value} has probability "
                f"{float(probability)!r} for pair factor {i}")
        kets[i] = _CORRECTIONS[k] @ (branches[i, :, k] / math.sqrt(probability)).T
    return tuple([_OUTCOMES[k] for k in ks]), kets


def ctc_readouts(amps: AmplitudePair, kets: np.ndarray,
                 config: SolverConfig | None = None) -> list:
    """Run a stack of Bob's qubits through the CTC stage and read each CR register.

    Input i's qubit is K K^dag for the 2 x k factor K = ``kets[i]``; a ket is
    one column.  One :func:`apply_label_chains` call solves every input from
    its block outputs, and raises as it does.
    Returns one ``(distribution, b1b2, probability, fixed_point)`` per input:
    the :func:`modal_readout` triple of the CR output and its
    :class:`FixedPointResult`.  Degeneracy is the caller's to check.

    The Deutsch reading of an ensemble {(p_i, K_i)} is the shape of ``kets``:
    n inputs, each one K_i, solve every branch on its own (branch-wise); one
    input whose columns are the sqrt(p_i) K_i side by side solves one fixed
    point for the actual state sum_i p_i K_i K_i^dag."""
    _require(amps, AmplitudePair, "amplitude pair")
    kets = _complex_array(kets, "Bob's factors")
    if kets.ndim != 3 or kets.shape[1] != 2:
        raise InvariantViolationError(f"Bob's factors must be n x 2 x k, got shape {kets.shape}")
    with np.errstate(over="ignore", invalid="ignore"):    # non-finite: the stage's trace test
        outputs = block_outputs(amps, kets)
    return [(*modal_readout(cr_out), fixed)
            for cr_out, fixed in apply_label_chains(outputs, config)]


@dataclass(frozen=True, eq=False)
class DiscriminationRecord:
    """Everything observed in one discrimination run."""

    input_bell: BellLabel
    alice_outcome: tuple
    bob_state: np.ndarray
    identified: BellLabel
    outcome_probability: float
    fixed_point: FixedPointResult

    def __post_init__(self):
        if not 0.0 <= self.outcome_probability <= MAX_READOUT_PROBABILITY:
            raise InvariantViolationError(
                f"outcome probability {self.outcome_probability} outside [0, 1]")
        _require(self.identified, BellLabel, "Bell label")

    @property
    def b1b2(self) -> tuple:
        """The CR outcome read out: the identified label's code."""
        return BLOCK_CODES[_OUTCOMES.index(self.identified)]


def discriminate_bells(bells, amps: AmplitudePair, config: SolverConfig | None = None,
                       seed=None, alice_outcome=None) -> list:
    """The full discrimination protocol for each shared Bell pair of the
    sequence ``bells`` (any iterable of labels but a str), with one
    teleportation step and one CTC stage for all of them; the sequence, the
    labels and the pair are checked first.  Alice's outcomes are drawn in
    order from one generator made from ``seed``, unless ``alice_outcome``
    pins them all.  Each record reports the most probable CR value
    (:func:`modal_readout`) and its probability, not an assumed one."""
    _require(amps, AmplitudePair, "amplitude pair")
    labels = _label_tuple(bells, "Bell label sequence")
    if not labels:
        raise InvariantViolationError(f"invalid Bell label sequence {reprlib.repr(bells)}")
    indices = [_OUTCOMES.index(_require(bell, BellLabel, "Bell label")) for bell in labels]
    if amps.is_degenerate:
        raise DegenerateAmplitudesError(
            "discrimination requires alpha != beta and both clear of 0; the four "
            "candidate states coalesce pairwise at alpha = beta and as alpha or beta -> 0")
    outcomes, kets = teleport_and_correct(_BELL_KETS.take(indices, axis=0), amps, seed,
                                          alice_outcome)
    return [DiscriminationRecord(
        input_bell=bell, alice_outcome=ALICE_OUTCOME_BITS[outcome],
        bob_state=_readonly(ket[:, 0].copy()), identified=_OUTCOMES[BLOCK_CODES.index(b1b2)],
        outcome_probability=probability, fixed_point=fixed,
    ) for bell, outcome, ket, (_, b1b2, probability, fixed)
        in zip(labels, outcomes, kets, ctc_readouts(amps, kets, config))]


def discriminate_bell(bell: BellLabel, amps: AmplitudePair,
                      config: SolverConfig | None = None,
                      seed=None, alice_outcome=None) -> DiscriminationRecord:
    """:func:`discriminate_bells` for one shared Bell pair."""
    return discriminate_bells((bell,), amps, config, seed, alice_outcome)[0]


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
    balanced cuts of the Smolin state, and each branch's C:D log-negativity,
    from spectra taken once per process, on first use."""
    records = discriminate_bells(_OUTCOMES, amps, config, seed=seed)
    branches = tuple(BranchOutcome(
        branch=branch, probability=0.25, record=record, message=record.identified,
        cd_fidelity=pure_fidelity(record.identified.state_vector(), branch.state_vector()),
        cd_log_negativity=en,
    ) for branch, record, en in zip(_OUTCOMES, records,
                                    _log_negativities(_bell_spectra())[:, 0].tolist()))
    cuts, spectra = smolin_cuts(), _smolin_spectra()
    return DistillationReport(
        branches=branches,
        baseline_log_negativity=dict(zip(cuts, _log_negativities(spectra).tolist())),
        baseline_ppt=dict(zip(cuts, (spectra[:, 0] >= -PPT_ATOL).tolist())),
        all_identified=all(b.message is b.branch for b in branches),
    )

