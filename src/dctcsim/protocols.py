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
The spectra of the constant states (the Smolin baseline) are taken once per
process, on first use (:mod:`dctcsim.entanglement`).

The CTC stage is simulated branch-wise: the self-consistency map is
nonlinear in the CR input, so convex mixtures cannot be pushed through the
solver; each pure branch is solved on its own.  An improper-mixture run
(one input whose factor holds every branch as a column) is an experimental
variant with no correctness claim; it shows how the nonlinearity breaks
when the branch identity is discarded.
"""

import enum
import math
import reprlib
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import AmplitudePair, BLOCK_CODES, _PAULI_ERRORS, block_outputs
from .deutsch import FixedPointResult, SolverConfig, apply_label_chains
from .entanglement import (
    PPT_ATOL,
    BipartiteCut,
    _log_negativities,
    _pt_spectra,
    _smolin_spectra,
    smolin_cuts,
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
    _readonly,
    _require,
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
        try:
            return cls(name)
        except ValueError:
            raise InvariantViolationError(f"unknown Bell label {name!r}") from None

    @classmethod
    def from_b1b2(cls, b1: int, b2: int) -> "BellLabel":
        if not (isinstance(b1, (int, np.integer)) and isinstance(b2, (int, np.integer))
                and not isinstance(b1, bool) and not isinstance(b2, bool)
                and (b1, b2) in BLOCK_CODES):
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

# Each Bell pair as a 1 x 4 factor, in BellLabel order; Alice's Bell measurement
# (row k: the conjugated Bell vector of outcome k).
_BELL_KETS = _readonly(np.array([[label.state_vector()] for label in _OUTCOMES]))
_BELL_BRAS = _BELL_KETS[:, 0].conj()
_CD_LOG_NEGATIVITIES = _log_negativities(_pt_spectra(    # each C:D Bell pair, in BellLabel order
    [DensityOperator.from_state_vector(ket) for ket in _BELL_KETS[:, 0]],
    RegisterLayout(("C", "D")), (BipartiteCut(("C",), ("D",)),)))[:, 0].tolist()


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
    two-qubit ket ``pair`` (Alice's half first) or a stack of them along
    leading axes.  Returns ``(branches, probabilities)``: row k of the 4x2
    ``branches`` is Bob's unnormalised, uncorrected qubit for outcome k
    (``BellLabel`` order) and ``probabilities[k]`` is its squared norm; a
    stack adds its leading axes."""
    psi = np.array([amps.alpha, amps.beta], dtype=complex)
    full = (psi[:, None] * pair[..., None, :]).reshape(*pair.shape[:-1], 4, 2)
    branches = _BELL_BRAS @ full
    # np.linalg.norm(branches, axis=-1) ** 2, the same operations without its dispatch
    return branches, np.sqrt((branches.conj() * branches).real.sum(axis=-1)) ** 2


def teleport_and_correct(pairs, amps: AmplitudePair, seed=None, alice_outcome=None) -> tuple:
    """Alice's Bell measurement on psi (x) rho_AB, then Bob's correction, for
    a stack of pair states in one call.

    Input i's rho_AB = sum_j f_j f_j^dag for the rows f_j of the k x 4 factor
    ``pairs[i]`` (``pairs`` is n x k x 4), Alice's qubit first.  Its outcome,
    unless ``alice_outcome`` (a :class:`BellLabel`) pins every outcome, is
    drawn with probability p_k = sum_j |b_jk|^2, input by input from one
    generator made from ``seed``.  Returns ``(outcomes, kets)``: the n
    outcomes as a tuple of :class:`BellLabel`, and the n x 2 x k ``kets``,
    input i's Bob's corrected b_jk / sqrt(p_k) as the columns of ``kets[i]``,
    so his state is ``kets[i] @ kets[i].conj().T``; ``kets`` is the input of
    :func:`ctc_readouts`.  Each ``pairs[i]`` must be finite, with trace
    sum_j ||f_j||^2 within ``TRACE_ATOL`` of 1, and an outcome, pinned or
    drawn, must have p_k above ``TRACE_ATOL``.
    """
    _require(amps, AmplitudePair, "amplitude pair")
    pairs = _complex_array(pairs, "pair factors")
    if pairs.ndim != 3 or pairs.shape[2] != 4:
        raise InvariantViolationError(
            f"pair factors must be an n x k x 4 array, got shape {pairs.shape}")
    for i, factor in enumerate(pairs):
        trace = float(np.vdot(factor, factor).real)    # NaN or inf for a non-finite entry
        if not abs(trace - 1.0) <= TRACE_ATOL:
            raise InvariantViolationError(f"pair factor {i} has trace {trace!r}, not 1")
    branches, probabilities = _alice_branches(pairs, amps)
    p = probabilities.sum(axis=1)
    if alice_outcome is None:
        rng = _generator(seed)
        ks = [rng.choice(4, p=row / row.sum()) for row in p]
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
    :class:`FixedPointResult`.  Degeneracy is the caller's to check."""
    _require(amps, AmplitudePair, "amplitude pair")
    kets = _complex_array(kets, "Bob's factors")
    if kets.ndim != 3 or kets.shape[1] != 2:
        raise InvariantViolationError(f"Bob's factors must be n x 2 x k, got shape {kets.shape}")
    return [(*modal_readout(cr_out), fixed)
            for cr_out, fixed in apply_label_chains(block_outputs(amps, kets), config)]


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
    sequence ``bells``, with one teleportation step and one CTC stage for all
    of them; the labels and the pair are checked first.  Alice's outcomes are
    drawn in order from one generator made from ``seed``, unless
    ``alice_outcome`` pins them all.  Each record reports the most probable
    CR value (:func:`modal_readout`) and its probability, not an assumed one."""
    _require(amps, AmplitudePair, "amplitude pair")
    if isinstance(bells, str):          # iterable, but of characters, not labels
        raise InvariantViolationError(f"invalid Bell label sequence {reprlib.repr(bells)}")
    bells = tuple(_require(bell, BellLabel, "Bell label")
                  for bell in _require(bells, Iterable, "Bell label sequence"))
    if amps.is_degenerate:
        raise DegenerateAmplitudesError(
            "discrimination requires alpha != beta and both clear of 0; the four "
            "candidate states coalesce pairwise at alpha = beta and as alpha or beta -> 0")
    pairs = _BELL_KETS.take([_OUTCOMES.index(bell) for bell in bells], axis=0)
    outcomes, kets = teleport_and_correct(pairs, amps, seed, alice_outcome)
    return [DiscriminationRecord(
        input_bell=bell, alice_outcome=ALICE_OUTCOME_BITS[outcome],
        bob_state=as_state_vector(ket[:, 0]), identified=BellLabel.from_b1b2(*b1b2),
        outcome_probability=probability, fixed_point=fixed,
    ) for bell, outcome, ket, (_, b1b2, probability, fixed)
        in zip(bells, outcomes, kets, ctc_readouts(amps, kets, config))]


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
    balanced cuts of the Smolin state, from their spectra, taken once per
    process on first use; the four C:D log-negativities are computed once,
    at import."""
    records = discriminate_bells(_OUTCOMES, amps, config, seed=seed)
    branches = tuple(BranchOutcome(
        branch=branch, probability=0.25, record=record, message=record.identified,
        cd_fidelity=pure_fidelity(record.identified.state_vector(), branch.state_vector()),
        cd_log_negativity=en,
    ) for branch, record, en in zip(_OUTCOMES, records, _CD_LOG_NEGATIVITIES))
    cuts, spectra = smolin_cuts(), _smolin_spectra()
    return DistillationReport(
        branches=branches,
        baseline_log_negativity=dict(zip(cuts, _log_negativities(spectra).tolist())),
        baseline_ppt=dict(zip(cuts, (spectra[:, 0] >= -PPT_ATOL).tolist())),
        all_identified=all(b.message is b.branch for b in branches),
    )


@dataclass(frozen=True)
class ImproperMixtureRecord:
    """Result of pushing the unconditioned AB marginal through the CTC stage.
    Experimental, no correctness claim: discarding the branch identity hands
    the solver the maximally mixed Bob qubit, and the CR readout carries no
    information about the original pair."""

    alice_outcome: tuple
    bob_state: DensityOperator
    cr_distribution: tuple
    modal_b1b2: tuple
    modal_probability: float
    fixed_point: FixedPointResult


def run_improper_mixture(amps: AmplitudePair, config: SolverConfig | None = None,
                         seed=None) -> ImproperMixtureRecord:
    """Teleport psi through the Smolin AB marginal as its four Bell branches,
    sum_k |B_k><B_k| / 4 (Alice's outcome drawn from ``seed``), and run Bob's
    four-column factor through :func:`ctc_readouts` as one input: a stack
    of one for :func:`teleport_and_correct` and the CTC stage."""
    _require(amps, AmplitudePair, "amplitude pair")
    if amps.is_degenerate:
        raise DegenerateAmplitudesError("improper-mixture run requires a non-degenerate pair")
    (outcome,), kets = teleport_and_correct(_BELL_KETS.transpose(1, 0, 2) / 2, amps, seed)
    distribution, b1b2, probability, fixed = ctc_readouts(amps, kets, config)[0]
    return ImproperMixtureRecord(
        alice_outcome=ALICE_OUTCOME_BITS[outcome],
        bob_state=DensityOperator(kets[0] @ kets[0].conj().T),
        cr_distribution=distribution, modal_b1b2=b1b2, modal_probability=probability,
        fixed_point=fixed,
    )
