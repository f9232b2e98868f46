"""Construction of the interaction unitaries.

The discrimination circuit, after Brun, Harrington & Wilde (PRL 102, 210402,
2009), tells four non-orthogonal single-qubit states apart with two CTC
qubits.  It swaps the two-qubit CR register with the two-qubit CTC register,
then applies one of four blocks U_00..U_11 to the CTC register, selected by
the computational value of the CR register.  Each block maps its candidate
state (x) |0> to the basis state |xy>, up to a global phase.  Candidate c is
E_c psi, for psi = a|0> + b|1> and the Pauli error E_c (``_PAULI_ERRORS``).

Each block is U_c = L_c . (R_c (x) I), composed right to left: a real
rotation or reflection R_c of the first CTC qubit (``_ROTATION_TABLE``), then a
layer L_c on both CTC qubits (``_LAYERS``), which for c = 1x ends with a
zero-controlled NOT on the CTC ancilla ctc2.  Each four-entry table is in
``BLOCK_CODES`` order; ``_blocks`` forms the stack of the four U_c, and
nothing else forms them.  Amplitudes must be real; the blocks are not unitary
otherwise.

With the CTC in label c, the CR register reads c after the swap, so U_c keeps
the CTC in label c with the squared overlap of Bob's qubit and candidate c,
and otherwise sends it to one escape label.  The CTC fixed points are the
stationary distributions of this four-label chain.  Its escapes form the
single cycle 00 -> 10 -> 01 -> 11 -> 00, and the other labels stay with
probabilities (a^2 - b^2)^2, 4 a^2 b^2 and 0, below 1 unless the pair is
degenerate, so the consistent label is the only stationary state and the CR
readout is deterministic.  Without the zero-controlled NOT (the bare block
formulas) the escapes 00 -> 10 -> 00 and 01 -> 11 -> 01 form two closed cycles
that conserve ctc2: a two-dimensional fixed-point space, whose solve from I/4
reads the right label with probability 0.5.  The NOT fixes |10> and |11>.
"""

import math
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    I2,
    KET_0,
    KET_1,
    RegisterLayout,
    UNIT_EIGENVALUE_ATOL,
    UnitaryOperator,
    X,
    Z,
    _is_real,
    _readonly,
    _require,
    kron,
)

NORMALIZATION_ATOL = 1e-12
# A pair is degenerate when the discrimination channel's second eigenvalue,
# which sits min((a^2 - b^2)^2, 4 a^2 b^2) below 1, falls in the
# UNIT_EIGENVALUE_ATOL window (|a - b| <~ 1e-6).

BLOCK_CODES = ((0, 0), (0, 1), (1, 0), (1, 1))

# R_c(a, b), the real orthogonal 2x2 each block applies first to the first CTC qubit, as indices
# into (a, b, -a, -b): [[a, b], [-b, a]], [[b, a], [a, -b]], [[b, a], [-a, b]], [[a, b], [b, -a]].
_ROTATION_TABLE = np.array([[[0, 1], [3, 0]], [[1, 0], [0, 3]], [[1, 0], [2, 1]], [[0, 1], [1, 2]]])

# Flip the CTC ancilla (second qubit) when the first CTC qubit is |0>.
_ZERO_CONTROLLED_NOT = _readonly(
    kron(np.outer(KET_0, KET_0), X) + kron(np.outer(KET_1, KET_1), I2))

# L_c: the layer each block applies after its rotation, stacked in BLOCK_CODES order.
_LAYERS = _readonly(np.stack([kron(I2, I2), kron(X, X), _ZERO_CONTROLLED_NOT @ kron(X, I2),
                              _ZERO_CONTROLLED_NOT @ kron(I2, X)]))

# Columns of each layer on a |0> CTC ancilla: L_c (x (x) |0>) = _LAYERS_ON_ANCILLA_0[c] @ x.
_LAYERS_ON_ANCILLA_0 = _readonly(_LAYERS[:, :, ::2].copy())

# E_c: the Pauli error that turns psi into candidate c, in BLOCK_CODES order.  It is also
# the residual error Bob's corrected qubit carries when the shared pair is BellLabel c.
_PAULI_ERRORS = (I2, Z, X, _readonly(X @ Z))


def _amplitude(value, name: str) -> float:
    """``value`` as a float; a non-real, or a real past the float range, is a typed error."""
    if not _is_real(value):
        raise InvariantViolationError(f"{name} must be a real number")
    try:
        return float(value)
    except OverflowError:
        raise InvariantViolationError(
            f"{name} must lie strictly between 0 and 1, got {reprlib.repr(value)}") from None


@dataclass(frozen=True)
class AmplitudePair:
    """Real amplitude pair (alpha, beta) with 0 < alpha, beta < 1 and alpha^2 + beta^2 = 1.

    ``is_degenerate`` says whether the four candidate states merge in pairs
    (alpha ~ beta, or alpha or beta ~ 0); the protocols that need alpha != beta refuse it."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _amplitude(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _amplitude(self.beta, "beta"))
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise InvariantViolationError(
                f"amplitudes must lie strictly between 0 and 1, got "
                f"({self.alpha}, {self.beta})")
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > NORMALIZATION_ATOL:
            raise InvariantViolationError(
                f"alpha^2 + beta^2 = {self.alpha ** 2 + self.beta ** 2!r} deviates from 1")

    @classmethod
    def from_alpha(cls, alpha: float) -> "AmplitudePair":
        alpha = _amplitude(alpha, "alpha")
        if not 0.0 < alpha < 1.0:
            raise InvariantViolationError(f"alpha must lie strictly between 0 and 1, got {alpha}")
        return cls(alpha, math.sqrt(1.0 - alpha * alpha))

    @property
    def is_degenerate(self) -> bool:
        a2, b2 = self.alpha ** 2, self.beta ** 2
        return min((a2 - b2) ** 2, 4 * a2 * b2) <= UNIT_EIGENVALUE_ATOL


def _rotations(amps: AmplitudePair) -> np.ndarray:
    return np.array((amps.alpha, amps.beta, -amps.alpha, -amps.beta), complex)[_ROTATION_TABLE]


def _blocks(amps: AmplitudePair) -> np.ndarray:
    """The four blocks U_c = L_c (R_c (x) I), stacked in ``BLOCK_CODES`` order."""
    _require(amps, AmplitudePair, "amplitude pair")
    return _LAYERS @ np.kron(_rotations(amps), I2)


def block_unitary(code, amps: AmplitudePair) -> UnitaryOperator:
    """One of the four 4x4 controlled blocks, selected by a code in ``BLOCK_CODES``."""
    if not (isinstance(code, tuple)
            and all(isinstance(bit, int) and not isinstance(bit, bool) for bit in code)
            and code in BLOCK_CODES):
        raise InvariantViolationError(f"invalid block code {code!r}")
    return UnitaryOperator(_blocks(amps)[BLOCK_CODES.index(code)])


def block_outputs(amps: AmplitudePair, kets: np.ndarray) -> np.ndarray:
    """Every block applied to every column of ``kets`` (2 x k) with a |0>
    ancilla: ``out[c, :, j] = U_c (kets[:, j] (x) |0>)`` for c in
    ``BLOCK_CODES`` order; a stack of factors (n x 2 x k) adds a leading
    axis.  Each rotation acts on the qubit and each layer contributes only
    its ancilla-|0> columns, so no 4x4 block is formed."""
    return _LAYERS_ON_ANCILLA_0 @ (_rotations(amps) @ kets[..., None, :, :])


def candidate_states(amps: AmplitudePair) -> dict:
    """The four non-orthogonal states E_c psi the circuit distinguishes, for
    psi = a|0> + b|1>, keyed by the two-bit outcome c that identifies each."""
    _require(amps, AmplitudePair, "amplitude pair")
    psi = np.array([amps.alpha, amps.beta], dtype=complex)
    return {code: error @ psi for code, error in zip(BLOCK_CODES, _PAULI_ERRORS)}


def register_swap(block_qubits: int) -> UnitaryOperator:
    """Unitary exchanging two adjacent registers of ``block_qubits`` qubits each."""
    if (isinstance(block_qubits, bool) or not isinstance(block_qubits, numbers.Integral)
            or not 1 <= block_qubits <= 4):          # refused before any allocation
        raise InvariantViolationError(
            f"invalid block size {block_qubits!r}: need an int from 1 to 4")
    d = 2 ** block_qubits
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return UnitaryOperator(swap.reshape(d * d, d * d))


def bhw_interaction(amps: AmplitudePair) -> UnitaryOperator:
    """Full 16x16 interaction on (CR1, CR2, CTC1, CTC2): swap the registers,
    then dispatch U_xy on the CTC register controlled by the CR value |xy>.
    The swap reorders the column axes of the controlled blocks; the one
    unitarity check covers every block."""
    controlled = np.zeros((4, 4, 4, 4), dtype=complex)
    controlled[range(4), :, range(4)] = _blocks(amps)
    return UnitaryOperator(controlled.transpose(0, 1, 3, 2).reshape(16, 16))


def bhw_layout() -> RegisterLayout:
    """Register layout matching :func:`bhw_interaction`."""
    return RegisterLayout(("cr1", "cr2", "ctc1", "ctc2"), ctc=("ctc1", "ctc2"))


def bell_projectors() -> dict:
    """Rank-2 projectors |B><B| (x) I onto each Bell state of qubits 1,2 of a
    three-qubit register, as read-only arrays; the four projectors sum to
    the identity."""
    return {name: _readonly(kron(np.outer(vec, vec.conj()), I2))
            for name, vec in BELL_VECTORS.items()}
