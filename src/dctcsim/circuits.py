"""Construction of the interaction unitaries.

The discrimination circuit tells four non-orthogonal single-qubit states
apart with two CTC qubits.  It first swaps the two-qubit CR register with
the two-qubit CTC register, then applies one of four controlled blocks
U_00..U_11 to the CTC register, selected by the computational value of the
CR register.  Each block maps its designated candidate state (x) |0> to the
matching basis state |xy>, up to a global phase.

Each block is U_c = L_c . (R_c (x) I), "." composing right to left: a real
rotation or reflection R_c of the first CTC qubit (table ``_ROTATIONS``),
then a Pauli layer L_c on both CTC qubits.  A circuit is one table of
layers (``_LAYERS``); the ``"literal"`` layers are I (x) I, X (x) X, X (x) I
and I (x) X for c = 00, 01, 10, 11.  Real amplitudes are required; the
blocks are not unitary otherwise.

Escape labels.  With the CTC in basis label c, the CR register reads c after
the swap, so U_c acts on Bob's qubit (x) |0> and leaves the CTC in label c
with the squared overlap of Bob's qubit and candidate c, and otherwise in
one escape label: the image of the candidate's orthogonal complement.  The
CTC fixed points are the stationary distributions of this four-label chain.
The literal blocks escape 00 -> 10, 10 -> 00, 01 -> 11 and 11 -> 01: two
closed 2-cycles that both conserve the ancilla bit ctc2, so the chain has
two stationary states and the fixed-point space is two-dimensional for
every amplitude pair.

The default ``"cycle"`` layer table is the literal one with a zero-controlled
NOT on the CTC ancilla (flip ctc2 when ctc1 is 0) after the layers of U_10
and U_11.  It leaves |10> and |11> alone, so every block still maps its
candidate to its own label, but the escapes become the single cycle
00 -> 10 -> 01 -> 11 -> 00.  The consistent label absorbs and every other
label reaches it along the cycle; the stay probabilities of the others are
(a^2 - b^2)^2, 4 a^2 b^2 and 0, all below 1 for a != b, so the fixed point
is unique and the CR readout deterministic.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateAmplitudesError, InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    I2,
    KET_0,
    KET_1,
    RegisterLayout,
    UnitaryOperator,
    X,
    _readonly,
    kron,
)

NORMALIZATION_ATOL = 1e-12
DEGENERACY_ATOL = 1e-6    # |alpha - beta| at or below this counts as degenerate

BLOCK_CODES = ((0, 0), (0, 1), (1, 0), (1, 1))

# R_c(a, b): the real orthogonal 2x2 each block applies first, to the first CTC qubit.
_ROTATIONS = {
    (0, 0): lambda a, b: [[a, b], [-b, a]],
    (0, 1): lambda a, b: [[b, a], [a, -b]],
    (1, 0): lambda a, b: [[b, a], [-a, b]],
    (1, 1): lambda a, b: [[a, b], [b, -a]],
}

# Flip the CTC ancilla (second qubit) when the first CTC qubit is |0>.
_ZERO_CONTROLLED_NOT = _readonly(
    kron(np.outer(KET_0, KET_0), X) + kron(np.outer(KET_1, KET_1), I2))

# L_c: the Pauli layer each block applies after its rotation, one table per circuit.
_LITERAL_LAYERS = {
    code: _readonly(kron(*paulis))
    for code, paulis in zip(BLOCK_CODES, ((I2, I2), (X, X), (X, I2), (I2, X)))
}
_LAYERS = {
    "cycle": {
        **_LITERAL_LAYERS,
        (1, 0): _readonly(_ZERO_CONTROLLED_NOT @ _LITERAL_LAYERS[(1, 0)]),
        (1, 1): _readonly(_ZERO_CONTROLLED_NOT @ _LITERAL_LAYERS[(1, 1)]),
    },
    "literal": _LITERAL_LAYERS,
}
CIRCUITS = tuple(_LAYERS)


@dataclass(frozen=True)
class AmplitudePair:
    """Real amplitude pair (alpha, beta) with alpha^2 + beta^2 = 1.

    The discrimination protocol requires 0 < alpha != beta < 1; construction
    rejects near-degenerate pairs unless ``allow_degenerate`` is set, which
    is meant for fixed-point-space exploration only.
    """

    alpha: float
    beta: float
    allow_degenerate: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if isinstance(value, complex) or not isinstance(value, numbers.Real):
                raise InvariantViolationError(f"{name} must be a real number")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise InvariantViolationError(
                f"amplitudes must lie strictly between 0 and 1, got "
                f"({self.alpha}, {self.beta})")
        if abs(self.alpha ** 2 + self.beta ** 2 - 1.0) > NORMALIZATION_ATOL:
            raise InvariantViolationError(
                f"alpha^2 + beta^2 = {self.alpha ** 2 + self.beta ** 2!r} deviates from 1")
        if self.is_degenerate and not self.allow_degenerate:
            raise DegenerateAmplitudesError(
                f"|alpha - beta| = {abs(self.alpha - self.beta):.3e} <= "
                f"{DEGENERACY_ATOL}; the protocol needs alpha != beta")

    @classmethod
    def from_alpha(cls, alpha: float, allow_degenerate: bool = False) -> "AmplitudePair":
        if isinstance(alpha, complex) or not isinstance(alpha, numbers.Real):
            raise InvariantViolationError("alpha must be a real number")
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise InvariantViolationError(f"alpha must lie strictly between 0 and 1, got {alpha}")
        return cls(alpha, float(np.sqrt(1.0 - alpha * alpha)), allow_degenerate)

    @property
    def is_degenerate(self) -> bool:
        return abs(self.alpha - self.beta) <= DEGENERACY_ATOL


def _normalize_code(code) -> tuple:
    bits = tuple(map(int, code)) if isinstance(code, str) and set(code) <= {"0", "1"} else code
    if tuple(bits) not in BLOCK_CODES:
        raise InvariantViolationError(f"invalid block code {code!r}")
    return tuple(bits)


def _block_matrix(code, amps: AmplitudePair, circuit: str) -> np.ndarray:
    if circuit not in CIRCUITS:
        raise InvariantViolationError(
            f"unknown circuit {circuit!r}; expected one of {', '.join(CIRCUITS)}")
    code = _normalize_code(code)
    return _LAYERS[circuit][code] @ kron(_ROTATIONS[code](amps.alpha, amps.beta), I2)


def block_unitary(code, amps: AmplitudePair, circuit: str = "cycle") -> UnitaryOperator:
    """One of the four 4x4 controlled blocks, selected by a two-bit code.

    ``circuit`` picks the layer table: ``"cycle"`` (unique fixed point, the
    default) or ``"literal"`` (the bare formulas, two-dimensional fixed-point
    space); see the module docstring.
    """
    return UnitaryOperator(_block_matrix(code, amps, circuit))


def candidate_states(amps: AmplitudePair) -> dict:
    """The four non-orthogonal states the circuit distinguishes, keyed by the
    two-bit outcome that identifies each of them."""
    a, b = amps.alpha, amps.beta
    return {
        (0, 0): np.array([a, b], dtype=complex),      # a|0> + b|1>
        (0, 1): np.array([a, -b], dtype=complex),     # a|0> - b|1>
        (1, 0): np.array([b, a], dtype=complex),      # a|1> + b|0>
        (1, 1): np.array([-b, a], dtype=complex),     # a|1> - b|0>
    }


def register_swap(block_qubits: int) -> UnitaryOperator:
    """Unitary exchanging two adjacent registers of ``block_qubits`` qubits each."""
    if block_qubits < 1:
        raise InvariantViolationError("block_qubits must be >= 1")
    d = 2 ** block_qubits
    swap = np.eye(d * d, dtype=complex).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    return UnitaryOperator(swap.reshape(d * d, d * d))


_REGISTER_SWAP = register_swap(2).matrix


def bhw_interaction(amps: AmplitudePair, circuit: str = "cycle") -> UnitaryOperator:
    """Full 16x16 interaction on (CR1, CR2, CTC1, CTC2): swap the registers,
    then dispatch U_xy of ``circuit`` on the CTC register controlled by the
    CR value |xy>.  Its one unitarity check covers every block."""
    controlled = np.zeros((16, 16), dtype=complex)
    for idx, code in enumerate(BLOCK_CODES):
        controlled[4 * idx:4 * idx + 4, 4 * idx:4 * idx + 4] = _block_matrix(code, amps, circuit)
    return UnitaryOperator(controlled @ _REGISTER_SWAP)


def bhw_layout() -> RegisterLayout:
    """Register layout matching :func:`bhw_interaction`."""
    return RegisterLayout(("cr1", "cr2", "ctc1", "ctc2"), ctc=("ctc1", "ctc2"))


def bell_projectors() -> dict:
    """Rank-2 projectors |B><B| (x) I onto each Bell state of qubits 1,2 of a
    three-qubit register; the four projectors sum to the identity."""
    return {
        name: _readonly(kron(np.outer(vec, vec.conj()), I2))
        for name, vec in BELL_VECTORS.items()
    }
