"""Dense complex linear algebra and quantum primitives.

Everything here operates on plain ``numpy`` arrays of ``complex128``.  States
and operators never exceed a few qubits (16x16), so dense storage and exact
double precision are used throughout.  Qubit ordering convention: the leftmost
symbol of a ket is the most significant bit of the basis index, e.g.
``|10>`` is basis index 2.

All values are immutable after construction; stored arrays are marked
read-only and every function is pure.
"""

import math
import numbers
import reprlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError

# Construction tolerances (max elementwise unless stated otherwise).
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-10          # lowest admissible eigenvalue of a density operator
STATE_NORM_ATOL = 1e-12
UNITARITY_ATOL = 1e-10
UNIT_EIGENVALUE_ATOL = 2e-12  # an eigenvalue of a CTC channel this close to 1 counts as 1


def _complex_array(x, name: str) -> np.ndarray:
    """``np.asarray(x, dtype=complex)``, with non-numeric input as a typed error."""
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvariantViolationError(f"cannot read {name} as a complex array: {exc}") from exc


def _square_matrix(m, name: str = "matrix") -> np.ndarray:
    """``m`` as a finite square complex matrix, checked in that order."""
    a = _complex_array(m, name)
    if a.ndim != 2:
        raise InvariantViolationError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvariantViolationError(f"{name} contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise InvariantViolationError(f"{name} must be square, got shape {a.shape}")
    return a


def _require(value, kind, what: str):
    """``value`` if it is a ``kind``, else an ``InvariantViolationError`` naming ``what``."""
    if not isinstance(value, kind):
        raise InvariantViolationError(f"invalid {what} {reprlib.repr(value)}")
    return value


def _is_real(value) -> bool:
    """True for a real number, False for a complex one or a non-number.  A float
    or an int is answered before the ``numbers.Real`` ABC check, which costs far
    more on a cold cache; every discrimination builds an ``AmplitudePair`` and
    every CLI run a ``SolverConfig``."""
    return isinstance(value, (float, int)) or (
        not isinstance(value, complex) and isinstance(value, numbers.Real))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def kron(*matrices) -> np.ndarray:
    """Kronecker product of one or more matrices (or vectors), left to right."""
    if not matrices:
        raise InvariantViolationError("kron needs at least one factor")
    out = _complex_array(matrices[0], "kron factor")
    for m in matrices[1:]:
        out = np.kron(out, _complex_array(m, "kron factor"))
    return out


def as_state_vector(v) -> np.ndarray:
    """Validate and return a normalized state vector (copy, read-only)."""
    a = _complex_array(v, "state vector").reshape(-1).copy()
    dim = a.size
    if dim < 1 or dim & (dim - 1):
        raise InvariantViolationError(f"state dimension {dim} is not a power of 2")
    # One real dot of the (re, im) pairs: inf, not NaN, for an infinite entry; no warning.
    norm = math.sqrt(np.vdot(a.view(float), a.view(float)))
    if not abs(norm - 1.0) <= STATE_NORM_ATOL:        # NaN fails too
        raise InvariantViolationError(f"state vector norm {norm!r} deviates from 1")
    return _readonly(a)


def trace_norm(m) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    a = _square_matrix(m)
    return float(np.linalg.svd(a, compute_uv=False).sum())


# --- constants -------------------------------------------------------------

I2 = _readonly(np.eye(2, dtype=complex))
X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))

_S2 = 1.0 / np.sqrt(2.0)
PHI_PLUS = _readonly(np.array([_S2, 0, 0, _S2], dtype=complex))
PHI_MINUS = _readonly(np.array([_S2, 0, 0, -_S2], dtype=complex))
PSI_PLUS = _readonly(np.array([0, _S2, _S2, 0], dtype=complex))
PSI_MINUS = _readonly(np.array([0, _S2, -_S2, 0], dtype=complex))

BELL_VECTORS: Mapping[str, np.ndarray] = {
    "phi+": PHI_PLUS,
    "phi-": PHI_MINUS,
    "psi+": PSI_PLUS,
    "psi-": PSI_MINUS,
}

KET_0 = _readonly(np.array([1, 0], dtype=complex))
KET_1 = _readonly(np.array([0, 1], dtype=complex))


# --- validated operators and register layouts -----------------------------

class _CheckedOperator:
    """Read-only square matrix whose invariants the subclass checks once."""

    __slots__ = ("_matrix",)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class UnitaryOperator(_CheckedOperator):
    """Square complex matrix with U^dag U = I within 1e-10 (max elementwise)."""

    __slots__ = ()

    def __init__(self, matrix):
        a = _square_matrix(matrix, "unitary")
        if not a.size:
            raise InvariantViolationError(f"unitary must be at least 1 x 1, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):    # inf or NaN fails the check
            defect = np.abs(a.conj().T @ a - np.eye(a.shape[0])).max()
        if not defect <= UNITARITY_ATOL:
            raise InvariantViolationError(
                f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")
        self._matrix = _readonly(a.copy())


class DensityOperator(_CheckedOperator):
    """Hermitian, positive-semidefinite, trace-one operator on n qubits.

    Invariants are checked at construction: Hermiticity within 1e-12 (max
    elementwise), trace within 1e-12 of 1, and lowest eigenvalue >= -1e-10.
    """

    __slots__ = ()

    def __init__(self, matrix):
        a = _square_matrix(matrix, "density matrix")
        error = _density_errors(a[None], np.linalg.eigvalsh(a)[:1])[0]
        if error is not None:
            raise InvariantViolationError(error)
        self._matrix = _readonly(a.copy())

    @classmethod
    def _checked(cls, a: np.ndarray) -> "DensityOperator":
        """Wrap ``a``, a read-only matrix that passed :func:`_density_errors`, unchecked."""
        operator = object.__new__(cls)
        operator._matrix = a
        return operator

    @classmethod
    def from_state_vector(cls, v) -> "DensityOperator":
        a = as_state_vector(v)
        return cls(np.outer(a, a.conj()))


def _density_errors(a: np.ndarray, lowest: np.ndarray) -> list:
    """For each matrix of the finite stack ``a`` (n x d x d), the message of
    the first density-operator check it fails, or None.  In order: a
    power-of-2 dimension, Hermitian, trace, and the lowest eigenvalue,
    ``lowest[i]`` for ``a[i]``, which the caller takes (``eigvalsh``), so that
    one call can serve more than these checks."""
    n, dim = a.shape[:2]
    if dim < 1 or dim & (dim - 1):
        return [f"density dimension {dim} is not a power of 2"] * n
    herm = np.maximum.reduce(np.abs(a - a.conj().transpose(0, 2, 1)), axis=(1, 2))
    traces = a.trace(axis1=1, axis2=2)
    return [f"density matrix not Hermitian: max |rho - rho^dag| = {herm[i]:.3e}"
            if h > HERMITICITY_ATOL else
            f"density matrix trace {t!r} deviates from 1"
            if abs(t - 1.0) > TRACE_ATOL else
            f"density matrix not positive semidefinite: min eigenvalue {low:.3e}"
            if low < -PSD_ATOL else None
            for i, (h, t, low) in enumerate(zip(herm.tolist(), traces.tolist(), lowest.tolist()))]


def _label_tuple(labels, what: str) -> tuple:
    """The iterable ``labels`` as a tuple; a bare str, which iterates
    characters, not labels, is a typed error."""
    if isinstance(labels, str) or not isinstance(labels, Iterable):
        raise InvariantViolationError(f"invalid {what} {reprlib.repr(labels)}")
    return tuple(labels)


def _label_set(labels, what: str) -> frozenset:
    """:func:`_label_tuple` as a frozenset; an unhashable label is a typed error."""
    try:
        return frozenset(_label_tuple(labels, what))
    except TypeError:
        raise InvariantViolationError(f"invalid {what} {reprlib.repr(labels)}") from None


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered qubit labels, each assigned to the chronology-respecting (CR)
    or CTC part of the register."""

    labels: tuple
    ctc: frozenset

    def __init__(self, labels: Iterable[str], ctc: Iterable[str] = ()):
        labels = _label_tuple(labels, "qubit labels")
        distinct, ctc = _label_set(labels, "qubit labels"), _label_set(ctc, "CTC labels")
        if not labels:
            raise InvariantViolationError("layout needs at least one qubit label")
        if len(distinct) != len(labels):
            raise InvariantViolationError(f"duplicate qubit labels in {labels}")
        unknown = ctc - distinct
        if unknown:
            raise InvariantViolationError(f"CTC labels {sorted(unknown)} not in layout")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ctc", ctc)

    @property
    def cr_labels(self) -> tuple:
        return tuple(lbl for lbl in self.labels if lbl not in self.ctc)

    @property
    def ctc_labels(self) -> tuple:
        return tuple(lbl for lbl in self.labels if lbl in self.ctc)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def positions(self, labels: Iterable[str]) -> tuple:
        index = {lbl: i for i, lbl in enumerate(self.labels)}
        out = []
        for lbl in _label_tuple(labels, "qubit labels"):
            if lbl not in index:
                raise InvariantViolationError(f"unknown qubit label {lbl!r}")
            out.append(index[lbl])
        return tuple(out)
