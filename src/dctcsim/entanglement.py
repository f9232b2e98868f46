"""Entanglement diagnostics: partial transpose, logarithmic negativity, PPT
tests, and the four-qubit bound-entangled Smolin state.

Every measure is read from one primitive, :func:`_pt_spectra`: the spectra
of the partial transposes of a stack of states across one or more cuts, from
one ``eigvalsh``; the spectra of the constant states the experiments report
(the Smolin state's cuts and the four Bell pairs) are taken once per
process, on first use, never at import.  PPT is necessary for separability,
so outputs say "PPT", never "separable".  E_N upper-bounds distillable
entanglement, so 0 across a cut certifies that LOCC distils nothing across
it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    DensityOperator,
    RegisterLayout,
    _label_set,
    _readonly,
    _require,
    kron,
)

PPT_ATOL = 1e-10


@dataclass(frozen=True)
class BipartiteCut:
    """A bipartition of a register into two disjoint, non-empty label sets."""

    side_a: frozenset
    side_b: frozenset

    def __init__(self, side_a, side_b):
        object.__setattr__(self, "side_a", _label_set(side_a, "cut side labels"))
        object.__setattr__(self, "side_b", _label_set(side_b, "cut side labels"))
        if not self.side_a or not self.side_b:
            raise InvariantViolationError("both sides of a cut must be non-empty")
        if self.side_a & self.side_b:
            raise InvariantViolationError(
                f"cut sides overlap: {sorted(self.side_a & self.side_b)}")


def _partial_transposes(states, layout: RegisterLayout, cuts) -> np.ndarray:
    """The partial transpose of each :class:`DensityOperator` of ``states``
    across each cut of ``cuts`` that covers ``layout``, shape (states, cuts,
    dim, dim).  A cut swaps the row axis q and the column axis q + n of each
    ``side_a`` qubit q: the one index permutation of this module."""
    n, perms = _require(layout, RegisterLayout, "register layout").n_qubits, []
    for cut in cuts:
        if _require(cut, BipartiteCut, "bipartite cut").side_a | cut.side_b != set(layout.labels):
            raise InvariantViolationError(f"cut {sorted(cut.side_a)}:{sorted(cut.side_b)} "
                                          f"does not cover register {layout.labels}")
        side = set(layout.positions(cut.side_a))
        perms.append([0] + [1 + (q + n) % (2 * n) if q % n in side else 1 + q
                            for q in range(2 * n)])     # axis 0 is the stack
    for rho in states:
        if _require(rho, DensityOperator, "density operator").dim != layout.dim:
            raise InvariantViolationError(
                f"layout dimension {layout.dim} does not match operator dimension {rho.dim}")
    t = np.array([rho.matrix for rho in states]).reshape(-1, *[2] * (2 * n))
    return np.stack([t.transpose(perm) for perm in perms], axis=1).reshape(
        len(t), len(perms), layout.dim, layout.dim)


def _pt_spectra(states, layout: RegisterLayout, cuts) -> np.ndarray:
    """Ascending eigenvalues of each of :func:`_partial_transposes`, from one
    ``eigvalsh``: shape (states, cuts, dim).  PPT is ``[..., 0] >= -PPT_ATOL``."""
    return np.linalg.eigvalsh(_partial_transposes(states, layout, cuts))


def _log_negativities(spectra: np.ndarray) -> np.ndarray:
    """E_N = log2 ||rho^T_A||_1 = log1p(2N) / ln 2, N the sum of |negative
    eigenvalues|: a partial transpose has trace 1, so its trace norm, the
    sum of |eigenvalues|, is 1 + 2N.  Read from N alone, E_N is never below
    0, and it is exactly 0 for a spectrum with no negative eigenvalue, where
    log2 of the sum could read rounding dust below 1 as a negative E_N.
    N sums |min(eigenvalue, 0)|: its negation would make that 0 a -0.0."""
    return np.log1p(2.0 * np.abs(np.minimum(spectra, 0.0)).sum(axis=-1)) / np.log(2.0)


def partial_transpose(rho: DensityOperator, layout: RegisterLayout,
                      cut: BipartiteCut) -> np.ndarray:
    """Transpose the indices of ``cut.side_a`` only.  The result is Hermitian
    and trace-one but in general not positive."""
    return _partial_transposes((rho,), layout, (cut,))[0, 0]


def log_negativity(rho: DensityOperator, layout: RegisterLayout,
                   cut: BipartiteCut) -> float:
    """log2 of the trace norm of the partial transpose across the cut."""
    return float(_log_negativities(_pt_spectra((rho,), layout, (cut,)))[0, 0])


def is_ppt(rho: DensityOperator, layout: RegisterLayout, cut: BipartiteCut) -> bool:
    """True when the partial transpose has no eigenvalue below ``-PPT_ATOL``."""
    return bool(_pt_spectra((rho,), layout, (cut,))[0, 0, 0] >= -PPT_ATOL)


@functools.cache
def smolin_state() -> DensityOperator:
    """Equal mixture of the four matched Bell-pair products on qubits
    (A, B, C, D): 1/4 sum_B |B><B|_AB (x) |B><B|_CD.

    The state is permutation invariant, PPT across the cuts AB:CD, AC:BD and
    AD:BC, yet one shared Bell pair can be unlocked from it.  It is built
    once per process; the operator and its matrix are read-only.
    """
    mat = np.zeros((16, 16), dtype=complex)
    for vec in BELL_VECTORS.values():
        pair = np.outer(vec, vec.conj())
        mat += kron(pair, pair)
    return DensityOperator(mat / 4.0)


@functools.cache
def _smolin_spectra() -> np.ndarray:
    """:func:`_pt_spectra` of the Smolin state across the cuts of
    :func:`smolin_cuts`, in their order (3 x 16): taken once per process, on
    first use, and read-only."""
    return _readonly(_pt_spectra((smolin_state(),), smolin_layout(),
                                 tuple(smolin_cuts().values()))[0])


@functools.cache
def _bell_spectra() -> np.ndarray:
    """:func:`_pt_spectra` of the four Bell pairs (phi+, phi-, psi+, psi-, the
    ``BellLabel`` order) across their 1:1 cut (4 x 1 x 4), their density
    checks included: taken once per process, on first use, and read-only."""
    return _readonly(_pt_spectra([DensityOperator.from_state_vector(v)
                                  for v in BELL_VECTORS.values()],
                                 RegisterLayout(("A", "B")), (BipartiteCut(("A",), ("B",)),)))


def smolin_layout() -> RegisterLayout:
    return RegisterLayout(("A", "B", "C", "D"))


def smolin_cuts() -> dict:
    """The three balanced bipartitions of the Smolin register."""
    return {
        "AB:CD": BipartiteCut(("A", "B"), ("C", "D")),
        "AC:BD": BipartiteCut(("A", "C"), ("B", "D")),
        "AD:BC": BipartiteCut(("A", "D"), ("B", "C")),
    }
