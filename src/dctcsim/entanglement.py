"""Entanglement diagnostics: partial transpose, logarithmic negativity, PPT
tests, and the four-qubit bound-entangled Smolin state.

Only the PPT criterion is evaluated numerically; it is a necessary condition
for separability, so outputs are labeled "PPT", never "separable".
Log-negativity upper-bounds distillable entanglement, which is why a value of
0 across a cut certifies that nothing can be distilled across it by ordinary
LOCC.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError
from .qmath import (
    BELL_VECTORS,
    DensityOperator,
    RegisterLayout,
    kron,
    trace_norm,
)

PPT_ATOL = 1e-10


@dataclass(frozen=True)
class BipartiteCut:
    """A bipartition of a register into two disjoint, non-empty label sets."""

    side_a: frozenset
    side_b: frozenset

    def __init__(self, side_a, side_b):
        object.__setattr__(self, "side_a", frozenset(side_a))
        object.__setattr__(self, "side_b", frozenset(side_b))
        if not self.side_a or not self.side_b:
            raise InvariantViolationError("both sides of a cut must be non-empty")
        if self.side_a & self.side_b:
            raise InvariantViolationError(
                f"cut sides overlap: {sorted(self.side_a & self.side_b)}")

    def validate_for(self, layout: RegisterLayout) -> None:
        union = self.side_a | self.side_b
        if union != set(layout.labels):
            raise InvariantViolationError(
                f"cut {sorted(self.side_a)}:{sorted(self.side_b)} does not cover "
                f"register {layout.labels}")


def partial_transpose(rho: DensityOperator, layout: RegisterLayout,
                      cut: BipartiteCut) -> np.ndarray:
    """Transpose the indices of ``cut.side_a`` only.  The result is Hermitian
    and trace-one but in general not positive."""
    cut.validate_for(layout)
    if layout.dim != rho.dim:
        raise InvariantViolationError(
            f"layout dimension {layout.dim} does not match operator dimension {rho.dim}")
    n = layout.n_qubits
    positions = layout.positions(sorted(cut.side_a))
    t = rho.matrix.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for p in positions:
        perm[p], perm[n + p] = perm[n + p], perm[p]
    return t.transpose(perm).reshape(rho.dim, rho.dim)


def log_negativity(rho: DensityOperator, layout: RegisterLayout,
                   cut: BipartiteCut) -> float:
    """log2 of the trace norm of the partial transpose across the cut."""
    return float(np.log2(trace_norm(partial_transpose(rho, layout, cut))))


def is_ppt(rho: DensityOperator, layout: RegisterLayout, cut: BipartiteCut) -> bool:
    """True when the partial transpose has no eigenvalue below ``-PPT_ATOL``."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho, layout, cut))
    return bool(eigenvalues.min() >= -PPT_ATOL)


def distillable_upper_bound(rho: DensityOperator, layout: RegisterLayout,
                            cut: BipartiteCut) -> float:
    """Upper bound on the distillable entanglement across the cut.

    Distillable entanglement is non-negative and bounded above by the
    log-negativity, so the reportable interval is [0, max(E_N, 0)]; only the
    upper endpoint is returned, clamped against float noise in E_N.
    """
    return max(0.0, log_negativity(rho, layout, cut))


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


def smolin_layout() -> RegisterLayout:
    return RegisterLayout(("A", "B", "C", "D"))


def smolin_cuts() -> dict:
    """The three balanced bipartitions of the Smolin register."""
    return {
        "AB:CD": BipartiteCut(("A", "B"), ("C", "D")),
        "AC:BD": BipartiteCut(("A", "C"), ("B", "D")),
        "AD:BC": BipartiteCut(("A", "D"), ("B", "C")),
    }
