"""Partial transpose, log-negativity, PPT checks, and the Smolin state."""

import numpy as np
import pytest

from dctcsim import (
    BipartiteCut,
    DensityOperator,
    InvariantViolationError,
    RegisterLayout,
    distillable_upper_bound,
    is_ppt,
    kron,
    log_negativity,
    partial_trace,
    partial_transpose,
    smolin_cuts,
    smolin_layout,
    smolin_state,
    trace_norm,
)
from dctcsim.qmath import PHI_PLUS

from oracles import pt_brute, qubit_swap, random_density, smolin_pauli_form

TWO_QUBITS = RegisterLayout(("A", "B"))
CUT_AB = BipartiteCut(("A",), ("B",))


class TestBipartiteCut:
    def test_rejects_overlap(self):
        with pytest.raises(InvariantViolationError):
            BipartiteCut(("A", "B"), ("B", "C"))

    def test_rejects_empty_side(self):
        with pytest.raises(InvariantViolationError):
            BipartiteCut((), ("A",))

    def test_must_cover_register(self):
        rho = DensityOperator(np.eye(8) / 8)
        layout = RegisterLayout(("A", "B", "C"))
        with pytest.raises(InvariantViolationError):
            partial_transpose(rho, layout, BipartiteCut(("A",), ("B",)))


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(101)
        rho = DensityOperator(kron(random_density(2, rng), random_density(2, rng)))
        pt = partial_transpose(rho, TWO_QUBITS, CUT_AB)
        assert np.linalg.eigvalsh(pt).min() >= -1e-12

    def test_involution(self):
        # the transposed matrix is generally not a state, so the second
        # application goes through the brute-force transpose
        rng = np.random.default_rng(103)
        for _ in range(100):
            rho = DensityOperator(random_density(4, rng))
            pt = partial_transpose(rho, TWO_QUBITS, CUT_AB)
            back = pt_brute(pt, 2, (0,))
            np.testing.assert_allclose(back, rho.matrix, atol=1e-14)

    def test_bell_spectrum(self):
        rho = DensityOperator.from_state_vector(PHI_PLUS)
        pt = partial_transpose(rho, TWO_QUBITS, CUT_AB)
        np.testing.assert_allclose(
            sorted(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_hermiticity_and_trace_preserved(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            rho = DensityOperator(random_density(8, rng))
            layout = RegisterLayout(("A", "B", "C"))
            cut = BipartiteCut(("A", "C"), ("B",))
            pt = partial_transpose(rho, layout, cut)
            assert np.abs(pt - pt.conj().T).max() <= 1e-14
            assert abs(np.trace(pt) - 1) <= 1e-14

    def test_matches_brute_force(self):
        rng = np.random.default_rng(109)
        layout = RegisterLayout(("A", "B", "C", "D"))
        cuts = [
            (BipartiteCut(("A", "B"), ("C", "D")), (0, 1)),
            (BipartiteCut(("A", "C"), ("B", "D")), (0, 2)),
            (BipartiteCut(("B",), ("A", "C", "D")), (1,)),
        ]
        for _ in range(10):
            rho = DensityOperator(random_density(16, rng))
            for cut, positions in cuts:
                got = partial_transpose(rho, layout, cut)
                want = pt_brute(rho.matrix, 4, positions)
                np.testing.assert_allclose(got, want, atol=1e-14)


class TestLogNegativity:
    def test_product_state_is_zero(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            rho = DensityOperator(kron(random_density(2, rng), random_density(2, rng)))
            assert abs(log_negativity(rho, TWO_QUBITS, CUT_AB)) <= 1e-10

    def test_bell_pair_is_one_ebit(self):
        rho = DensityOperator.from_state_vector(PHI_PLUS)
        assert abs(log_negativity(rho, TWO_QUBITS, CUT_AB) - 1.0) <= 1e-12

    def test_never_negative(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            rho = DensityOperator(random_density(4, rng))
            assert log_negativity(rho, TWO_QUBITS, CUT_AB) >= -1e-10

    def test_zero_iff_ppt(self):
        rng = np.random.default_rng(131)
        states = [DensityOperator(random_density(4, rng)) for _ in range(50)]
        states.append(DensityOperator.from_state_vector(PHI_PLUS))
        states.append(DensityOperator(kron(random_density(2, rng), random_density(2, rng))))
        for rho in states:
            en = log_negativity(rho, TWO_QUBITS, CUT_AB)
            assert (abs(en) <= 1e-10) == is_ppt(rho, TWO_QUBITS, CUT_AB)


class TestIsPpt:
    def test_product_state(self):
        rng = np.random.default_rng(137)
        rho = DensityOperator(kron(random_density(2, rng), random_density(2, rng)))
        assert is_ppt(rho, TWO_QUBITS, CUT_AB)

    def test_bell_pair_is_npt(self):
        rho = DensityOperator.from_state_vector(PHI_PLUS)
        assert not is_ppt(rho, TWO_QUBITS, CUT_AB)


class TestDistillableUpperBound:
    def test_bell_pair_bound_is_one(self):
        rho = DensityOperator.from_state_vector(PHI_PLUS)
        assert abs(distillable_upper_bound(rho, TWO_QUBITS, CUT_AB) - 1.0) <= 1e-12

    def test_smolin_cuts_bound_is_zero(self):
        rho, layout = smolin_state(), smolin_layout()
        for cut in smolin_cuts().values():
            assert distillable_upper_bound(rho, layout, cut) == 0.0

    def test_never_negative(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            rho = DensityOperator(random_density(4, rng))
            assert distillable_upper_bound(rho, TWO_QUBITS, CUT_AB) >= 0.0


class TestSmolinState:
    def test_purity_quarter(self):
        rho = smolin_state()
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - 0.25) <= 1e-12

    def test_cd_marginal_is_maximally_mixed(self):
        reduced = partial_trace(smolin_state(), smolin_layout(), ("A", "B"))
        np.testing.assert_allclose(reduced.matrix, np.eye(4) / 4, atol=1e-14)

    def test_equals_pauli_form(self):
        np.testing.assert_allclose(smolin_state().matrix, smolin_pauli_form(), atol=1e-14)

    def test_zero_log_negativity_across_all_cuts(self):
        rho, layout = smolin_state(), smolin_layout()
        for cut in smolin_cuts().values():
            assert abs(log_negativity(rho, layout, cut)) <= 1e-10

    def test_ppt_across_all_cuts(self):
        rho, layout = smolin_state(), smolin_layout()
        for cut in smolin_cuts().values():
            assert is_ppt(rho, layout, cut)

    def test_permutation_invariance(self):
        rho = smolin_state().matrix
        for i, j in ((1, 2), (1, 3)):
            perm = qubit_swap(4, i, j)
            assert trace_norm(rho - perm @ rho @ perm.T) < 1e-12

    def test_unbalanced_cut_is_entangled(self):
        # one party versus the rest is NOT one of the separable cuts
        rho, layout = smolin_state(), smolin_layout()
        cut = BipartiteCut(("A",), ("B", "C", "D"))
        assert log_negativity(rho, layout, cut) > 0.5
