"""Fixed-point solver: the consistency map, convergence, and diagnostics."""

import numpy as np
import pytest

import dctcsim.deutsch as deutsch
from dctcsim import (
    AmplitudePair,
    BellLabel,
    DensityOperator,
    FixedPointConvergenceError,
    InvariantViolationError,
    RegisterLayout,
    SolverConfig,
    UnitaryOperator,
    apply_dctc,
    bhw_interaction,
    bhw_layout,
    candidate_states,
    ctc_map,
    fixed_point_space_dim,
    kron,
    solve_fixed_point,
    superoperator_matrix,
    teleport_and_correct,
    trace_norm,
)
from dctcsim.deutsch import FixedPointResult
from dctcsim.protocols import discriminate_bell
from dctcsim.qmath import KET_0

from oracles import (
    eigen_fixed_point,
    expected_blend,
    four_blocks,
    haar_unitary,
    interaction,
    ket,
    qubit_swap,
    random_density,
    random_pure,
)

AMPS = AmplitudePair(0.6, 0.8)
LAYOUT_1_1 = RegisterLayout(("c", "t"), ctc=("t",))
LAYOUT_2_1 = RegisterLayout(("c0", "c1", "t"), ctc=("t",))
SWAP = qubit_swap(2, 0, 1)


def literal(alpha=0.6, beta=0.8):
    """The bare block formulas, without the zero-controlled NOT on the CTC
    ancilla: the construction whose fixed point is not unique."""
    return UnitaryOperator(interaction(alpha, beta, "literal"))


def worked_instance(u=None):
    """CR input (0.6|1> + 0.8|0>) (x) |0> for a 16-dim interaction, by
    default the library's."""
    vec = kron(np.array([0.8, 0.6], dtype=complex), KET_0)
    return (bhw_interaction(AMPS) if u is None else u,
            DensityOperator.from_state_vector(vec), bhw_layout())


class TestCtcMap:
    def test_identity_interaction_fixes_everything(self):
        rng = np.random.default_rng(51)
        u = UnitaryOperator(np.eye(4))
        rho_cr = DensityOperator(random_density(2, rng))
        for _ in range(10):
            sigma = DensityOperator(random_density(2, rng))
            out = ctc_map(u, rho_cr, sigma, LAYOUT_1_1)
            np.testing.assert_allclose(out.matrix, sigma.matrix, atol=1e-14)

    def test_swap_interaction_is_constant_map(self):
        rng = np.random.default_rng(53)
        u = UnitaryOperator(SWAP)
        rho_cr = DensityOperator(random_density(2, rng))
        for _ in range(10):
            sigma = DensityOperator(random_density(2, rng))
            out = ctc_map(u, rho_cr, sigma, LAYOUT_1_1)
            np.testing.assert_allclose(out.matrix, rho_cr.matrix, atol=1e-14)

    def test_worked_instance_label_is_consistent(self):
        u, rho_cr, layout = worked_instance()
        sigma = DensityOperator.from_state_vector(ket("10"))
        out = ctc_map(u, rho_cr, sigma, layout)
        np.testing.assert_allclose(out.matrix, sigma.matrix, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        u = UnitaryOperator(np.eye(4))
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(InvariantViolationError):
            ctc_map(u, rho, DensityOperator(np.eye(4) / 4), LAYOUT_1_1)
        with pytest.raises(InvariantViolationError):
            ctc_map(UnitaryOperator(np.eye(8)), rho, rho, LAYOUT_1_1)

    def test_cr_labels_must_come_first(self):
        layout = RegisterLayout(("t", "c"), ctc=("t",))
        u = UnitaryOperator(np.eye(4))
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(InvariantViolationError):
            ctc_map(u, rho, rho, layout)

    def test_output_is_cptp_image(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            u = UnitaryOperator(haar_unitary(8, rng))
            rho_cr = DensityOperator(random_density(4, rng))
            sigma = DensityOperator(random_density(2, rng))
            out = ctc_map(u, rho_cr, sigma, LAYOUT_2_1)
            # DensityOperator construction has already verified Hermiticity,
            # unit trace, and positivity; double-check the trace survived.
            assert abs(np.trace(out.matrix) - 1) <= 1e-12

    def test_contractivity(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            u = UnitaryOperator(haar_unitary(4, rng))
            rho_cr = DensityOperator(random_density(2, rng))
            s1 = DensityOperator(random_density(2, rng))
            s2 = DensityOperator(random_density(2, rng))
            before = trace_norm(s1.matrix - s2.matrix)
            after = trace_norm(
                ctc_map(u, rho_cr, s1, LAYOUT_1_1).matrix
                - ctc_map(u, rho_cr, s2, LAYOUT_1_1).matrix)
            assert after <= before + 1e-10


class TestSuperoperator:
    def test_reproduces_map_action(self):
        rng = np.random.default_rng(67)
        u = UnitaryOperator(haar_unitary(8, rng))
        rho_cr = DensityOperator(random_density(4, rng))
        S = superoperator_matrix(u, rho_cr, LAYOUT_2_1)
        for _ in range(20):
            sigma = DensityOperator(random_density(2, rng))
            direct = ctc_map(u, rho_cr, sigma, LAYOUT_2_1).matrix
            via_matrix = (S @ sigma.matrix.reshape(-1)).reshape(2, 2)
            np.testing.assert_allclose(via_matrix, direct, atol=1e-13)

    def test_identity_interaction_has_full_fixed_space(self):
        u = UnitaryOperator(np.eye(4))
        rho = DensityOperator(np.eye(2) / 2)
        assert fixed_point_space_dim(u, rho, LAYOUT_1_1) == 4

    def test_matches_kraus_oracle_spectrum(self):
        from oracles import kraus_superoperator
        rng = np.random.default_rng(71)
        u = UnitaryOperator(haar_unitary(8, rng))
        rho_cr = DensityOperator(random_density(4, rng))
        S = superoperator_matrix(u, rho_cr, LAYOUT_2_1)
        S_oracle = kraus_superoperator(u.matrix, rho_cr.matrix, 4, 2)
        np.testing.assert_allclose(sorted(np.linalg.eigvals(S), key=abs),
                                   sorted(np.linalg.eigvals(S_oracle), key=abs),
                                   atol=1e-10)


class TestSolveFixedPoint:
    def test_swap_converges_to_cr_state(self):
        rng = np.random.default_rng(73)
        rho_cr = DensityOperator(random_density(2, rng))
        result = solve_fixed_point(UnitaryOperator(SWAP), rho_cr, LAYOUT_1_1)
        np.testing.assert_allclose(result.fixed_point.matrix, rho_cr.matrix, atol=1e-11)
        assert result.unique and result.fp_space_dim == 1
        assert result.residual < 1e-12

    def test_identity_returns_maximally_mixed_with_degenerate_space(self):
        rho_cr = DensityOperator(np.eye(2) / 2)
        result = solve_fixed_point(UnitaryOperator(np.eye(4)), rho_cr, LAYOUT_1_1)
        np.testing.assert_allclose(result.fixed_point.matrix, np.eye(2) / 2, atol=1e-14)
        assert not result.unique
        assert result.fp_space_dim == 4  # d^2 for a 1-qubit loop

    def test_identity_two_qubit_loop(self):
        layout = RegisterLayout(("c", "t0", "t1"), ctc=("t0", "t1"))
        rho_cr = DensityOperator(np.eye(2) / 2)
        result = solve_fixed_point(UnitaryOperator(np.eye(8)), rho_cr, layout)
        assert result.fp_space_dim == 16

    def test_interaction_fixed_space_is_two_dimensional(self):
        # Each block acts on the CTC ancilla as plain I or X, so the ancilla
        # bit of the label is conserved and each half of the label space
        # keeps its own stationary state: the claimed uniqueness does not
        # hold for these blocks.
        u, rho_cr, layout = worked_instance(literal())
        result = solve_fixed_point(u, rho_cr, layout)
        assert result.fp_space_dim == 2
        assert not result.unique

    def test_interaction_limit_matches_chain_blend(self):
        u, rho_cr, layout = worked_instance()
        result = solve_fixed_point(u, rho_cr, layout)
        blend = expected_blend(0.6, 0.8, np.array([0.8, 0.6]))
        assert trace_norm(result.fixed_point.matrix - blend) <= 1e-8
        # the consistent label state is itself a fixed point of the map
        label = DensityOperator.from_state_vector(ket("10"))
        image = ctc_map(u, rho_cr, label, layout)
        assert trace_norm(image.matrix - label.matrix) <= 1e-12

    def test_residual_is_verified_on_output(self):
        u, rho_cr, layout = worked_instance()
        result = solve_fixed_point(u, rho_cr, layout)
        image = ctc_map(u, rho_cr, result.fixed_point, layout)
        assert trace_norm(image.matrix - result.fixed_point.matrix) < 1e-10

    def test_second_fixed_point_witness(self):
        # Executable witness that the fixed-point family really is
        # two-dimensional: the stationary mixture of the U_01 and U_11 images
        # is a fixed point disjoint from the consistent label |10>.
        u, rho_cr, layout = worked_instance(literal())
        alpha, beta = 0.6, 0.8
        vin = kron(np.array([beta, alpha], dtype=complex), KET_0)
        blocks = four_blocks(alpha, beta, "literal")
        tau_01 = blocks[(0, 1)] @ vin
        tau_11 = blocks[(1, 1)] @ vin
        k = 4 * alpha ** 2 * beta ** 2
        blend = (k * np.outer(tau_01, tau_01.conj())
                 + np.outer(tau_11, tau_11.conj())) / (1 + k)
        parasite = DensityOperator(blend)
        image = ctc_map(u, rho_cr, parasite, layout)
        assert trace_norm(image.matrix - parasite.matrix) <= 1e-12
        label = DensityOperator.from_state_vector(ket("10"))
        assert trace_norm(parasite.matrix - label.matrix) > 1.0

    def test_degenerate_amplitudes_converge_with_larger_fixed_space(self):
        amps = AmplitudePair.from_alpha(1 / np.sqrt(2), allow_degenerate=True)
        u, layout = literal(amps.alpha, amps.beta), bhw_layout()
        vec = kron(np.array([amps.beta, amps.alpha], dtype=complex), KET_0)
        rho_cr = DensityOperator.from_state_vector(vec)
        result = solve_fixed_point(u, rho_cr, layout)
        # every block image is a distinct basis state, so I/4 is already fixed
        np.testing.assert_allclose(result.fixed_point.matrix, np.eye(4) / 4, atol=1e-12)
        assert result.fp_space_dim >= 3

    def test_matches_eigen_oracle_on_interaction(self):
        u, rho_cr, layout = worked_instance()
        result = solve_fixed_point(u, rho_cr, layout)
        sigma, multiplicity = eigen_fixed_point(u.matrix, rho_cr.matrix, 4, 4)
        assert multiplicity == result.fp_space_dim
        assert trace_norm(result.fixed_point.matrix - sigma) <= 1e-8

    def test_matches_eigen_oracle_on_random_channels(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            u = UnitaryOperator(haar_unitary(8, rng))
            rho_cr = DensityOperator.from_state_vector(random_pure(4, rng))
            result = solve_fixed_point(u, rho_cr, LAYOUT_2_1)
            sigma, _ = eigen_fixed_point(u.matrix, rho_cr.matrix, 4, 2)
            assert trace_norm(result.fixed_point.matrix - sigma) <= 1e-8

    def test_fixed_point_always_exists(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            u = UnitaryOperator(haar_unitary(4, rng))
            rho_cr = DensityOperator(random_density(2, rng))
            result = solve_fixed_point(u, rho_cr, LAYOUT_1_1)
            assert result.residual < 1e-12

    def test_non_convergence_raises_with_best_residual(self):
        u, rho_cr, layout = worked_instance()
        config = SolverConfig(tolerance=1e-20)
        with pytest.raises(FixedPointConvergenceError) as info:
            solve_fixed_point(u, rho_cr, layout, config)
        assert 0 < info.value.best_residual < 2.0

    def test_spectrum_without_unit_eigenvalue_raises(self, monkeypatch):
        monkeypatch.setattr(deutsch, "UNIT_EIGENVALUE_ATOL", -1.0)
        u, rho_cr, layout = worked_instance()
        with pytest.raises(FixedPointConvergenceError, match="multiplicities 0"):
            solve_fixed_point(u, rho_cr, layout)

    def test_linear_algebra_failure_raises_typed_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        monkeypatch.setattr(deutsch.np.linalg, "eig", fail)
        u, rho_cr, layout = worked_instance()
        with pytest.raises(FixedPointConvergenceError, match="did not converge"):
            solve_fixed_point(u, rho_cr, layout)


def _pair_at_distance(delta):
    """Real amplitude pair with alpha - beta = delta."""
    root = np.sqrt(2.0 - delta * delta)
    return AmplitudePair((root + delta) / 2, (root - delta) / 2, allow_degenerate=True)


def _pair_with_small(small, small_alpha):
    """Real amplitude pair whose alpha (or else beta) equals ``small``."""
    big = np.sqrt(1.0 - small * small)
    pair = (small, big) if small_alpha else (big, small)
    return AmplitudePair(*pair, allow_degenerate=True)


def _discrimination_inputs(amps):
    """The CR input of every (Bell pair, Alice outcome) discrimination run."""
    for bell in BellLabel:
        for outcome in BellLabel:
            bob = teleport_and_correct(bell, amps, outcome)
            yield bell, outcome, DensityOperator.from_state_vector(kron(bob, KET_0))


class TestNearDegeneracy:
    @pytest.mark.parametrize("scale", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
    def test_unit_eigenvalue_window_matches_degeneracy_threshold(self, scale):
        # The second eigenvalue sits min((alpha^2 - beta^2)^2, 4 alpha^2 beta^2)
        # below 1: ~2 (alpha - beta)^2 near alpha = beta, ~4 alpha^2 as alpha
        # -> 0.  The fixed-point space is larger than one dimension exactly
        # when AmplitudePair counts the pair as degenerate.
        pairs = (_pair_at_distance(scale * 1e-6),
                 _pair_with_small(scale * 7.07e-7, small_alpha=True),
                 _pair_with_small(scale * 7.07e-7, small_alpha=False))
        for amps in pairs:
            assert amps.is_degenerate == (scale < 1)
            u, layout = bhw_interaction(amps), bhw_layout()
            for _, _, rho_cr in _discrimination_inputs(amps):
                dim = fixed_point_space_dim(u, rho_cr, layout)
                assert (dim >= 2) == amps.is_degenerate

    def test_every_input_identified_at_alpha_0_7071(self):
        amps = AmplitudePair.from_alpha(0.7071)
        u, layout = bhw_interaction(amps), bhw_layout()
        for bell, outcome, rho_cr in _discrimination_inputs(amps):
            assert fixed_point_space_dim(u, rho_cr, layout) == 1
            record = discriminate_bell(bell, amps, alice_outcome=outcome)
            assert record.identified is bell
            assert record.fixed_point.unique

    @pytest.mark.parametrize("delta", [2e-6, -2e-6, 1e-5, -1e-5, 2e-5, -2e-5,
                                       1.87e-4, -1.87e-4])
    def test_every_input_identified_near_degeneracy(self, delta):
        # Pairs on both sides of 1/sqrt(2): the zeroing of negative
        # eigenvalues moves sigma along fast modes of S, and the solver's
        # final channel step must bring the residual back under 1e-12.
        amps = _pair_at_distance(delta)
        for bell, outcome, _ in _discrimination_inputs(amps):
            record = discriminate_bell(bell, amps, alice_outcome=outcome)
            assert record.identified is bell
            assert record.fixed_point.unique

    def test_closer_runs_identify_or_raise_typed_error(self):
        # At |alpha - beta| = 1.6e-6 the fixed point moves by about 1e-16 / gap
        # under rounding; the solve must still certify it.
        amps = AmplitudePair.from_alpha(0.707106)
        for bell, outcome, _ in _discrimination_inputs(amps):
            record = discriminate_bell(bell, amps, alice_outcome=outcome)
            assert record.identified is bell


class TestApplyDctc:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(89)
        rho_cr = DensityOperator(random_density(2, rng))
        out, result = apply_dctc(UnitaryOperator(np.eye(4)), rho_cr, LAYOUT_1_1)
        np.testing.assert_allclose(out.matrix, rho_cr.matrix, atol=1e-13)
        assert result.residual < 1e-12

    def test_swap_hands_back_cr_state(self):
        rng = np.random.default_rng(97)
        rho_cr = DensityOperator(random_density(2, rng))
        out, _ = apply_dctc(UnitaryOperator(SWAP), rho_cr, LAYOUT_1_1)
        np.testing.assert_allclose(out.matrix, rho_cr.matrix, atol=1e-11)

    def test_interaction_concentrates_on_consistent_label(self):
        # With the degenerate fixed-point family, the maximally-mixed seed
        # puts exactly half its weight on the consistent label |10>; the
        # other half stays stuck in the opposite-ancilla block.
        u, rho_cr, layout = worked_instance(literal())
        out, _ = apply_dctc(u, rho_cr, layout)
        probabilities = np.real(np.diag(out.matrix))
        assert np.argmax(probabilities) == 2  # |10>
        assert abs(probabilities[2] - 0.5) <= 1e-9
        assert probabilities[0] <= 1e-9

    def test_all_candidates_label_correctly(self):
        u = literal()
        layout = bhw_layout()
        for code, state in candidate_states(AMPS).items():
            rho_cr = DensityOperator.from_state_vector(kron(state, KET_0))
            out, result = apply_dctc(u, rho_cr, layout)
            probabilities = np.real(np.diag(out.matrix))
            modal = int(np.argmax(probabilities))
            assert (modal >> 1, modal & 1) == code
            assert abs(probabilities[modal] - 0.5) <= 1e-9
            assert result.fp_space_dim == 2


class TestConfigAndResult:
    def test_config_validation(self):
        with pytest.raises(InvariantViolationError):
            SolverConfig(tolerance=0.0)

    def test_result_validation(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(InvariantViolationError):
            FixedPointResult(rho, residual=-1.0, fp_space_dim=1)
        assert FixedPointResult(rho, residual=0.0, fp_space_dim=1).unique
        assert not FixedPointResult(rho, residual=0.0, fp_space_dim=2).unique
