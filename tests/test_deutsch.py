"""Fixed-point solver: the consistency map, convergence, and diagnostics."""

from fractions import Fraction

import numpy as np
import pytest

import dctcsim.circuits as circuits
import dctcsim.deutsch as deutsch
import dctcsim.protocols as protocols
from dctcsim import (
    AmplitudePair,
    BellLabel,
    DensityOperator,
    FixedPointConvergenceError,
    InvariantViolationError,
    RegisterLayout,
    SolverConfig,
    UnitaryOperator,
    bhw_interaction,
    bhw_layout,
    candidate_states,
    ctc_map,
    kron,
    register_swap,
    solve_fixed_point,
    trace_norm,
)
from dctcsim.circuits import UNIT_EIGENVALUE_ATOL
from dctcsim.deutsch import (
    FixedPointResult,
    apply_dctc,
    fixed_point_space_dim,
    superoperator_matrix,
)
from dctcsim.protocols import ctc_readouts, discriminate_bell, teleport_and_correct
from dctcsim.qmath import KET_0

from oracles import (
    closed_classes,
    cycle_shares,
    discrimination_chain,
    eigen_fixed_point,
    ensemble,
    exact_cesaro_limit,
    exact_chain_readout,
    four_blocks,
    haar_unitary,
    interaction,
    ket,
    ptrace_brute,
    qubit_swap,
    random_density,
    random_pure,
    smolin_pauli_form,
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

    def test_fixed_contraction_matches_einsum(self):
        # The two matrix products give the same S as the three-operand einsum.
        rng = np.random.default_rng(69)
        layout = bhw_layout()
        for _ in range(50):
            u = UnitaryOperator(haar_unitary(16, rng))
            rho_cr = DensityOperator(random_density(4, rng))
            t = u.matrix.reshape(4, 4, 4, 4)
            expected = np.einsum("atbs,bc,aucv->tusv", t, rho_cr.matrix, t.conj(),
                                 optimize=True).reshape(16, 16)
            S = superoperator_matrix(u, rho_cr, layout)
            assert np.abs(S - expected).max() <= 1e-15

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
        # The blend of the block images weighted by the exact Cesaro limit of
        # the uniform label distribution under the same chain.
        u, rho_cr, layout = worked_instance()
        result = solve_fixed_point(u, rho_cr, layout)
        cr_qubit = np.array([0.8, 0.6])
        P = [[Fraction(x) for x in row] for row in discrimination_chain(0.6, 0.8, cr_qubit).T]
        for i, row in enumerate(P):
            row[i] = 1 - sum(x for j, x in enumerate(row) if j != i)
        blocks = four_blocks(0.6, 0.8)
        taus = [blocks[code] @ kron(cr_qubit, KET_0) for code in sorted(blocks)]
        blend = sum(float(q) * np.outer(tau, tau.conj())
                    for q, tau in zip(exact_cesaro_limit(P), taus))
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
        amps = AmplitudePair.from_alpha(1 / np.sqrt(2))
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

    @pytest.mark.parametrize("n_cr, n_ctc", [(2, 3), (1, 4)])
    def test_matches_eigen_oracle_at_three_and_four_ctc_qubits(self, n_cr, n_ctc):
        # The declared envelope: up to 4 CTC qubits, where S is 256 x 256.
        rng = np.random.default_rng(80 + n_ctc)
        d_cr, d_ctc = 2 ** n_cr, 2 ** n_ctc
        labels = tuple(f"q{i}" for i in range(n_cr + n_ctc))
        layout = RegisterLayout(labels, ctc=labels[n_cr:])
        u = UnitaryOperator(haar_unitary(d_cr * d_ctc, rng))
        rho_cr = DensityOperator(random_density(d_cr, rng))
        result = solve_fixed_point(u, rho_cr, layout)
        sigma, multiplicity = eigen_fixed_point(u.matrix, rho_cr.matrix, d_cr, d_ctc)
        assert result.fp_space_dim == multiplicity == 1
        assert trace_norm(result.fixed_point.matrix - sigma) <= 1e-12

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

    @pytest.mark.parametrize("name", ["eigvals", "svd"])
    def test_linear_algebra_failure_raises_typed_error(self, name, monkeypatch):
        def fail(*_, **__):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        monkeypatch.setattr(deutsch.np.linalg, name, fail)
        u, rho_cr, layout = worked_instance()
        with pytest.raises(FixedPointConvergenceError, match="did not converge"):
            solve_fixed_point(u, rho_cr, layout)

    def test_degenerate_clifford_channel_solves(self):
        # U = CNOT(c0 -> t0) SWAP(c1, t1) S_c1 H_c1 S_t0 H_t1 on (c0, c1, t0, t1)
        # with rho_CR = |10><10|: t1 comes back as c1's |+i>, and t0 turns under
        # X S, whose fixed points are diagonal in its eigenbasis, so the
        # Cesaro limit is I/2 (x) |+i><+i|.  eig does not promise a
        # well-conditioned basis of this degenerate eigenspace; an SVD does.
        def on(gate, position):
            ops = [np.eye(2)] * 4
            ops[position] = gate
            return np.kron(np.kron(ops[0], ops[1]), np.kron(ops[2], ops[3]))
        H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        S = np.diag([1, 1j])
        cnot = on(np.diag([1, 0]), 0) + on(np.diag([0, 1]), 0) @ on(np.array([[0, 1], [1, 0]]), 2)
        u = cnot @ qubit_swap(4, 1, 3) @ on(S, 1) @ on(H, 1) @ on(S, 2) @ on(H, 3)
        layout = RegisterLayout(("c0", "c1", "t0", "t1"), ctc=("t0", "t1"))
        rho_cr = DensityOperator.from_state_vector(ket("10"))
        result = solve_fixed_point(UnitaryOperator(u), rho_cr, layout)
        plus_i = np.array([1, 1j]) / np.sqrt(2)
        assert result.fp_space_dim == 2
        assert result.residual < 1e-12
        expected = np.kron(np.eye(2) / 2, np.outer(plus_i, plus_i.conj()))
        assert trace_norm(result.fixed_point.matrix - expected) < 1e-12

    def test_spectrum_straddling_the_window_raises(self):
        # Eigenvalues 1.9e-12, 2.1e-12 and 2.1e-12 below 1, on both sides of
        # UNIT_EIGENVALUE_ATOL (margin 1.10): counting 2 and a window of 1e-9
        # counting 4 give fixed points 0.13 apart, both with residuals < 1e-12.
        rng = np.random.default_rng(0)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        u = UnitaryOperator((v * np.exp(1j * 3.85e-7 * w)) @ v.conj().T)
        rho_cr = DensityOperator(random_density(4, rng))
        layout = RegisterLayout(("c0", "c1", "t0", "t1"), ctc=("t0", "t1"))
        for run in (solve_fixed_point, fixed_point_space_dim):
            with pytest.raises(FixedPointConvergenceError, match="straddles the unit-eigenvalue"):
                run(u, rho_cr, layout)
        _, multiplicity = eigen_fixed_point(u.matrix, rho_cr.matrix, 4, 4)
        assert multiplicity == 4

    def test_one_eigvals_and_no_eig_per_solve(self, monkeypatch):
        calls = {"eig": 0, "eigvals": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        result = solve_fixed_point(*worked_instance())
        assert result.fp_space_dim == 1
        assert calls == {"eig": 0, "eigvals": 1}


def _one_over_e_readout(outputs) -> list:
    """The CR diagonal of the label chain by the 1/e law, in exact rationals
    of the float block outputs ``outputs[c, c', j] = (U_c K)[c', j]``.  As
    U_c maps psi_c (x) |0> to |c>, label c keeps F_c = <psi_c|rho_Bob|psi_c>,
    the weight of U_c K on c, and escapes to one other label with the rest
    of n_c = ||U_c K||_F^2, which is 1 up to rounding.  When the escapes close
    one cycle, p_c is proportional to 1/(n_c - F_c) and entry c is
    n_c^2 (n_c - F_c)^-1 / sum_c' n_c' (n_c' - F_c')^-1: at n = 1, the law
    (1 - F_c)^-1 / sum_c' (1 - F_c')^-1."""
    weight = [[sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in row) for row in block]
              for block in outputs]
    n = [sum(row) for row in weight]
    inverse = [n[c] / (n[c] - weight[c][c]) for c in range(len(n))]
    return [n[c] * inverse[c] / sum(inverse) for c in range(len(n))]


def _pair_at_distance(delta):
    """Real amplitude pair with alpha - beta = delta."""
    root = np.sqrt(2.0 - delta * delta)
    return AmplitudePair((root + delta) / 2, (root - delta) / 2)


def _pair_with_small(small, small_alpha):
    """Real amplitude pair whose alpha (or else beta) equals ``small``."""
    big = np.sqrt(1.0 - small * small)
    pair = (small, big) if small_alpha else (big, small)
    return AmplitudePair(*pair)


def _discrimination_inputs(amps):
    """The CR input of every (Bell pair, Alice outcome) discrimination run."""
    for bell in BellLabel:
        for outcome in BellLabel:
            bob = teleport_and_correct(bell.state_vector()[None, None], amps,
                                       alice_outcome=outcome)[1][0, :, 0]
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
        # Pairs on both sides of 1/sqrt(2), where the chain's gap is small:
        # the label, uniqueness and readout must not depend on it.
        amps = _pair_at_distance(delta)
        for bell, outcome, _ in _discrimination_inputs(amps):
            record = discriminate_bell(bell, amps, alice_outcome=outcome)
            assert record.identified is bell
            assert record.fixed_point.unique
            assert record.outcome_probability >= 1 - 1e-12

    @pytest.mark.parametrize("alpha", [0.7071, 0.707106, 1e-5])
    def test_spectral_solve_clips_and_steps_to_the_chain_state(self, alpha):
        # Rounding of S leaves negative eigenvalues of order 1e-16 / gap on the
        # projected state here; the clip and the channel step must still give
        # a certified, unique fixed point close to the chain's.
        amps = AmplitudePair.from_alpha(alpha)
        u, layout = bhw_interaction(amps), bhw_layout()
        for bell, outcome, rho_cr in _discrimination_inputs(amps):
            result = solve_fixed_point(u, rho_cr, layout)
            assert result.residual < 1e-12
            assert result.fp_space_dim == 1
            bob = teleport_and_correct(bell.state_vector()[None, None], amps,
                                       alice_outcome=outcome)[1][0, :, 0]
            chain = ctc_readouts(amps, bob[None, :, None])[0][3].fixed_point
            assert trace_norm(result.fixed_point.matrix - chain.matrix) <= 1e-5

    def test_closer_runs_identify_or_raise_typed_error(self):
        # At |alpha - beta| = 1.6e-6 the chain's gap is about 5e-12; the solve
        # must still certify the fixed point and read it deterministically.
        amps = AmplitudePair.from_alpha(0.707106)
        for bell, outcome, _ in _discrimination_inputs(amps):
            record = discriminate_bell(bell, amps, alice_outcome=outcome)
            assert record.identified is bell
            assert record.outcome_probability >= 1 - 1e-12


def _chain_inputs(blocks, ket):
    """Block outputs U_c (ket (x) |0>) of 4x4 blocks keyed by code, one column each."""
    vin = np.kron(np.asarray(ket, dtype=complex), KET_0)
    outputs = np.array([blocks[code] @ vin for code in sorted(blocks)])
    return outputs[:, :, None]


# Values of alpha on both sides of 1/sqrt(2), for the closed-form checks of the chain.
_CLOSED_FORM_ALPHAS = (0.1, 0.3, 0.45, 0.6, 0.69, 0.75, 0.9)


def _mixed_factors(rng, count):
    """``count`` seeded 2 x k factors K (k from 1 to 3) with Tr(K K^dag) = 1."""
    factors = []
    for _ in range(count):
        k = int(rng.integers(1, 4))
        factor = rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k))
        factors.append(factor / np.linalg.norm(factor))
    return factors


class TestLabelChain:
    def test_chain_state_is_fixed_point_of_full_channel(self):
        # The chain state solves the 16x16 channel it never builds: every
        # acceptance-grid input, and mixed Bob states through their eigenvectors.
        layout = bhw_layout()
        for alpha in (0.3, 0.45, 0.6, 0.75):
            amps = AmplitudePair.from_alpha(alpha)
            u = bhw_interaction(amps)
            for bell, outcome, rho_cr in _discrimination_inputs(amps):
                bob = teleport_and_correct(bell.state_vector()[None, None], amps,
                                           alice_outcome=outcome)[1][0, :, 0]
                fixed = ctc_readouts(amps, bob[None, :, None])[0][3]
                image = ctc_map(u, rho_cr, fixed.fixed_point, layout)
                assert trace_norm(image.matrix - fixed.fixed_point.matrix) < 1e-12
        rng = np.random.default_rng(101)
        u = bhw_interaction(AMPS)
        for _ in range(5):
            rho_bob = random_density(2, rng)
            rho_cr = DensityOperator(kron(rho_bob, np.outer(KET_0, KET_0)))
            fixed = ctc_readouts(AMPS, ensemble(rho_bob)[None])[0][3]
            image = ctc_map(u, rho_cr, fixed.fixed_point, layout)
            assert trace_norm(image.matrix - fixed.fixed_point.matrix) < 1e-12

    @pytest.mark.parametrize("scale", [0.5, 0.99, 1.01, 2.0])
    def test_closed_classes_match_degeneracy_window(self, scale):
        # An escape of probability <= UNIT_EIGENVALUE_ATOL counts as absent, so
        # the chain has two closed classes exactly when the pair is degenerate;
        # the state itself is solved on every escape and passes its residual check.
        pairs = (_pair_at_distance(scale * 1e-6),
                 _pair_with_small(scale * 7.07e-7, small_alpha=True),
                 _pair_with_small(scale * 7.07e-7, small_alpha=False))
        for amps in pairs:
            assert amps.is_degenerate == (scale < 1)
            for bell in BellLabel:
                for outcome in BellLabel:
                    bob = teleport_and_correct(bell.state_vector()[None, None], amps,
                                               alice_outcome=outcome)[1][0, :, 0]
                    fixed = ctc_readouts(amps, bob[None, :, None])[0][3]
                    assert (fixed.fp_space_dim >= 2) == amps.is_degenerate
                    assert fixed.method == "chain"

    def test_readout_is_deterministic_next_to_the_window(self):
        # The spectral solve fell short of 1 by 1e-5 here; the cycle solve never subtracts.
        pairs = [_pair_at_distance(delta)
                 for delta in (1.01e-6, -1.01e-6, 2e-6, -2e-6, 1e-5, 1.87e-4)]
        pairs += [_pair_with_small(small, small_alpha)
                  for small in (7.1e-7, 1e-6, 1e-5) for small_alpha in (True, False)]
        for amps in pairs:
            assert not amps.is_degenerate
            worst = min(discriminate_bell(bell, amps, alice_outcome=outcome).outcome_probability
                        for bell in BellLabel for outcome in BellLabel)
            assert worst >= 1 - 1e-12

    def test_stage_builds_neither_interaction_nor_superoperator(self, monkeypatch):
        def fail(*_):
            raise AssertionError("the chain solve must not call this")
        for module in (circuits, deutsch, protocols):
            for name in ("bhw_interaction", "superoperator_matrix", "solve_fixed_point",
                         "apply_dctc"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fail)
        monkeypatch.setattr(np.linalg, "eig", fail)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        record = discriminate_bell(BellLabel.PSI_PLUS, AMPS, alice_outcome=BellLabel.PHI_MINUS)
        assert record.identified is BellLabel.PSI_PLUS
        assert record.fixed_point.method == "chain"

    def test_pinned_discrimination_stays_within_its_call_budget(self, monkeypatch):
        # One stacked solve checks every sigma* and CR output and takes every
        # residual's trace norm with one eigvalsh and no svd, for one input or
        # four; the DensityOperators it returns are not checked a second time.
        calls = {"DensityOperator": 0, "svd": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(DensityOperator, "__init__",
                            counted("DensityOperator", DensityOperator.__init__))
        for name in ("svd", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        record = discriminate_bell(BellLabel.PSI_PLUS, AMPS, alice_outcome=BellLabel.PHI_MINUS)
        assert record.identified is BellLabel.PSI_PLUS
        assert calls == {"DensityOperator": 0, "svd": 0, "eigvalsh": 1}
        calls.update(dict.fromkeys(calls, 0))
        records = protocols.discriminate_bells(tuple(BellLabel), AMPS, seed=0)    # table1
        assert [r.identified for r in records] == list(BellLabel)
        assert calls == {"DensityOperator": 0, "svd": 0, "eigvalsh": 1}

    def test_residual_is_trace_norm_of_one_channel_step(self):
        # The residual is the sum of |eigenvalues| of Phi(sigma*) - sigma*, taken in
        # the density checks' eigvalsh; for that Hermitian matrix it is the trace
        # norm, here from an svd, of the step rebuilt as the solve takes it: the
        # block trace over the CR axes of sigma*_cc' G[(c, a), (c', b)], G the one
        # Gram product of the block-output rows.
        rng = np.random.default_rng(191)
        nonzero = 0
        for alpha in _CLOSED_FORM_ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            for factor in _mixed_factors(rng, 20):
                outputs = circuits.block_outputs(amps, factor)
                fixed = deutsch.apply_label_chains(outputs[None])[0][1]
                sigma = fixed.fixed_point.matrix
                rows = outputs.reshape(16, -1)
                gram = (rows @ rows.conj().T).reshape(4, 4, 4, 4)
                step = (sigma[:, None, :, None] * gram).trace(0, *deutsch._CR_AXES)
                want = trace_norm(step - sigma)
                assert abs(fixed.residual - want) <= 1e-15 * want
                nonzero += want > 0
        assert nonzero >= 100

    def test_block_traces_match_the_full_interaction(self, monkeypatch):
        # The chain's joint output is U (rho_CR (x) sigma*) U^dag of the 16x16
        # interaction it never builds: its CR output, and its Phi(sigma*) read
        # from the one eigvalsh stack, are the general solver's block traces.
        stacks, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a) or eigvalsh(a))
        rng = np.random.default_rng(197)
        ancilla = np.outer(KET_0, KET_0)
        for alpha in _CLOSED_FORM_ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            u = bhw_interaction(amps)
            for factor in _mixed_factors(rng, 10):
                stacks.clear()
                outputs = circuits.block_outputs(amps, factor)[None]
                cr_out, fixed = deutsch.apply_label_chains(outputs)[0]
                sigma = fixed.fixed_point
                image = stacks[0][2] + sigma.matrix         # Phi(sigma*) - sigma*, plus sigma*
                rho_cr = DensityOperator(kron(factor @ factor.conj().T, ancilla))
                for got, traced in ((cr_out.matrix, deutsch._CTC_AXES),
                                    (image, deutsch._CR_AXES)):
                    want = deutsch._joint_output(u, rho_cr, sigma, traced).matrix
                    assert np.abs(got - want).max() <= 1e-14

    def test_readout_matches_closed_form_of_the_overlaps(self):
        # With F_c = <psi_c|rho_Bob|psi_c> for the candidates psi_c = E_c psi, the
        # readout is (1 - F_c)^-1 / sum_c' (1 - F_c')^-1 and sum_c F_c = 2.  The
        # walk solves the chain on its own, so this checks it against a formula.
        # 1/(1 - F) amplifies the rounding of F, hence the absolute tolerance.
        rng = np.random.default_rng(193)
        for alpha in _CLOSED_FORM_ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            candidates = np.array(list(candidate_states(amps).values()))
            for factor in _mixed_factors(rng, 20):
                overlaps = np.einsum("ci,ij,cj->c", candidates.conj(), factor @ factor.conj().T,
                                     candidates).real
                assert abs(overlaps.sum() - 2.0) <= 1e-14
                weights = 1.0 / (1.0 - overlaps)
                distribution = ctc_readouts(amps, factor[None])[0][0]
                np.testing.assert_allclose(distribution, weights / weights.sum(), rtol=0,
                                           atol=1e-14)

    def test_spectral_solve_reports_its_method(self):
        assert solve_fixed_point(*worked_instance()).method == "spectral"

    def test_bare_blocks_read_half(self):
        # Two closed classes (the ancilla bit is conserved): the Cesaro limit
        # from the uniform distribution matches the spectral solve.
        u, rho_cr, layout = worked_instance(literal())
        spectral_out, spectral = apply_dctc(u, rho_cr, layout)
        outputs = _chain_inputs(four_blocks(0.6, 0.8, "literal"), [0.8, 0.6])
        cr_out, fixed = deutsch.apply_label_chains(outputs[None])[0]
        assert fixed.fp_space_dim == spectral.fp_space_dim == 2
        assert trace_norm(fixed.fixed_point.matrix - spectral.fixed_point.matrix) <= 1e-12
        assert abs(cr_out.matrix[2, 2].real - 0.5) <= 1e-12
        np.testing.assert_allclose(cr_out.matrix, spectral_out.matrix, atol=1e-12)

    def test_gth_keeps_relative_accuracy_at_tiny_gaps(self):
        # Two states that swap with probabilities 1e-30 and 3e-30: the
        # stationary distribution is (3/4, 1/4) whatever the gap.
        P = [[1.0, 1e-30], [3e-30, 1.0]]
        np.testing.assert_allclose(deutsch._cesaro_limit(P)[0], [0.75, 0.25], rtol=1e-15)

    def test_cesaro_limit_absorbs_transient_mass(self):
        # 0 and 3 absorb; 1 goes to 2 and 2 goes to 3, so 3 collects three labels' mass.
        P = [[1.0, 0.0, 0.0, 0.0],
             [0.0, 0.0, 1.0, 0.0],
             [0.0, 0.0, 0.0, 1.0],
             [0.0, 0.0, 0.0, 1.0]]
        np.testing.assert_allclose(deutsch._cesaro_limit(P)[0], [0.25, 0.0, 0.0, 0.75],
                                   rtol=1e-15)

    def test_label_with_two_escapes_rejected(self):
        P = [[1.0, 0.0, 0.0], [0.25, 0.0, 0.75], [0.0, 0.0, 1.0]]
        with pytest.raises(InvariantViolationError):
            deutsch._cesaro_limit(P)
        outputs = np.eye(4, dtype=complex)[:, :, None]     # every label stays ...
        outputs[1, :, 0] = [0.6, 0.0, 0.8, 0.0]             # ... but 1 leaves for 0 and 2
        with pytest.raises(InvariantViolationError):
            deutsch.apply_label_chains(outputs[None])

    def test_cycle_mass_goes_as_inverse_escape(self):
        # p_c e_c is the same on every label of a cycle: p is (1/e) / sum(1/e).
        escape = [1e-30, 2e-30, 3e-30, 4e-30]
        P = [[1.0 if j == i else escape[i] if j == (i + 1) % 4 else 0.0 for j in range(4)]
             for i in range(4)]
        np.testing.assert_allclose(deutsch._cesaro_limit(P)[0], np.array([12, 6, 4, 3]) / 25,
                                   rtol=1e-15)

    @pytest.mark.parametrize("P, expected", [
        ([[1.0, 5e-324], [1e-300, 1.0]], [1.0, 5e-324 / 1e-300]),
        ([[1.0, 5e-324], [4e-323, 1.0]], [8 / 9, 1 / 9]),
    ])
    def test_subnormal_escapes_do_not_overflow(self, P, expected):
        # 1 / 5e-324 overflows to inf; ratios to the smallest escape do not.
        np.testing.assert_allclose(deutsch._cesaro_limit(P)[0], expected, rtol=1e-15)

    def test_walk_matches_path_reference_bit_for_bit(self):
        # Up to 7 labels (numpy sums fewer than 8 terms in order), escapes from
        # 1e-300 to 1, some at the edge of the UNIT_EIGENVALUE_ATOL window.
        rng = np.random.default_rng(127)
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            P = np.eye(n)
            for i in range(n):
                j = int(rng.integers(n))
                if j != i and rng.random() < 0.8:
                    escape = rng.choice([10.0 ** rng.uniform(-300, 0), rng.uniform(0.0, 1.0),
                                         UNIT_EIGENVALUE_ATOL, 1.0])
                    P[i, i], P[i, j] = 1.0 - escape, escape
            p, closed = deutsch._cesaro_limit(P.tolist())
            assert np.array_equal(p, cycle_shares(P.tolist()))
            assert closed == closed_classes(P, UNIT_EIGENVALUE_ATOL)

    def test_cycle_solve_matches_cesaro_average_of_matrix_powers(self):
        # Far out, P^k repeats with the period of some cycle of at most 6 labels,
        # so its average over 60 = lcm(1..6) consecutive steps is the Cesaro limit.
        rng = np.random.default_rng(113)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            P = np.eye(n)
            for i in range(n):
                j = int(rng.integers(n))
                if j != i and rng.random() < 0.8:
                    escape = rng.uniform(0.05, 1.0)
                    P[i, i], P[i, j] = 1.0 - escape, escape
            far = np.linalg.matrix_power(P, 2 ** 20)
            average = sum(np.linalg.matrix_power(P, k) for k in range(60)) / 60
            expected = np.full(n, 1.0 / n) @ far @ average
            np.testing.assert_allclose(deutsch._cesaro_limit(P.tolist())[0], expected, atol=1e-12)

    def test_readout_matches_exact_rational_chain(self):
        # The oracle reads the float block outputs as exact rationals and solves
        # the chain by exact linear algebra on its closed classes, not by the
        # 1/e law.  A pure input's CR diagonal is within 1e-20 of it next to the
        # window; a mixed input, whose labels share the mass, within a few ulp.
        # On a mixed input every label escapes, along one cycle, and the oracle
        # equals the 1/e law exactly.
        third = Fraction(1, 3)      # 0 is transient and drains into 1; 1 and 2 absorb
        drain = [[1 - third, third, 0], [0, 1, 0], [0, 0, 1]]
        assert exact_cesaro_limit(drain) == [0, 2 * third, third]
        cycle = [[Fraction(0)] * 4 for _ in range(4)]
        for i, escape in enumerate((1, 2, 3, 4)):
            cycle[i][i], cycle[i][(i + 1) % 4] = 1 - Fraction(escape, 10), Fraction(escape, 10)
        assert exact_cesaro_limit(cycle) == [Fraction(n, 25) for n in (12, 6, 4, 3)]

        def errors(amps, kets, one_cycle=False):
            outputs = circuits.block_outputs(amps, kets)
            exact = exact_chain_readout(outputs)
            assert not one_cycle or _one_over_e_readout(outputs) == exact
            distribution = ctc_readouts(amps, kets[None])[0][0]
            return [(abs(Fraction(x) - e), e) for x, e in zip(distribution, exact)]
        mixed = ensemble(ptrace_brute(smolin_pauli_form(), 4, (0, 1))).T     # improper mixture
        for delta in (1.01e-6, 2e-6, 1e-5, 1.87e-4, 1e-2):
            for amps in (_pair_at_distance(delta), _pair_at_distance(-delta)):
                for outcome in BellLabel:
                    for bell in BellLabel:
                        kets = teleport_and_correct(bell.state_vector()[None, None], amps,
                                                    alice_outcome=outcome)[1][0]
                        assert max(error for error, _ in errors(amps, kets)) <= 1e-20
                    kets = teleport_and_correct(mixed[None], amps, alice_outcome=outcome)[1][0]
                    assert all(error <= 2e-15 * e for error, e in errors(amps, kets, True))
        rng = np.random.default_rng(131)
        for _ in range(20):
            amps = AmplitudePair.from_alpha(rng.uniform(0.05, 0.95))
            kets = ensemble(random_density(2, rng))
            assert all(error <= 2e-15 * e for error, e in errors(amps, kets, True))

    def test_closed_classes_match_reachability_oracle(self):
        # Escapes at 1/2, 1 and 2 times the window: the count drops those at or
        # below it and keeps the rest, in the same walk that solves p.
        rng = np.random.default_rng(127)
        window = UNIT_EIGENVALUE_ATOL
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            P = np.eye(n)
            for i in range(n):
                j = int(rng.integers(n))
                if j != i and rng.random() < 0.8:
                    escape = rng.choice([0.5 * window, window, 2 * window, rng.uniform(0.05, 1)])
                    P[i, i], P[i, j] = 1.0 - escape, escape
            assert deutsch._cesaro_limit(P.tolist())[1] == closed_classes(P, window)

    @pytest.mark.filterwarnings("error")
    def test_malformed_inputs_rejected(self):
        outputs = _chain_inputs(four_blocks(0.6, 0.8), [0.8, 0.6])
        with pytest.raises(InvariantViolationError):
            deutsch.apply_label_chains(outputs[None, :, :2])
        # A CR input of trace 0 (all-zero outputs) or 4 fails the row sums of the chain.
        for bad_outputs in (np.zeros((4, 4, 1)), 2 * outputs):
            with pytest.raises(InvariantViolationError, match="trace"):
                deutsch.apply_label_chains(bad_outputs[None])
        with pytest.raises(InvariantViolationError, match="finite"):
            deutsch.apply_label_chains(np.where(outputs == 0, np.nan, outputs)[None])

    @pytest.mark.filterwarnings("error")
    def test_huge_and_empty_outputs_rejected_without_warning(self):
        # A finite entry whose square overflows makes its row sum inf, which fails
        # the trace test; zero labels fail the shape test.
        outputs = _chain_inputs(four_blocks(0.6, 0.8), [0.8, 0.6])
        outputs[1, 2, 0] = 1e200
        with pytest.raises(InvariantViolationError, match="trace"):
            deutsch.apply_label_chains(outputs[None])
        with pytest.raises(InvariantViolationError, match="shape"):
            deutsch.apply_label_chains(np.zeros((0, 0, 1))[None])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, np.nan),
                                     complex(0.6, np.nan)], ids=["inf", "-inf", "inf+nanj", "nanj"])
    def test_non_finite_outputs_rejected_without_warning(self, bad):
        # Finiteness is checked only once the row sums (the trace) fail: a NaN or
        # inf entry makes its row's sum NaN or inf, and raises no warning doing so.
        outputs = _chain_inputs(four_blocks(0.6, 0.8), [0.8, 0.6])
        outputs[1, 2, 0] = bad
        with pytest.raises(InvariantViolationError, match="finite"):
            deutsch.apply_label_chains(outputs[None])


# Rows of a factor of the Smolin AB marginal: one input of the actual-state reading.
_IMPROPER_PAIRS = ensemble(ptrace_brute(smolin_pauli_form(), 4, (0, 1))).T
_STACK_PAIRS = (AmplitudePair.from_alpha(0.3), AmplitudePair.from_alpha(0.6),
                _pair_at_distance(1.01e-6), _pair_at_distance(-1.01e-6), _pair_at_distance(1e-2))


def _stage_factors(amps, rng):
    """Bob's factors of every kind the CTC stage takes at ``amps``, by kind:
    16 pure kets, 4 improper-mixture factors and 16 seeded mixed 2 x 3 factors."""
    mixed = rng.normal(size=(16, 2, 3)) + 1j * rng.normal(size=(16, 2, 3))
    return {
        "pure": [teleport_and_correct(bell.state_vector()[None, None], amps, alice_outcome=o)[1][0]
                 for bell in BellLabel for o in BellLabel],
        "improper": [teleport_and_correct(_IMPROPER_PAIRS[None], amps, alice_outcome=o)[1][0]
                     for o in BellLabel],
        "mixed": list(mixed / np.linalg.norm(mixed, axis=(1, 2))[:, None, None]),
    }


def _same_solve(stacked, alone):
    """Two (cr_out, FixedPointResult) pairs agree bit for bit."""
    (cr, fixed), (cr_alone, fixed_alone) = stacked, alone
    assert np.array_equal(fixed.fixed_point.matrix, fixed_alone.fixed_point.matrix)
    assert fixed.residual == fixed_alone.residual
    assert fixed.fp_space_dim == fixed_alone.fp_space_dim
    assert np.array_equal(cr.matrix.diagonal(), cr_alone.matrix.diagonal())
    assert protocols.modal_readout(cr) == protocols.modal_readout(cr_alone)


class TestStackedChain:
    def test_stack_matches_stacks_of_one_bit_for_bit(self):
        # Stacked matmul, trace and eigvalsh give each input the bits it
        # gets alone: pure, improper-mixture and mixed inputs, pairs mixed in
        # one stack, next to the degeneracy window and clear of it.
        rng = np.random.default_rng(181)
        outputs = {"pure": [], "improper": [], "mixed": []}
        for amps in _STACK_PAIRS:
            for kind, factors in _stage_factors(amps, rng).items():
                outputs[kind] += [circuits.block_outputs(amps, k) for k in factors]
                stacked = protocols.ctc_readouts(amps, np.array(factors))
                for readout, factor in zip(stacked, factors):
                    alone = ctc_readouts(amps, factor[None])[0]
                    assert readout[:3] == alone[:3]
                    assert np.array_equal(readout[3].fixed_point.matrix,
                                          alone[3].fixed_point.matrix)
        for kind, block_outputs in outputs.items():
            alone = [deutsch.apply_label_chains(out[None])[0] for out in block_outputs]
            for size in (1, 4, 16):
                for start in range(0, len(block_outputs), size):
                    stack = np.array(block_outputs[start:start + size])
                    for i, solved in enumerate(deutsch.apply_label_chains(stack)):
                        _same_solve(solved, alone[start + i])

    def test_stack_raises_its_lowest_failing_input(self):
        # The trace test runs on every input, then the walk, then each input's
        # residual check: a stack raises the first check any input fails,
        # wherever that input stands.  The mixed input fails the residual check
        # only at a tolerance no rounding meets.
        tight = SolverConfig(tolerance=1e-20)
        factor = np.array([[0.6, 0.3j, 0.1], [0.2, -0.5, 0.5]])
        mixed = circuits.block_outputs(AMPS, factor / np.linalg.norm(factor))
        residual = deutsch.apply_label_chains(mixed[None])[0][1].residual
        assert residual > 0
        bad_trace = 2 * mixed
        two_escapes = np.zeros((4, 4, 3), dtype=complex)      # every label stays ...
        two_escapes[:, :, 0] = np.eye(4)
        two_escapes[1, :, 0] = [0.6, 0.0, 0.8, 0.0]             # ... but 1 leaves for 0 and 2
        with pytest.raises(FixedPointConvergenceError) as info:
            deutsch.apply_label_chains(np.array([mixed, mixed]), tight)
        assert info.value.best_residual == residual
        for stack, config, match in (([mixed, bad_trace], tight, "trace"),
                                     ([bad_trace, mixed], None, "trace"),
                                     ([mixed, bad_trace], None, "trace"),
                                     ([two_escapes, bad_trace], None, "trace"),
                                     ([bad_trace, two_escapes], None, "trace"),
                                     ([mixed, two_escapes], tight, "escapes")):
            with pytest.raises(InvariantViolationError, match=match):
                deutsch.apply_label_chains(np.array(stack), config)
        solved = deutsch.apply_label_chains(np.array([mixed, mixed]))
        assert [fixed.residual for _, fixed in solved] == [residual, residual]

    def test_failed_states_raise_in_input_order(self, monkeypatch):
        # Every sigma* and CR output is checked in one stack, sigma* first: an
        # input's sigma* fails as FixedPointConvergenceError, its CR output as a
        # bare InvariantViolationError, and the lowest failing input wins.
        pure = [circuits.block_outputs(AMPS, candidate_states(AMPS)[code][:, None])
                for code in ((0, 0), (1, 1))]
        checks = deutsch._density_errors
        for planted, error, text in (({2: "output 0"}, InvariantViolationError, "output 0"),
                                     ({1: "sigma 1", 3: "output 1"}, FixedPointConvergenceError,
                                      "sigma 1"),
                                     ({1: "sigma 1", 2: "output 0"}, InvariantViolationError,
                                      "output 0")):
            monkeypatch.setattr(deutsch, "_density_errors", lambda *args, planted=planted: [
                planted.get(i, found) for i, found in enumerate(checks(*args))])
            with pytest.raises(error, match=text):
                deutsch.apply_label_chains(np.array(pure))

    @pytest.mark.filterwarnings("error")
    def test_malformed_stacks_rejected(self):
        outputs = _chain_inputs(four_blocks(0.6, 0.8), [0.8, 0.6])
        for bad in (outputs, outputs[None, :, :2], outputs[None, ..., 0], outputs[None, None],
                    np.zeros((0, 4, 4, 1)), np.zeros((1, 0, 0, 1))):
            with pytest.raises(InvariantViolationError, match="shape"):
                deutsch.apply_label_chains(bad)
        unit = candidate_states(AMPS)[(0, 0)][:, None]
        for bad in (unit, np.ones((1, 3, 1)), np.zeros((0, 2, 1)), "x"):
            with pytest.raises(InvariantViolationError):
                protocols.ctc_readouts(AMPS, bad)


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

    @pytest.mark.parametrize("n_cr, n_ctc", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 4)])
    def test_block_traces_match_brute_partial_trace(self, n_cr, n_ctc):
        # ctc_map traces out the CR block, apply_dctc the CTC block, of one product.
        rng = np.random.default_rng(100 + 10 * n_cr + n_ctc)
        n = n_cr + n_ctc
        labels = [f"q{i}" for i in range(n)]
        layout = RegisterLayout(labels, ctc=labels[n_cr:])
        u = UnitaryOperator(haar_unitary(2 ** n, rng))
        rho_cr = DensityOperator(random_density(2 ** n_cr, rng))

        def joint(sigma):
            return u.matrix @ kron(rho_cr.matrix, sigma.matrix) @ u.matrix.conj().T

        sigma = DensityOperator(random_density(2 ** n_ctc, rng))
        image = ctc_map(u, rho_cr, sigma, layout).matrix
        assert np.abs(image - ptrace_brute(joint(sigma), n, range(n_cr, n))).max() <= 1e-14
        out, result = apply_dctc(u, rho_cr, layout)
        want = ptrace_brute(joint(result.fixed_point), n, range(n_cr))
        assert np.abs(out.matrix - want).max() <= 1e-14


    def test_named_traces_are_the_einsum_traces(self):
        # The CTC and CR block traces of a joint output (CR, CTC, CR', CTC'), with
        # or without a leading stack axis, are the einsums that spell them out.
        rng = np.random.default_rng(199)
        for dims in ((2, 2), (4, 2), (2, 4), (4, 4), (2, 16), (3, 4, 4)):
            shape = dims[:-2] + dims[-2:] * 2
            joint = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            assert np.array_equal(joint.trace(0, *deutsch._CTC_AXES),
                                  np.einsum("...atbt->...ab", joint))
            assert np.array_equal(joint.trace(0, *deutsch._CR_AXES),
                                  np.einsum("...atau->...tu", joint))


class TestConfigAndResult:
    def test_config_validation(self):
        for bad in (0.0, -1e-12, float("nan"), float("inf"), float("1e400"), "1e-12", 1e-12j, None,
                    True):
            with pytest.raises(InvariantViolationError):
                SolverConfig(tolerance=bad)
        assert SolverConfig(tolerance=np.float64(1e-9)).tolerance == 1e-9

    def test_result_validation(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(InvariantViolationError):
            FixedPointResult(rho, residual=-1.0, fp_space_dim=1)
        with pytest.raises(InvariantViolationError):
            FixedPointResult(rho, residual=0.0, fp_space_dim=1, method="iterative")
        for residual, dim, what in ((float("nan"), 1, "residual"), ("0", 1, "residual"),
                                    (float("inf"), 1, "residual"),
                                    (0.0, "x", "fixed-point space dimension"),
                                    (0.0, 0, "fixed-point space dimension"),
                                    (0.0, True, "fixed-point space dimension"),
                                    (0.0, 1.0, "fixed-point space dimension")):
            with pytest.raises(InvariantViolationError, match=f"^invalid {what} "):
                FixedPointResult(rho, residual=residual, fp_space_dim=dim)
        assert FixedPointResult(rho, residual=np.float64(0.0), fp_space_dim=np.int64(1)).unique
        assert FixedPointResult(rho, residual=0.0, fp_space_dim=1).unique
        assert not FixedPointResult(rho, residual=0.0, fp_space_dim=2).unique

    _U, _RHO = UnitaryOperator(np.eye(4)), DensityOperator(np.eye(2) / 2)
    _OUTPUTS = circuits.block_outputs(AMPS, np.array([[[1.0], [0.0]]]))

    @pytest.mark.parametrize("call, args, what", [
        (solve_fixed_point, (_U, _RHO, LAYOUT_1_1, 5), "solver config"),
        (solve_fixed_point, (_U, _RHO, LAYOUT_1_1, 0), "solver config"),
        (solve_fixed_point, (_U, _RHO, LAYOUT_1_1, ""), "solver config"),
        (apply_dctc, (_U, _RHO, LAYOUT_1_1, "x"), "solver config"),
        (deutsch.apply_label_chains, (_OUTPUTS, 5), "solver config"),
        (deutsch.apply_label_chains, (_OUTPUTS, 0), "solver config"),
        (ctc_map, (np.eye(4), _RHO, _RHO, LAYOUT_1_1), "interaction"),
        (ctc_map, (_U, np.eye(2) / 2, _RHO, LAYOUT_1_1), "CR state"),
        (ctc_map, (_U, _RHO, np.eye(2) / 2, LAYOUT_1_1), "CTC state"),
        (ctc_map, (_U, _RHO, _RHO, ("c", "t")), "register layout"),
        (ctc_map, (_U, _RHO, _RHO, None), "register layout"),
        (superoperator_matrix, (np.eye(4), _RHO, LAYOUT_1_1), "interaction"),
        (superoperator_matrix, (_U, _RHO, None), "register layout"),
        (fixed_point_space_dim, (_U, np.eye(2) / 2, LAYOUT_1_1), "CR state"),
        (fixed_point_space_dim, (_U, _RHO, ("c", "t")), "register layout"),
        (teleport_and_correct, (BellLabel.PHI_PLUS.state_vector()[None, None], 0.3),
         "amplitude pair"),
        (protocols.modal_readout, (np.eye(4) / 4,), "CR state"),
        (protocols.discriminate_bells, (BellLabel.PHI_PLUS, AMPS), "Bell label sequence"),
        (protocols.discriminate_bells, ("phi+", AMPS), "Bell label sequence"),
        (protocols.discriminate_bells, ((), AMPS), "Bell label sequence"),
        (protocols.discriminate_bells, ([], AMPS), "Bell label sequence"),
        (bhw_interaction, (0.6,), "amplitude pair"),
        (candidate_states, (0.6,), "amplitude pair"),
        (circuits.block_unitary, ((0, 0), 0.6), "amplitude pair"),
        (RegisterLayout, (5,), "qubit labels"),
        (RegisterLayout, (("a",), 5), "CTC labels"),
        (RegisterLayout, ([["a"]],), "qubit labels"),
        (RegisterLayout, (("a",), [["a"]]), "CTC labels"),
        (RegisterLayout, ("ab",), "qubit labels"),
        (RegisterLayout, (("cr1", "cr2", "ctc1", "ctc2"), "ctc1"), "CTC labels"),
        (register_swap, ("2",), "block size"),
        (register_swap, (1.5,), "block size"),
        (register_swap, (True,), "block size"),
    ])
    def test_malformed_argument_is_typed_error(self, call, args, what):
        with pytest.raises(InvariantViolationError, match=f"^invalid {what} "):
            call(*args)

    @pytest.mark.parametrize("make", [list, lambda labels: (bell for bell in labels)],
                             ids=["list", "generator"])
    def test_label_iterable_runs_as_the_tuple(self, make):
        labels = tuple(BellLabel)
        expected = protocols.discriminate_bells(labels, AMPS, seed=4)
        records = protocols.discriminate_bells(make(labels), AMPS, seed=4)
        assert len(records) == len(expected)
        for got, want in zip(records, expected):
            assert (got.input_bell, got.alice_outcome, got.identified, got.outcome_probability,
                    got.fixed_point.residual, got.fixed_point.fp_space_dim) == (
                want.input_bell, want.alice_outcome, want.identified, want.outcome_probability,
                want.fixed_point.residual, want.fixed_point.fp_space_dim)
            assert got.bob_state.tobytes() == want.bob_state.tobytes()
            assert (got.fixed_point.fixed_point.matrix.tobytes()
                    == want.fixed_point.fixed_point.matrix.tobytes())
