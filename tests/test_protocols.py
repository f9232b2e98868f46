"""Teleportation, discrimination, and the distillation experiment."""

import dataclasses

import numpy as np
import pytest

import dctcsim.protocols as protocols
from dctcsim import (
    AmplitudePair,
    BellLabel,
    DegenerateAmplitudesError,
    DensityOperator,
    InvariantViolationError,
    SolverConfig,
    UnitaryOperator,
    bhw_interaction,
    bhw_layout,
    candidate_states,
    discriminate_bell,
    distill_smolin,
    kron,
    pauli_residual,
    solve_fixed_point,
    trace_norm,
)
from dctcsim.circuits import BLOCK_CODES
from dctcsim.deutsch import apply_dctc
from dctcsim.protocols import (
    ALICE_OUTCOME_BITS,
    ctc_readouts,
    modal_readout,
    teleport_and_correct,
)
from dctcsim.qmath import BELL_VECTORS, KET_0, X, Z

from oracles import (
    BELL,
    ensemble,
    haar_unitary,
    improper_mixture_branches,
    interaction,
    ptrace_brute,
    random_density,
    smolin_pauli_form,
    teleported_branch,
)

AMPS = AmplitudePair(0.6, 0.8)
PSI = np.array([0.6, 0.8], dtype=complex)


def random_amps(rng):
    alpha = rng.uniform(0.05, 0.95)
    while abs(alpha - np.sqrt(1 - alpha * alpha)) <= 1e-3:
        alpha = rng.uniform(0.05, 0.95)
    return AmplitudePair.from_alpha(alpha)


class TestTeleportAndCorrect:
    def test_phi_plus_is_identity_channel(self):
        for outcome in BellLabel:
            bob = teleport_and_correct(BellLabel.PHI_PLUS.state_vector()[None, None], AMPS,
                                       alice_outcome=outcome)[1][0, :, 0]
            assert abs(abs(np.vdot(PSI, bob)) - 1) <= 1e-12

    def test_phi_minus_leaves_phase_flip(self):
        for outcome in BellLabel:
            bob = teleport_and_correct(BellLabel.PHI_MINUS.state_vector()[None, None], AMPS,
                                       alice_outcome=outcome)[1][0, :, 0]
            assert abs(abs(np.vdot(Z @ PSI, bob)) - 1) <= 1e-12

    def test_psi_plus_leaves_bit_flip(self):
        for outcome in BellLabel:
            bob = teleport_and_correct(BellLabel.PSI_PLUS.state_vector()[None, None], AMPS,
                                       alice_outcome=outcome)[1][0, :, 0]
            assert abs(abs(np.vdot(X @ PSI, bob)) - 1) <= 1e-12

    def test_psi_minus_leaves_both_flips(self):
        target = (X @ Z) @ PSI  # 0.6|1> - 0.8|0>
        for outcome in BellLabel:
            bob = teleport_and_correct(BellLabel.PSI_MINUS.state_vector()[None, None], AMPS,
                                       alice_outcome=outcome)[1][0, :, 0]
            assert abs(abs(np.vdot(target, bob)) - 1) <= 1e-12

    def test_outcome_independence(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            amps = random_amps(rng)
            for bell in BellLabel:
                states = [teleport_and_correct(bell.state_vector()[None, None], amps,
                                               alice_outcome=outcome)[1][0, :, 0]
                          for outcome in BellLabel]
                for state in states[1:]:
                    assert abs(abs(np.vdot(states[0], state)) - 1) <= 1e-12

    def test_every_outcome_returns_residual_state(self):
        for bell in BellLabel:
            expected = pauli_residual(bell) @ PSI
            for outcome in BellLabel:
                bob = teleport_and_correct(bell.state_vector()[None, None], AMPS,
                                           alice_outcome=outcome)[1][0, :, 0]
                assert abs(abs(np.vdot(expected, bob)) - 1) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7071])
    def test_stack_matches_stacks_of_one_bit_for_bit(self, alpha):
        # n inputs in one call give the outcomes and the bytes of n calls of
        # one, drawn in input order from one generator or pinned: Bell kets
        # (one column) and random factors of the Smolin-marginal shape (four).
        amps, rng = AmplitudePair.from_alpha(alpha), np.random.default_rng(181)
        factors = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        stacks = [np.array([bell.state_vector()[None] for bell in list(BellLabel) * 3]),
                  np.concatenate([protocols._SMOLIN_AB_FACTOR,
                                  factors / np.linalg.norm(factors, axis=(1, 2))[:, None, None]])]
        for pairs in stacks:
            runs = [{"seed": seed} for seed in range(8)]
            runs += [{"alice_outcome": outcome} for outcome in BellLabel]
            for run in runs:
                outcomes, kets = teleport_and_correct(pairs, amps, **run)
                gen = np.random.default_rng(run["seed"]) if "seed" in run else None
                alone = [teleport_and_correct(pair[None], amps, gen, run.get("alice_outcome"))
                         for pair in pairs]
                assert outcomes == tuple(outcome for (outcome,), _ in alone)
                assert kets.shape == (len(pairs), 2, pairs.shape[1])
                assert kets.tobytes() == np.concatenate([k for _, k in alone]).tobytes()

    def test_outcome_bits_are_phase_then_flip(self):
        # Pinned apart from the label order they are derived from.
        assert ALICE_OUTCOME_BITS == {BellLabel.PHI_PLUS: (0, 0), BellLabel.PSI_PLUS: (0, 1),
                                      BellLabel.PHI_MINUS: (1, 0), BellLabel.PSI_MINUS: (1, 1)}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pinned", [None, BellLabel.PHI_PLUS], ids=["drawn", "pinned"])
    @pytest.mark.parametrize("pairs", [
        None, "phi+", np.zeros(4), BellLabel.PHI_PLUS.state_vector()[None], np.zeros((1, 1, 3)),
        np.zeros((1, 0, 4)), np.zeros((0, 1, 4)), np.zeros((1, 1, 4)), np.ones((1, 1, 4)),
        np.full((1, 1, 4), np.nan), np.full((1, 1, 4), np.inf),
        np.stack([BellLabel.PHI_PLUS.state_vector()[None], np.full((1, 4), np.nan)]),
    ], ids=["none", "str", "flat", "kx4", "1x3", "0x4", "empty-stack", "zero", "trace4", "nan",
            "inf", "second-nan"])
    def test_malformed_pair_factor_rejected(self, pairs, pinned):
        with pytest.raises(InvariantViolationError, match="pair factor"):
            teleport_and_correct(pairs, AMPS, seed=0, alice_outcome=pinned)

    @pytest.mark.filterwarnings("error")
    def test_pinned_outcome_of_zero_probability_rejected(self):
        # At (0.6, 0.8) the factor (0.8, 0, -0.6, 0) gives phi+ a probability
        # of ~3.5e-35, zero up to rounding: pinned, it is refused, naming the
        # input and its probability, not normalised from rounding noise.
        amps = AmplitudePair(0.6, 0.8)
        pairs = np.array([BellLabel.PHI_PLUS.state_vector()[None], [[0.8, 0, -0.6, 0]]])
        with pytest.raises(InvariantViolationError,
                           match=r"^Alice outcome phi\+ has probability "
                                 r"[-+.e\d]+ for pair factor 1$"):
            teleport_and_correct(pairs, amps, alice_outcome=BellLabel.PHI_PLUS)
        # Every outcome of positive probability stays pinnable.
        for outcome in (BellLabel.PHI_MINUS, BellLabel.PSI_PLUS, BellLabel.PSI_MINUS):
            outcomes, kets = teleport_and_correct(pairs, amps, alice_outcome=outcome)
            assert outcomes == (outcome, outcome)
            assert np.allclose(np.linalg.norm(kets, axis=1), 1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("slack", [-0.99e-12, 0.99e-12])
    def test_pair_at_normalisation_edge_discriminates(self, slack):
        # The pair's own slack enters sum_k p_k but not the trace of rho_AB.
        beta = np.sqrt(1 - 0.36 + slack)
        amps = AmplitudePair(0.6, beta)
        assert abs(amps.alpha ** 2 + amps.beta ** 2 - 1 - slack) <= 1e-15
        for bell in BellLabel:
            for seed in range(4):
                assert discriminate_bell(bell, amps, seed=seed).identified is bell

    def test_outcomes_equally_likely(self):
        rng = np.random.default_rng(149)
        for _ in range(25):
            amps = random_amps(rng)
            for bell in BellLabel:
                distribution = protocols._alice_branches(bell.state_vector(), amps)[1]
                for probability in distribution:
                    assert abs(probability - 0.25) <= 1e-12


class TestAliceMeasurement:
    """The one-product Bell measurement against a kron-and-project loop."""

    def test_branches_match_loop_reference(self):
        rng = np.random.default_rng(163)
        for _ in range(25):
            amps = random_amps(rng)
            psi = np.array([amps.alpha, amps.beta], dtype=complex)
            for bell in BellLabel:
                distribution = protocols._alice_branches(bell.state_vector(), amps)[1]
                for k, outcome in enumerate(BellLabel):
                    qubit, probability = teleported_branch(psi, bell.value, outcome.value)
                    bob = teleport_and_correct(bell.state_vector()[None, None], amps,
                                               alice_outcome=outcome)[1][0, :, 0]
                    assert np.abs(bob - qubit).max() <= 1e-14
                    assert abs(distribution[k] - probability) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7071])
    def test_seeded_draw_follows_reference_weights(self, alpha):
        amps = AmplitudePair.from_alpha(alpha)
        psi = np.array([amps.alpha, amps.beta], dtype=complex)
        outcomes = list(BELL)
        for bell in BellLabel:
            weights = np.array([teleported_branch(psi, bell.value, o)[1] for o in outcomes])
            for seed in range(200):
                drawn = np.random.default_rng(seed).choice(4, p=weights / weights.sum())
                expected = ALICE_OUTCOME_BITS[BellLabel.from_string(outcomes[drawn])]
                assert discriminate_bell(bell, amps, seed=seed).alice_outcome == expected

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7071])
    def test_stacked_draws_equal_row_by_row_choice(self, alpha):
        # One call draws each input's outcome as Generator.choice does, row by
        # row from one generator, and takes one double per input from it.
        amps, rng = AmplitudePair.from_alpha(alpha), np.random.default_rng(197)
        a, b = amps.alpha, amps.beta
        # Rows with Alice's half (b, -a) give phi+ probability 0, and (b, a) phi-.
        zero = np.array([[[b, 0, -a, 0], [0, b, 0, -a]], [[b, 0, a, 0], [0, b, 0, a]]]) / np.sqrt(2)
        zero_p = np.add.reduce(protocols._alice_branches(zero, amps)[1], axis=1)
        assert zero_p[0, 0] <= 1e-30 and zero_p[1, 1] <= 1e-30
        # The four-Bell stack of table1 and smolin, the Smolin AB marginal,
        # random stacks of 1 to 5, and five inputs of which two have a zero.
        stacks = [protocols._BELL_KETS, protocols._SMOLIN_AB_FACTOR, zero]
        for n, k in [(1, 1), (2, 4), (3, 2), (4, 3), (5, 4), (3, 2)]:
            factors = rng.normal(size=(n, k, 4)) + 1j * rng.normal(size=(n, k, 4))
            stacks.append(factors / np.linalg.norm(factors, axis=(1, 2))[:, None, None])
        stacks[-1] = np.concatenate([stacks[-1], zero])
        for pairs in stacks:
            p = np.add.reduce(protocols._alice_branches(pairs, amps)[1], axis=1)
            for seed in range(50):
                reference = np.random.default_rng(seed)
                drawn = tuple(list(BellLabel)[reference.choice(4, p=row / row.sum())]
                              for row in p)
                generator = np.random.default_rng(seed)
                assert teleport_and_correct(pairs, amps, seed)[0] == drawn
                assert teleport_and_correct(pairs, amps, generator)[0] == drawn
                assert generator.random() == reference.random()


class TestDecompositionIdentities:
    def test_all_four_identities(self):
        residual = {label: pauli_residual(label) for label in BellLabel}
        rng = np.random.default_rng(151)
        for _ in range(100):
            amps = random_amps(rng)
            psi = np.array([amps.alpha, amps.beta], dtype=complex)
            for bell in BellLabel:
                lhs = kron(psi, BELL_VECTORS[bell.value])
                rhs = sum(
                    0.5 * kron(BELL_VECTORS[outcome.value],
                               residual[bell] @ residual[outcome] @ psi)
                    for outcome in BellLabel)
                assert np.abs(lhs - rhs).max() <= 1e-12


class TestDiscriminateBell:
    @pytest.mark.parametrize("bell,expected_bits", [
        (BellLabel.PHI_PLUS, (0, 0)),
        (BellLabel.PHI_MINUS, (0, 1)),
        (BellLabel.PSI_PLUS, (1, 0)),
        (BellLabel.PSI_MINUS, (1, 1)),
    ])
    def test_readout_bits(self, bell, expected_bits):
        record = discriminate_bell(bell, AMPS, seed=0)
        assert record.b1b2 == expected_bits
        assert record.identified is bell

    def test_exhaustive_over_alice_outcomes(self):
        for bell in BellLabel:
            for outcome in BellLabel:
                record = discriminate_bell(bell, AMPS, alice_outcome=outcome)
                assert record.identified is bell
                assert record.alice_outcome == ALICE_OUTCOME_BITS[outcome]

    def test_modal_probability_is_exactly_half(self):
        # With the bare block formulas (no zero-controlled NOT on the CTC
        # ancilla), half of the maximally-mixed seed lives in the conserved
        # opposite-ancilla half of the label space, so the consistent label
        # carries weight exactly 0.5 in the converged CTC state.
        u = UnitaryOperator(interaction(0.6, 0.8, "literal"))
        for bell in BellLabel:
            bob = teleport_and_correct(bell.state_vector()[None, None], AMPS,
                                       alice_outcome=BellLabel.PHI_PLUS)[1][0, :, 0]
            rho_cr = DensityOperator.from_state_vector(kron(bob, KET_0))
            cr_out, fixed = apply_dctc(u, rho_cr, bhw_layout())
            _, b1b2, probability = modal_readout(cr_out)
            assert list(BellLabel)[BLOCK_CODES.index(b1b2)] is bell
            assert abs(probability - 0.5) <= 1e-9
            assert fixed.fp_space_dim == 2

    def test_fixed_point_diagnostics(self):
        record = discriminate_bell(BellLabel.PHI_PLUS, AMPS, seed=2)
        assert record.fixed_point.fp_space_dim == 1
        assert record.fixed_point.unique
        assert record.fixed_point.residual < 1e-12
        assert record.outcome_probability >= 1 - 1e-12

    def test_long_solve_keeps_unit_trace(self):
        # Near alpha = beta the spectral gap of the channel is small; rounding
        # must not drift the fixed point's trace past the DensityOperator
        # check at these alphas.
        for alpha in (0.695, 0.698):
            record = discriminate_bell(BellLabel.PHI_PLUS, AmplitudePair.from_alpha(alpha),
                                       alice_outcome=BellLabel.PHI_PLUS)
            assert record.identified is BellLabel.PHI_PLUS

    def test_probability_bound_matches_density_operator(self):
        # A valid CR state may carry a diagonal of 1 + 1e-11: its trace is 1
        # and its lowest eigenvalue -1e-11 is within the PSD tolerance.
        cr_out = DensityOperator(np.diag([1 + 1e-11, -1e-11, 0, 0]))
        _, _, probability = modal_readout(cr_out)
        record = discriminate_bell(BellLabel.PHI_PLUS, AMPS, seed=0)
        accepted = dataclasses.replace(record, identified=BellLabel.PHI_PLUS,
                                       outcome_probability=probability)
        assert accepted.outcome_probability == 1 + 1e-11
        with pytest.raises(InvariantViolationError):
            dataclasses.replace(record, outcome_probability=1 + 1e-9)

    def test_invalid_alice_outcome_rejected(self):
        for bad in (3, (0, 2), "00", np.array([0, 1]), (0, 1)):
            with pytest.raises(InvariantViolationError):
                discriminate_bell(BellLabel.PHI_PLUS, AMPS, alice_outcome=bad)
            with pytest.raises(InvariantViolationError):
                teleport_and_correct(BellLabel.PHI_PLUS.state_vector()[None, None], AMPS,
                                     alice_outcome=bad)

    def test_record_reads_its_code_from_its_label(self):
        # The record stores the identified label only; b1b2 is that label's code.
        record = discriminate_bell(BellLabel.PHI_PLUS, AMPS, seed=0)
        for label, code in zip(BellLabel, ((0, 0), (0, 1), (1, 0), (1, 1))):
            assert dataclasses.replace(record, identified=label).b1b2 == code
        for bad in ("phi+", None, (0, 0), 0):
            with pytest.raises(InvariantViolationError, match="invalid Bell label"):
                dataclasses.replace(record, identified=bad)

    def test_from_string_reads_each_name(self):
        for label in BellLabel:
            assert BellLabel.from_string(label.value) is label
        for bad in ("bogus", "PHI_PLUS", "", None, 0, ["phi+"]):
            with pytest.raises(InvariantViolationError, match="unknown Bell label"):
                BellLabel.from_string(bad)

    def test_invalid_bell_rejected(self):
        for bad in ("phi+", None):
            with pytest.raises(InvariantViolationError, match="Bell label"):
                discriminate_bell(bad, AMPS, seed=0)
            with pytest.raises(InvariantViolationError, match="Bell label"):
                pauli_residual(bad)

    def test_seed_reproducibility(self):
        a = discriminate_bell(BellLabel.PSI_MINUS, AMPS, seed=42)
        b = discriminate_bell(BellLabel.PSI_MINUS, AMPS, seed=42)
        assert a.alice_outcome == b.alice_outcome
        assert a.outcome_probability == b.outcome_probability
        np.testing.assert_array_equal(a.bob_state, b.bob_state)

    def test_bob_state_is_the_teleported_ket_read_only(self):
        for bell in BellLabel:
            record = discriminate_bell(bell, AMPS, seed=3)
            _, kets = teleport_and_correct(bell.state_vector()[None, None], AMPS, seed=3)
            assert not record.bob_state.flags.writeable
            assert record.bob_state.tobytes() == kets[0, :, 0].tobytes()

    def test_alice_outcomes_vary_with_seed(self):
        seen = {discriminate_bell(BellLabel.PHI_PLUS, AMPS, seed=s).alice_outcome
                for s in range(32)}
        assert len(seen) == 4

    @pytest.mark.parametrize("seed", [-1, 1.5])
    @pytest.mark.parametrize("run", [
        lambda seed: discriminate_bell(BellLabel.PHI_PLUS, AMPS, seed=seed),
        lambda seed: distill_smolin(AMPS, seed=seed),
    ], ids=["discriminate_bell", "distill_smolin"])
    def test_bad_seed_is_typed_error(self, run, seed):
        with pytest.raises(InvariantViolationError, match="seed"):
            run(seed)

    def test_degenerate_pair_is_refused_by_the_protocols_and_solved_by_the_stage(self):
        # At alpha = beta the pair is valid: every protocol that claims a
        # discrimination refuses it, and the CTC stage and the solver report
        # the larger fixed-point space.
        amps = AmplitudePair.from_alpha(1 / np.sqrt(2))
        assert amps.is_degenerate
        for refuse in (lambda: discriminate_bell(BellLabel.PHI_PLUS, amps, seed=0),
                       lambda: protocols.discriminate_bells(tuple(BellLabel), amps, seed=0),
                       lambda: distill_smolin(amps, seed=0)):
            with pytest.raises(DegenerateAmplitudesError):
                refuse()
        config = SolverConfig()
        states = np.array(list(candidate_states(amps).values()))[:, :, None]
        fixed = [result for *_, result in ctc_readouts(amps, states, config)]
        u = bhw_interaction(amps)
        for state in states[:, :, 0]:
            rho_cr = DensityOperator(kron(np.outer(state, state.conj()), np.diag([1.0, 0.0])))
            fixed.append(solve_fixed_point(u, rho_cr, bhw_layout(), config))
        assert len(fixed) == 8
        for result in fixed:
            assert isinstance(result.fixed_point, DensityOperator)
            assert result.residual <= config.tolerance
            assert result.fp_space_dim >= 2 and not result.unique

    @pytest.mark.parametrize("run", [
        lambda amps, config: discriminate_bell(BellLabel.PHI_PLUS, amps, config),
        lambda amps, config: distill_smolin(amps, config),
        lambda amps, config: ctc_readouts(amps, np.array([[[1.0], [0.0]]]), config),
    ], ids=["discriminate_bell", "distill_smolin", "ctc_readouts"])
    @pytest.mark.parametrize("amps, config, message", [
        (0.3, None, "invalid amplitude pair"),
        ((0.6, 0.8), None, "invalid amplitude pair"),
        (AMPS, 1e-9, "invalid solver config"),
        (AMPS, {"tolerance": 1e-9}, "invalid solver config"),
    ], ids=["float-amps", "tuple-amps", "float-config", "dict-config"])
    def test_malformed_amps_or_config_is_typed_error(self, run, amps, config, message):
        with pytest.raises(InvariantViolationError, match=message):
            run(amps, config)

    def test_nonorthogonal_states_distinguished(self):
        # the four candidates are pairwise non-orthogonal yet the readout
        # label separates them for every Alice outcome
        rng = np.random.default_rng(157)
        amps = random_amps(rng)
        seen = set()
        for bell in BellLabel:
            record = discriminate_bell(bell, amps, alice_outcome=BellLabel.PHI_PLUS)
            seen.add(record.b1b2)
        assert len(seen) == 4


@pytest.fixture(scope="module")
def report():
    return distill_smolin(AMPS, SolverConfig(), seed=0)


class TestDistillSmolin:
    def test_all_branches_identified(self, report):
        assert report.all_identified
        assert len(report.branches) == 4
        for branch in report.branches:
            assert branch.message is branch.branch
            assert branch.probability == 0.25

    def test_cd_pair_is_one_known_ebit(self, report):
        for branch in report.branches:
            assert branch.cd_fidelity >= 1 - 1e-12
            assert abs(branch.cd_log_negativity - 1.0) <= 1e-12

    def test_baseline_reported(self, report):
        assert set(report.baseline_log_negativity) == {"AB:CD", "AC:BD", "AD:BC"}
        for value in report.baseline_log_negativity.values():
            assert abs(value) <= 1e-10
        assert all(report.baseline_ppt.values())

    def test_phi_minus_branch_message(self, report):
        branch = next(b for b in report.branches if b.branch is BellLabel.PHI_MINUS)
        assert branch.message is BellLabel.PHI_MINUS
        assert abs(np.vdot(BELL_VECTORS["phi-"], branch.branch.state_vector())) ** 2 >= 1 - 1e-12


class TestImproperMixture:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.7071])
    def test_matches_three_qubit_projector_reference(self, alpha):
        amps = AmplitudePair.from_alpha(alpha)
        rho_ab = ptrace_brute(smolin_pauli_form(), 4, (0, 1))

        def run(seed):
            (outcome,), (kets,) = teleport_and_correct(protocols._SMOLIN_AB_FACTOR, amps, seed)
            return ALICE_OUTCOME_BITS[outcome], kets @ kets.conj().T
        _assert_runs_match_reference(run, amps, rho_ab, range(200))

    def test_generic_marginal_matches_reference(self):
        # The Smolin marginal is I/4, which leaves Bob at I/2 on every outcome;
        # a random marginal's eigh factor checks the branch mixture itself.
        rng = np.random.default_rng(167)
        for _ in range(20):
            rho_ab = ptrace_brute(random_density(16, rng), 4, (0, 1))
            factor = ensemble(rho_ab).T

            def run(seed):
                (outcome,), (kets,) = teleport_and_correct(factor[None], AMPS, seed)
                return ALICE_OUTCOME_BITS[outcome], kets @ kets.conj().T
            _assert_runs_match_reference(run, AMPS, rho_ab, range(10))


def _assert_runs_match_reference(run, amps, rho_ab, seeds):
    """Each seeded ``run(seed) -> (Alice's outcome bits, Bob's state)`` draws
    the outcome the reference weights give, and hands the CTC stage the
    reference's corrected Bob state."""
    psi = np.array([amps.alpha, amps.beta], dtype=complex)
    reference = improper_mixture_branches(psi, rho_ab)
    outcomes = list(BELL)
    weights = np.array([reference[o][1] for o in outcomes])
    for seed in seeds:
        drawn = outcomes[np.random.default_rng(seed).choice(4, p=weights / weights.sum())]
        bits, bob = run(seed)
        assert bits == ALICE_OUTCOME_BITS[BellLabel.from_string(drawn)]
        assert np.abs(bob - reference[drawn][0]).max() <= 1e-14


class TestCtcReadout:
    def test_each_candidate_reads_its_own_label(self):
        for code, state in candidate_states(AMPS).items():
            distribution, b1b2, probability, fixed = ctc_readouts(
                AMPS, ensemble(np.outer(state, state.conj()))[None])[0]
            assert b1b2 == code
            assert probability == max(distribution) >= 1 - 1e-12
            assert fixed.unique and fixed.residual < 1e-12
            assert fixed.method == "chain"

    def test_matches_the_hand_built_stage(self):
        rng = np.random.default_rng(163)
        u = UnitaryOperator(interaction(0.6, 0.8))
        for _ in range(5):
            rho_bob = random_density(2, rng)
            rho_cr = DensityOperator(kron(rho_bob, np.outer(KET_0, KET_0)))
            cr_out, expected = apply_dctc(u, rho_cr, bhw_layout())
            distribution, b1b2, probability, fixed = ctc_readouts(AMPS, ensemble(rho_bob)[None])[0]
            want_distribution, want_b1b2, want_probability = modal_readout(cr_out)
            np.testing.assert_allclose(distribution, want_distribution, atol=1e-12)
            assert b1b2 == want_b1b2
            assert abs(probability - want_probability) <= 1e-12
            assert fixed.fp_space_dim == expected.fp_space_dim

    def test_invalid_bob_state_rejected(self):
        unit = candidate_states(AMPS)[(0, 0)][:, None]
        for kets in (
                unit[:, 0],                                      # not 2 x k
                np.ones((4, 1)),
                np.eye(2),                                       # trace 2
                np.ones((2, 1)),                                 # a ket of norm^2 2
                unit * np.sqrt(0.5),                             # trace 0.5
                np.zeros((2, 1)),                                # trace 0
                np.hstack([unit, np.full((2, 1), np.nan)])):     # a NaN entry
            with pytest.raises(InvariantViolationError):
                ctc_readouts(AMPS, kets[None])

    def test_ensembles_of_one_state_agree(self):
        # Bob's qubit is his density matrix K K^dag, whatever factor gives it:
        # a ket and the eigen-factor of its projector, and the eigen-factor K
        # of a random state and K V for a Haar isometry V (V V^dag = I), solve
        # to the same readout.
        rng = np.random.default_rng(173)
        pairs = [(state[:, None], ensemble(np.outer(state, state.conj())))
                 for state in candidate_states(AMPS).values()]
        for _ in range(200):
            factor = ensemble(random_density(2, rng))
            pairs.append((factor, factor @ haar_unitary(3, rng)[:2]))
        for first, second in pairs:
            one, other = ctc_readouts(AMPS, first[None])[0], ctc_readouts(AMPS, second[None])[0]
            np.testing.assert_allclose(one[0], other[0], rtol=0, atol=1e-12)
            assert trace_norm(one[3].fixed_point.matrix - other[3].fixed_point.matrix) <= 1e-12

    def test_degenerate_pair_is_solved_not_rejected(self):
        # The degeneracy check belongs to the callers; the stage itself
        # reports the larger fixed-point space.
        amps = AmplitudePair.from_alpha(1 / np.sqrt(2))
        state = candidate_states(amps)[(0, 0)]
        _, _, _, fixed = ctc_readouts(amps, ensemble(np.outer(state, state.conj()))[None])[0]
        assert fixed.fp_space_dim >= 2


class TestModalReadout:
    def test_near_tie_goes_to_lowest_label(self):
        cr_out = DensityOperator(np.diag([0.25, 0.25 - 1e-12, 0.25 + 1e-12, 0.25]))
        distribution, b1b2, probability = modal_readout(cr_out)
        assert b1b2 == (0, 0)
        assert probability == distribution[0] == 0.25

    def test_clear_maximum_wins(self):
        _, b1b2, probability = modal_readout(DensityOperator(np.diag([0.1, 0.2, 0.6, 0.1])))
        assert b1b2 == (1, 0)
        assert probability == 0.6

    def test_register_of_other_size_rejected(self):
        # One qubit would read as (0, 1) and three would index past BLOCK_CODES.
        for diagonal in ([0.1, 0.9], [0.0] * 7 + [1.0]):
            with pytest.raises(InvariantViolationError, match="two qubits"):
                modal_readout(DensityOperator(np.diag(diagonal)))
