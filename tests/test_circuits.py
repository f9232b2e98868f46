"""Block unitaries, the full interaction, and Bell projectors."""

import dataclasses

import numpy as np
import pytest

from dctcsim import (
    AmplitudePair,
    BellLabel,
    DegenerateAmplitudesError,
    InvariantViolationError,
    UnitaryOperator,
    bell_projectors,
    bhw_interaction,
    bhw_layout,
    block_unitary,
    candidate_states,
    discriminate_bell,
    kron,
    register_swap,
)
from dctcsim.circuits import BLOCK_CODES
from dctcsim.qmath import UNIT_EIGENVALUE_ATOL

from oracles import discrimination_chain, four_blocks, interaction, ket, qubit_swap

AMPS = AmplitudePair(0.6, 0.8)


def random_amps(rng):
    alpha = rng.uniform(0.05, 0.95)
    while abs(alpha - np.sqrt(1 - alpha * alpha)) <= 1e-3:
        alpha = rng.uniform(0.05, 0.95)
    return AmplitudePair.from_alpha(alpha)


class TestAmplitudePair:
    def test_from_alpha_normalizes(self):
        amps = AmplitudePair.from_alpha(0.3)
        assert abs(amps.alpha ** 2 + amps.beta ** 2 - 1) <= 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantViolationError):
            AmplitudePair(0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvariantViolationError):
            AmplitudePair(1.0, 0.0)
        with pytest.raises(InvariantViolationError):
            AmplitudePair.from_alpha(-0.2)

    def test_rejects_complex(self):
        with pytest.raises(InvariantViolationError):
            AmplitudePair(0.6 + 0j, 0.8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build, name", [
        (lambda: AmplitudePair.from_alpha(10 ** 400), "alpha"),
        (lambda: AmplitudePair(10 ** 400, 0), "alpha"),
        (lambda: AmplitudePair(0.6, -10 ** 400), "beta"),
    ], ids=["from_alpha", "alpha", "beta"])
    def test_int_past_the_float_range_is_typed_error(self, build, name):
        # float() of such an int raises OverflowError; the pair names the value.
        with pytest.raises(InvariantViolationError,
                           match=rf"^{name} must lie strictly between 0 and 1, got -?1000"):
            build()

    @pytest.mark.parametrize("amps", [
        AmplitudePair.from_alpha(1 / np.sqrt(2)),
        AmplitudePair.from_alpha(0.70710678),       # |alpha - beta| ~ 1e-9
        # alpha -> 0 or beta -> 0: the candidates coalesce pairwise there too
        AmplitudePair.from_alpha(1e-7), AmplitudePair(float(np.sqrt(1 - 1e-14)), 1e-7),
        AmplitudePair.from_alpha(6e-7), AmplitudePair(float(np.sqrt(1 - 36e-14)), 6e-7),
    ], ids=["half", "near-half", "alpha-1e-7", "beta-1e-7", "alpha-6e-7", "beta-6e-7"])
    def test_degenerate_pair_is_valid_and_reported(self, amps):
        # The pair itself is valid; the discrimination refuses it.
        assert amps.is_degenerate
        with pytest.raises(DegenerateAmplitudesError):
            discriminate_bell(BellLabel.PHI_PLUS, amps, seed=0)

    def test_clear_of_the_window_is_not_degenerate(self):
        for amps in (AmplitudePair.from_alpha(7.2e-7),
                     AmplitudePair(float(np.sqrt(1 - 7.2e-7 ** 2)), 7.2e-7)):
            assert not amps.is_degenerate
            for bell in BellLabel:
                assert discriminate_bell(bell, amps, seed=0).identified is bell

    def test_has_two_fields(self):
        amps = AmplitudePair.from_alpha(0.6)
        assert [f.name for f in dataclasses.fields(amps)] == ["alpha", "beta"]
        assert amps == AmplitudePair(0.6, 0.8) and repr(amps) == "AmplitudePair(alpha=0.6, beta=0.8)"


class TestBlockUnitaries:
    def test_code_00_maps_first_candidate(self):
        vin = kron(np.array([0.6, 0.8]), ket("0"))
        vout = block_unitary((0, 0), AMPS).matrix @ vin
        np.testing.assert_allclose(vout, ket("00"), atol=1e-12)

    def test_code_10_maps_third_candidate(self):
        vin = kron(np.array([0.8, 0.6]), ket("0"))
        vout = block_unitary((1, 0), AMPS).matrix @ vin
        np.testing.assert_allclose(vout, ket("10"), atol=1e-12)

    def test_code_11_maps_fourth_candidate_up_to_phase(self):
        vin = kron(np.array([0.8, -0.6]), ket("0"))
        vout = block_unitary((1, 1), AMPS).matrix @ vin
        assert abs(abs(np.vdot(ket("11"), vout)) - 1) <= 1e-12

    def test_four_outcome_map(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            amps = random_amps(rng)
            a, b = amps.alpha, amps.beta
            targets = {
                (0, 0): np.array([a, b]),
                (0, 1): np.array([a, -b]),
                (1, 0): np.array([b, a]),
                (1, 1): np.array([b, -a]),
            }
            for code, state in targets.items():
                vin = kron(state.astype(complex), ket("0"))
                vout = block_unitary(code, amps).matrix @ vin
                marker = ket(f"{code[0]}{code[1]}")
                assert abs(abs(np.vdot(marker, vout)) - 1) <= 1e-12

    def test_unitarity_including_degenerate(self):
        rng = np.random.default_rng(43)
        pairs = [random_amps(rng) for _ in range(100)]
        pairs.append(AmplitudePair.from_alpha(1 / np.sqrt(2)))
        for amps in pairs:
            for code in BLOCK_CODES:
                u = block_unitary(code, amps).matrix
                assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-10

    def test_matches_formula_oracle(self):
        blocks = four_blocks(0.6, 0.8)
        for code in BLOCK_CODES:
            np.testing.assert_allclose(
                block_unitary(code, AMPS).matrix, blocks[code], atol=1e-15)
        np.testing.assert_allclose(bhw_interaction(AMPS).matrix, interaction(0.6, 0.8),
                                   atol=1e-15)

    def test_invalid_code_rejected(self):
        for bad in ((2, 0), "012", "ab", (0,), 5, None, "10", [1, 0], np.array([1, 0]),
                    (np.array([1, 0]), np.array([0, 1])), (True, 0), (1, False), (1.0, 0)):
            with pytest.raises(InvariantViolationError):
                block_unitary(bad, AMPS)


class TestInteraction:
    def test_unitary(self):
        u = bhw_interaction(AMPS).matrix
        assert np.abs(u.conj().T @ u - np.eye(16)).max() <= 1e-10

    def test_swap_then_dispatch_on_basis_input(self):
        # CR |00>, CTC |10>: the swap moves |00> into the CTC, the CR now
        # reads |10> and so U_10 acts on |00>.
        vin = kron(ket("00"), ket("10"))
        vout = bhw_interaction(AMPS).matrix @ vin
        # (X (x) I)(R_10 (x) I)|00> = -0.6|00> + 0.8|10>, then the
        # zero-controlled NOT flips the ancilla of the |0x> term.
        expected = kron(ket("10"), np.array([0.0, -0.6, 0.8, 0.0]))
        np.testing.assert_allclose(vout, expected, atol=1e-12)

    def test_worked_instance_consistency(self):
        # CR input (0.6|1> + 0.8|0>) (x) |0> with CTC label |10> comes back
        # to |10> on the CTC and leaves |10> on the CR.
        vin = kron(np.array([0.8, 0.6]), ket("0"), ket("10"))
        vout = bhw_interaction(AMPS).matrix @ vin
        np.testing.assert_allclose(vout, ket("1010"), atol=1e-12)

    def test_block_extraction(self):
        u = bhw_interaction(AMPS).matrix
        controlled = u @ register_swap(2).matrix.conj().T
        for idx, code in enumerate(BLOCK_CODES):
            block = controlled[4 * idx:4 * idx + 4, 4 * idx:4 * idx + 4]
            np.testing.assert_allclose(
                block, block_unitary(code, AMPS).matrix, atol=1e-14)
        off = controlled.copy()
        for idx in range(4):
            off[4 * idx:4 * idx + 4, 4 * idx:4 * idx + 4] = 0
        assert np.abs(off).max() <= 1e-14

    def test_label_chain_has_a_unique_stationary_state(self):
        # The CTC fixed points are the stationary states of the label chain;
        # for the default blocks the consistent label must be the only one.
        rng = np.random.default_rng(47)
        for _ in range(100):
            amps = random_amps(rng)
            a, b = amps.alpha, amps.beta
            for bob in ([a, b], [a, -b], [b, a], [-b, a]):
                moduli = np.sort(np.abs(np.linalg.eigvals(
                    discrimination_chain(a, b, np.array(bob)))))[::-1]
                assert np.sum(np.abs(moduli - 1.0) <= 1e-9) == 1
                assert moduli[1] < 1.0

    @pytest.mark.parametrize("alpha", [
        5e-7, 1e-6, 1e-3, 0.3, 0.6, 0.7, 0.7071, 0.7071066, 0.7071068, 0.7071075,
        0.7072, 0.9, 0.999999, (1 - 2.5e-13) ** 0.5])
    def test_label_chain_gap_is_g(self, alpha):
        # 1 - |lambda_2| of the label chain on a candidate input is
        # g = min((a^2 - b^2)^2, 4 a^2 b^2), the quantity is_degenerate bounds:
        # alpha runs on both sides of 1/sqrt(2) and near 0 and 1, each side of
        # the degeneracy window.
        amps = AmplitudePair.from_alpha(alpha)
        a2, b2 = amps.alpha ** 2, amps.beta ** 2
        g = min((a2 - b2) ** 2, 4 * a2 * b2)
        assert amps.is_degenerate == (g <= UNIT_EIGENVALUE_ATOL)
        for state in candidate_states(amps).values():
            moduli = np.sort(np.abs(np.linalg.eigvals(
                discrimination_chain(amps.alpha, amps.beta, state))))
            assert abs((1 - moduli[-2]) - g) <= 1e-12

    def test_layout_matches(self):
        layout = bhw_layout()
        assert layout.cr_labels == ("cr1", "cr2")
        assert layout.ctc_labels == ("ctc1", "ctc2")
        assert layout.dim == 16


class TestCandidateStates:
    def test_candidates_are_normalized_and_keyed(self):
        states = candidate_states(AMPS)
        assert set(states) == set(BLOCK_CODES)
        for state in states.values():
            assert abs(np.linalg.norm(state) - 1) <= 1e-15

    def test_candidates_match_their_formulas(self):
        # Pinned apart from the Pauli table they are derived from.
        rng = np.random.default_rng(53)
        pairs = [random_amps(rng) for _ in range(50)]
        pairs.append(AmplitudePair.from_alpha(1 / np.sqrt(2)))
        for amps in pairs:
            a, b = amps.alpha, amps.beta
            expected = {(0, 0): [a, b], (0, 1): [a, -b], (1, 0): [b, a], (1, 1): [-b, a]}
            states = candidate_states(amps)
            assert list(states) == list(expected)
            for code, vector in expected.items():
                assert states[code].dtype == complex
                assert np.array_equal(states[code], vector)


class TestRegisterSwap:
    def test_single_qubit_block_is_swap_gate(self):
        np.testing.assert_array_equal(register_swap(1).matrix, qubit_swap(2, 0, 1))

    def test_involution(self):
        # Exchanging the registers is the product of the qubit swaps k <-> k + n.
        for n in (1, 2, 3):
            s = register_swap(n).matrix
            expected = np.eye(4 ** n)
            for k in range(n):
                expected = qubit_swap(2 * n, k, k + n) @ expected
            np.testing.assert_array_equal(s, expected)
            np.testing.assert_array_equal(s @ s, np.eye(4 ** n))

    @pytest.mark.parametrize("size", [5, 30])
    def test_more_than_four_qubits_refused_before_allocation(self, size, monkeypatch):
        # 5 qubits would ask for a 1024 x 1024 matrix, 30 for one numpy cannot make.
        def no_eye(*args, **kwargs):
            raise AssertionError("register_swap allocated its matrix")

        monkeypatch.setattr(np, "eye", no_eye)
        with pytest.raises(InvariantViolationError,
                           match=f"^invalid block size {size}: need an int from 1 to 4$"):
            register_swap(size)


class TestBellProjectors:
    def test_completeness(self):
        total = sum(bell_projectors().values())
        np.testing.assert_allclose(total, np.eye(8), atol=1e-15)

    def test_eigenvector(self):
        from dctcsim.qmath import PHI_PLUS
        vec = kron(PHI_PLUS, ket("0"))
        np.testing.assert_allclose(bell_projectors()["phi+"] @ vec, vec, atol=1e-14)

    def test_quarter_weight(self):
        from dctcsim.qmath import PHI_PLUS
        vec = kron(np.array([0.6, 0.8]), PHI_PLUS)
        weight = np.vdot(vec, bell_projectors()["psi-"] @ vec).real
        assert abs(weight - 0.25) <= 1e-12

    def test_new_dict_over_shared_read_only_arrays(self):
        first, second = bell_projectors(), bell_projectors()
        assert first is not second
        first.clear()
        assert len(bell_projectors()) == 4
        for projector in second.values():
            assert not projector.flags.writeable

    def test_orthogonality(self):
        projectors = list(bell_projectors().values())
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                want = p if i == j else np.zeros((8, 8))
                np.testing.assert_allclose(p @ q, want, atol=1e-14)


class TestUnitaryOperator:
    def test_rejects_non_unitary(self):
        with pytest.raises(InvariantViolationError):
            UnitaryOperator(np.ones((2, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(InvariantViolationError):
            UnitaryOperator(np.zeros((2, 3)))

    def test_rejects_dimension_zero(self):
        with pytest.raises(InvariantViolationError, match=r"at least 1 x 1, got shape \(0, 0\)"):
            UnitaryOperator(np.zeros((0, 0)))
