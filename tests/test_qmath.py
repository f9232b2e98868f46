"""Math core: Kronecker products, partial trace, trace norm, constants."""

import numpy as np
import pytest

from dctcsim import (
    AmplitudePair,
    DensityOperator,
    InvariantViolationError,
    RegisterLayout,
    UnitaryOperator,
    kron,
    trace_norm,
)
from dctcsim.qmath import (
    BELL_VECTORS,
    I2,
    PHI_PLUS,
    PSI_MINUS,
    X,
    _partial_trace_matrix,
    as_state_vector,
    pure_fidelity,
)
from dctcsim.deutsch import apply_label_chain
from dctcsim.protocols import ctc_readout, teleport_and_correct

from oracles import haar_unitary, ket, ptrace_brute, random_density


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_basis_permutation(self):
        np.testing.assert_allclose(kron(X, X) @ ket("00"), ket("11"), atol=1e-15)

    def test_dimension_law(self):
        assert kron(np.zeros((2, 2)), np.zeros((4, 4))).shape == (8, 8)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                       for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.abs(left - right).max() <= 1e-14


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        rho_a = random_density(2, rng)
        rho_b = random_density(2, rng)
        reduced = _partial_trace_matrix(kron(rho_a, rho_b), 2, (0,))
        np.testing.assert_allclose(reduced, rho_a, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        reduced = _partial_trace_matrix(rho, 2, (0,))
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)

    def test_full_trace_is_one(self):
        rng = np.random.default_rng(5)
        scalar = _partial_trace_matrix(random_density(8, rng), 3, ())
        np.testing.assert_allclose(scalar, [[1.0]], atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            rho = random_density(8, rng)
            for positions in [(0,), (1,), (0, 2), (1, 2)]:
                got = _partial_trace_matrix(rho, 3, positions)
                want = ptrace_brute(rho, 3, positions)
                np.testing.assert_allclose(got, want, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho1, rho2 = random_density(4, rng), random_density(4, rng)
            w = rng.uniform(0.1, 0.9)
            lhs = _partial_trace_matrix(w * rho1 + (1 - w) * rho2, 2, (1,))
            rhs = (w * _partial_trace_matrix(rho1, 2, (1,))
                   + (1 - w) * _partial_trace_matrix(rho2, 2, (1,)))
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_unitary(self):
        rng = np.random.default_rng(31)
        for dim in (2, 4, 8):
            assert abs(trace_norm(haar_unitary(dim, rng)) - dim) <= 1e-10

    def test_indefinite_hermitian(self):
        m = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
        assert abs(trace_norm(m) - 2.0) <= 1e-12

    def test_lower_bound_by_trace(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert trace_norm(m) >= abs(np.trace(m)) - 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(InvariantViolationError):
            trace_norm(np.zeros((2, 3)))


class TestFiniteness:
    @pytest.mark.parametrize("bad", [complex(0.5, np.nan), complex(np.inf, 0.0)])
    def test_non_finite_part_rejected(self, bad):
        # NaN only in the imaginary part, inf only in the real part.
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = bad
        for check in (DensityOperator, UnitaryOperator, trace_norm):
            with pytest.raises(InvariantViolationError, match="non-finite"):
                check(m)


class TestNonNumericInput:
    # Every entry point that converts a caller's array with qmath._complex_array.
    ENTRY_POINTS = {
        "DensityOperator": DensityOperator,
        "UnitaryOperator": UnitaryOperator,
        "trace_norm": trace_norm,
        "as_state_vector": as_state_vector,
        "ctc_readout": lambda x: ctc_readout(AmplitudePair.from_alpha(0.6), x),
        "apply_label_chain": apply_label_chain,
        "teleport_and_correct": lambda x: teleport_and_correct(x, AmplitudePair.from_alpha(0.6)),
        "kron": kron,
        "pure_fidelity": lambda x: pure_fidelity(x, [1, 0]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", ["x", {1: 2}, [["a", 1]]], ids=["str", "dict", "mixed"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_typed_error(self, entry, bad):
        with pytest.raises(InvariantViolationError, match="complex array"):
            self.ENTRY_POINTS[entry](bad)


class TestConstants:
    def test_phi_plus_amplitudes(self):
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(PHI_PLUS, [s2, 0, 0, s2], atol=1e-15)

    def test_psi_minus_amplitudes(self):
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(PSI_MINUS, [0, s2, -s2, 0], atol=1e-15)

    def test_bell_orthonormality(self):
        vectors = list(BELL_VECTORS.values())
        for i, u in enumerate(vectors):
            for j, v in enumerate(vectors):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(u, v) - want) <= 1e-14


class TestDensityOperator:
    def test_from_state_vector(self):
        rho = DensityOperator.from_state_vector(PHI_PLUS)
        assert rho.dim == 4
        np.testing.assert_allclose(rho.matrix, np.outer(PHI_PLUS, PHI_PLUS.conj()), atol=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_matrix_is_readonly(self):
        rho = DensityOperator(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestRegisterLayout:
    def test_partition(self):
        layout = RegisterLayout(("a", "b", "t"), ctc=("t",))
        assert layout.cr_labels == ("a", "b")
        assert layout.ctc_labels == ("t",)
        assert layout.dim == 8

    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvariantViolationError):
            RegisterLayout(("a", "a"))

    def test_unknown_ctc_label_rejected(self):
        with pytest.raises(InvariantViolationError):
            RegisterLayout(("a",), ctc=("b",))

    def test_positions(self):
        layout = RegisterLayout(("a", "b", "c"))
        assert layout.positions(("c", "a")) == (2, 0)
        with pytest.raises(InvariantViolationError):
            layout.positions(("d",))


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(InvariantViolationError):
            as_state_vector([1.0, 1.0])

    def test_dimension_power_of_two(self):
        with pytest.raises(InvariantViolationError):
            as_state_vector([1.0, 0.0, 0.0])

    def test_valid(self):
        v = as_state_vector([0.6, 0.8])
        assert v.flags.writeable is False
