"""Math core: Kronecker products, trace norm, constants."""

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
    as_state_vector,
)
from dctcsim.deutsch import apply_label_chains
from dctcsim.protocols import ctc_readouts, teleport_and_correct

from oracles import haar_unitary, ket


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

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf])
    def test_non_finite_state_vector_rejected(self, bad):
        # NaN fails every comparison, so the norm test must fail on it too.
        with pytest.raises(InvariantViolationError, match="norm"):
            as_state_vector([bad, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call, message", [
        (lambda: ctc_readouts(AmplitudePair.from_alpha(0.6), [[[np.inf], [0]]]),
         "block outputs must be finite"),
        (lambda: DensityOperator.from_state_vector([1e200, 0]),
         "state vector norm inf deviates from 1"),
        (lambda: UnitaryOperator(np.full((2, 2), 1e200)),
         "matrix is not unitary: max |U^dag U - I| = inf"),
    ], ids=["ctc_readouts", "from_state_vector", "UnitaryOperator"])
    def test_overflow_raises_its_error_without_warning(self, call, message):
        # inf * 0 or an overflowing product warns in numpy; the check still fails.
        with pytest.raises(InvariantViolationError) as info:
            call()
        assert str(info.value) == message


class TestNonNumericInput:
    # Every entry point that converts a caller's array with qmath._complex_array.
    ENTRY_POINTS = {
        "DensityOperator": DensityOperator,
        "UnitaryOperator": UnitaryOperator,
        "trace_norm": trace_norm,
        "as_state_vector": as_state_vector,
        "ctc_readouts": lambda x: ctc_readouts(AmplitudePair.from_alpha(0.6), x),
        "apply_label_chains": apply_label_chains,
        "teleport_and_correct": lambda x: teleport_and_correct(x, AmplitudePair.from_alpha(0.6)),
        "kron": kron,
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

    def test_trace_message_prints_the_python_value(self):
        # The same text on every numpy: not numpy 2's np.complex128(...) repr.
        with pytest.raises(InvariantViolationError) as info:
            DensityOperator(np.full((2, 2), 1e200))
        assert str(info.value) == "density matrix trace (2e+200+0j) deviates from 1"

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

    def test_positions_of_a_non_iterable_is_typed_error(self):
        with pytest.raises(InvariantViolationError, match="^invalid qubit labels None$"):
            RegisterLayout(("a", "b")).positions(None)


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
