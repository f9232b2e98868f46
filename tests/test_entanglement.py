"""Partial transpose, log-negativity, PPT checks, and the Smolin state."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dctcsim
from dctcsim import (
    BellLabel,
    BipartiteCut,
    DensityOperator,
    InvariantViolationError,
    RegisterLayout,
    is_ppt,
    kron,
    log_negativity,
    partial_transpose,
    smolin_cuts,
    smolin_layout,
    smolin_state,
    trace_norm,
)
from dctcsim.cli import run_measures
from dctcsim.entanglement import _bell_spectra, _log_negativities, _pt_spectra, _smolin_spectra
from dctcsim.qmath import PHI_PLUS

from oracles import pt_brute, ptrace_brute, qubit_swap, random_density, smolin_pauli_form

TWO_QUBITS = RegisterLayout(("A", "B"))
CUT_AB = BipartiteCut(("A",), ("B",))


class TestBipartiteCut:
    def test_rejects_overlap(self):
        with pytest.raises(InvariantViolationError):
            BipartiteCut(("A", "B"), ("B", "C"))

    def test_rejects_empty_side(self):
        with pytest.raises(InvariantViolationError):
            BipartiteCut((), ("A",))

    @pytest.mark.parametrize("side_a, side_b", [(None, ("A",)), ([["A"]], ("B",)),
                                                ("cr1", "cr2"), (("A",), "B")],
                             ids=["none", "unhashable", "str", "str-side-b"])
    def test_side_that_is_not_a_label_set_is_typed_error(self, side_a, side_b):
        # A bare str iterates characters: "cr1" would be the labels c, r and 1.
        with pytest.raises(InvariantViolationError, match="^invalid cut side labels "):
            BipartiteCut(side_a, side_b)

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
            assert log_negativity(rho, TWO_QUBITS, CUT_AB) >= 0.0

    @pytest.mark.parametrize("dim, layout, cuts", [
        (4, TWO_QUBITS, (CUT_AB,)),
        (16, smolin_layout(), (*smolin_cuts().values(), BipartiteCut(("A",), ("B", "C", "D")))),
    ], ids=["two-qubit", "four-qubit"])
    def test_is_log2_of_the_trace_norm_of_the_same_spectrum(self, dim, layout, cuts):
        # E_N is read from the negative eigenvalues alone: log1p(2N) / ln 2.
        rng = np.random.default_rng(139)
        states = [DensityOperator(random_density(dim, rng)) for _ in range(100)]
        kets = rng.normal(size=(20, dim)) + 1j * rng.normal(size=(20, dim))
        states += [DensityOperator.from_state_vector(v / np.linalg.norm(v)) for v in kets]
        spectra = _pt_spectra(states, layout, cuts)
        got = _log_negativities(spectra)
        assert (got >= 0.0).all()
        np.testing.assert_allclose(got, np.log2(np.abs(spectra).sum(axis=-1)), rtol=0, atol=1e-15)

    def test_constant_states_read_zero_and_one(self):
        # log2 of the summed |eigenvalues| read -6.4e-16 for the Smolin cuts.
        smolin = _log_negativities(_smolin_spectra())
        assert smolin.tolist() == [0.0, 0.0, 0.0] and not np.signbit(smolin).any()
        np.testing.assert_allclose(_log_negativities(_bell_spectra()), 1.0, rtol=0, atol=1e-15)

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


def measures_rows() -> dict:
    rows, _, _ = run_measures(None, None, None)
    return {(row["state"], row["cut"]): row for row in rows}


class TestDistillableUpperBound:
    """The ``measures`` column, max(0, E_N) from the row's own spectrum."""

    def test_bell_pair_bound_is_one(self):
        assert abs(measures_rows()[("bell:phi+", "A:B")]["distillable_upper_bound"] - 1.0) <= 1e-12

    def test_smolin_cuts_bound_is_zero(self):
        rows = measures_rows()
        for cut in smolin_cuts():
            assert rows[("smolin", cut)]["distillable_upper_bound"] == 0.0

    def test_never_negative(self):
        for row in measures_rows().values():
            assert row["distillable_upper_bound"] >= 0.0


class TestPtSpectra:
    LAYOUT = RegisterLayout(("A", "B", "C", "D"))
    CUTS = (BipartiteCut(("A", "B"), ("C", "D")), BipartiteCut(("B",), ("A", "C", "D")),
            BipartiteCut(("A", "D"), ("B", "C")))

    def test_stacked_spectra_equal_per_cut_spectra(self):
        rng = np.random.default_rng(151)
        states = [DensityOperator(random_density(16, rng)) for _ in range(3)]
        stacked = _pt_spectra(states, self.LAYOUT, self.CUTS)
        assert stacked.shape == (3, 3, 16)
        for i, rho in enumerate(states):
            for j, cut in enumerate(self.CUTS):
                alone = np.linalg.eigvalsh(partial_transpose(rho, self.LAYOUT, cut))
                assert np.array_equal(stacked[i, j], alone)
                assert np.array_equal(_pt_spectra((rho,), self.LAYOUT, (cut,))[0, 0], alone)

    def test_log_negativity_matches_brute_force_trace_norm(self):
        rng = np.random.default_rng(157)
        positions = {cut: self.LAYOUT.positions(sorted(cut.side_a)) for cut in self.CUTS}
        for k in range(50):
            rho = DensityOperator(random_density(16, rng))
            cut = self.CUTS[k % 3]
            pt = pt_brute(rho.matrix, 4, positions[cut])
            want = np.log2(np.linalg.svd(pt, compute_uv=False).sum())
            assert abs(log_negativity(rho, self.LAYOUT, cut) - want) <= 1e-12

    @pytest.mark.parametrize("measure", [log_negativity, is_ppt, partial_transpose])
    @pytest.mark.parametrize("rho, layout, cut, message", [
        (np.eye(4) / 4, TWO_QUBITS, CUT_AB, "invalid density operator"),
        (DensityOperator(np.eye(4) / 4), TWO_QUBITS, ("A", "B"), "invalid bipartite cut"),
        (DensityOperator(np.eye(4) / 4), None, CUT_AB, "invalid register layout"),
        (DensityOperator(np.eye(8) / 8), TWO_QUBITS, CUT_AB, "layout dimension"),
    ], ids=["matrix", "tuple-cut", "no-layout", "dimension"])
    def test_malformed_arguments_are_typed_errors(self, measure, rho, layout, cut, message):
        with pytest.raises(InvariantViolationError, match=message):
            measure(rho, layout, cut)


class TestCachedSpectra:
    """The constant states' spectra, taken once per process on first use."""

    @pytest.mark.parametrize("cached, fresh", [
        (_smolin_spectra, lambda: _pt_spectra((smolin_state(),), smolin_layout(),
                                              tuple(smolin_cuts().values()))[0]),
        (_bell_spectra, lambda: _pt_spectra(
            [DensityOperator.from_state_vector(label.state_vector()) for label in BellLabel],
            TWO_QUBITS, (CUT_AB,))),
    ], ids=["smolin", "bell"])
    def test_read_only_and_equal_to_a_fresh_call(self, cached, fresh):
        spectra = cached()
        assert spectra is cached()
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0] = 1.0
        expected = fresh()
        assert spectra.shape == expected.shape
        assert spectra.tobytes() == expected.tobytes()

    def test_not_filled_at_import(self):
        # The caches fill on first use, so importing the package and its CLI
        # takes no spectrum and makes no numpy.linalg call at all.
        code = textwrap.dedent("""
            import numpy.linalg as la
            calls = []
            for name in la.__all__:
                fn = getattr(la, name)
                if callable(fn) and not isinstance(fn, type):
                    def counted(*args, _name=name, _fn=fn, **kwargs):
                        calls.append(_name)
                        return _fn(*args, **kwargs)
                    setattr(la, name, counted)
            import dctcsim, dctcsim.cli
            from dctcsim import entanglement as e
            print(e._smolin_spectra.cache_info().currsize,
                  e._bell_spectra.cache_info().currsize, len(calls), *calls)
        """)
        src = str(Path(dctcsim.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["0", "0", "0"]


class TestSmolinState:
    def test_built_once_and_read_only(self):
        rho = smolin_state()
        assert rho is smolin_state()
        assert not rho.matrix.flags.writeable

    def test_purity_quarter(self):
        rho = smolin_state()
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - 0.25) <= 1e-12

    def test_cd_marginal_is_maximally_mixed(self):
        reduced = ptrace_brute(smolin_state().matrix, 4, (2, 3))
        np.testing.assert_allclose(reduced, np.eye(4) / 4, atol=1e-14)

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
