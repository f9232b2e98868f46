"""Experiment runner: documents, serialization, determinism, exit codes."""

import argparse
import json
import os
import stat
import sys
import threading

import numpy as np
import pytest

import dctcsim.cli as cli
import dctcsim.protocols as protocols
from dctcsim import (
    AmplitudePair,
    BellLabel,
    FixedPointConvergenceError,
    InvariantViolationError,
    candidate_states,
)
from dctcsim.cli import build_parser, main, serialize
from dctcsim.entanglement import PPT_ATOL
from oracles import rounded


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(capsys, argv):
    """(exit code, stdout, stderr) of one run; an argparse exit gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(capsys, argv):
    """``run_any`` on a newly built parser, as in a fresh process."""
    build_parser.cache_clear()
    return run_any(capsys, argv)


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--output-format", "json")
    return code, json.loads(out), err


def dumps(doc) -> str:
    """The JSON text ``json.dumps`` writes for ``doc``, as the CLI prints it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def document(experiment, parameters, rows, diagnostics) -> dict:
    """A result document as ``main`` assembles it."""
    return {"experiment": experiment, "parameters": parameters, "rows": rows,
            "diagnostics": diagnostics}


def misidentifying(discriminate):
    """``discriminate`` run on the next pair in ``BellLabel`` order, so the
    record it returns names the wrong pair; a stack of pairs is shifted
    pair by pair."""
    labels = list(BellLabel)

    def shifted(bell):
        return labels[(labels.index(bell) + 1) % 4]

    def wrong(bells, *args, **kwargs):
        if isinstance(bells, BellLabel):
            return discriminate(shifted(bells), *args, **kwargs)
        return discriminate([shifted(bell) for bell in bells], *args, **kwargs)
    return wrong


class TestTable1:
    def test_four_rows_matching_labels(self, capsys):
        code, doc, _ = run_json(capsys, "table1", "--alpha", "0.6")
        assert code == 0
        assert doc["experiment"] == "table1"
        rows = doc["rows"]
        assert len(rows) == 4
        assert {(r["b1"], r["b2"]) for r in rows} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for row in rows:
            assert row["correct"] is True
            assert row["identified"] == row["input_bell"]
        assert doc["diagnostics"]["all_correct"] is True

    def test_reports_unique_fixed_space(self, capsys):
        _, doc, _ = run_json(capsys, "table1")
        for row in doc["rows"]:
            assert row["fp_space_dim"] == 1
            assert row["fp_unique"] is True
            assert row["outcome_probability"] >= 1 - 1e-9

    def test_csv_has_header_and_four_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--output-format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("input_bell,")

    def test_table_format_prints_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        assert "experiment: table1" in out
        assert "phi+" in out and "psi-" in out


class TestDeterminism:
    def test_identical_spec_byte_identical_json(self, capsys):
        args = ("discriminate", "--seed", "7", "--alpha", "0.45")
        _, out1, _ = run_cli(capsys, *args, "--output-format", "json")
        _, out2, _ = run_cli(capsys, *args, "--output-format", "json")
        assert out1 == out2

    def test_seed_changes_referee_draw(self, capsys):
        bells = set()
        for seed in range(8):
            _, doc, _ = run_json(capsys, "discriminate", "--seed", str(seed))
            bells.add(doc["diagnostics"]["referee_bell"])
        assert len(bells) > 1

    def test_json_round_trip(self):
        doc = document("demo", {"alpha": 0.6}, [{"x": 1 / 3, "ok": True}], {"note": "n"})
        parsed = json.loads(serialize(doc, "json"))
        assert parsed == rounded(doc)
        assert json.loads(serialize(parsed, "json")) == parsed

    def test_floats_quantized_to_15_digits(self):
        doc = document("demo", {}, [{"value": 0.1234567890123456789}], {})
        value = json.loads(serialize(doc, "json"))["rows"][0]["value"]
        assert value == float(f"{value:.15g}") == 0.123456789012346
        assert serialize(doc, "csv") == "value\n0.123456789012346\n"

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_non_finite_rejected(self, output_format):
        with pytest.raises(InvariantViolationError):
            serialize(document("demo", {}, [{"value": float("nan")}], {}), output_format)

    def test_empty_rows_serialize(self):
        doc = document("demo", {}, [], {})
        assert json.loads(serialize(doc, "json"))["rows"] == []
        assert serialize(doc, "csv") == ""
        assert serialize(doc, "table") == "experiment: demo\n\n"


class TestJsonEmitter:
    """``serialize(doc, "json")`` writes the bytes ``json.dumps`` would."""

    @pytest.mark.parametrize("seed", ["0", "3"])
    @pytest.mark.parametrize("alpha", ["0.1", "0.3", "0.69", "0.75"])
    @pytest.mark.parametrize("argv", [
        ["fixed-point"], ["discriminate"], ["table1"], ["smolin"],
        ["smolin", "--improper-mixture"], ["measures"]], ids=" ".join)
    def test_experiment_documents_match_json_dumps(self, argv, alpha, seed, capsys,
                                                   monkeypatch):
        self._check_run(capsys, monkeypatch,
                        [*argv, "--alpha", alpha, "--seed", seed, "--output-format", "json"])

    def test_degenerate_fixed_point_document_matches_json_dumps(self, capsys, monkeypatch):
        self._check_run(capsys, monkeypatch, ["fixed-point", "--allow-degenerate", "--alpha",
                                              "0.7071067811865475", "--output-format", "json"])

    @staticmethod
    def _check_run(capsys, monkeypatch, argv):
        # A JSON run hands serialize the document as assembled, floats
        # unrounded: its text is json.dumps's text of the rounded copy.
        documents = []

        def recording(doc, output_format):
            documents.append(doc)
            return serialize(doc, output_format)
        monkeypatch.setattr(cli, "serialize", recording)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        [doc] = documents
        assert out == serialize(doc, "json") == dumps(rounded(doc))

    @pytest.mark.parametrize("doc", [
        document("demo", {}, [], {}),
        document("demo", {"nested": {"b": [1, {"c": [], "d": {}}], "a": {"x": [[]]}}},
                 [{"x": 1}], {"flags": [True, False]}),
        document("caf\u00e9 \u2203\U0001d11e", {"k\u00ebY": "\u00e9", "\"q\"": "\\"},
                 [{"text": "tab\t nl\n nul\x00 us\x1f del\x7f quote\" slash/ back\\"}],
                 {"\u0000key": "\ud83d\ude00 \ufeff"}),
        document("numbers", {"zero": -0.0, "tiny": 1e-300, "big": 1e16, "huge": 2 ** 80,
                             "negative": -7, "third": 1 / 3, "whole": 2.0},
                 [{"int": -3, "float": np.float64(5e-324), "max": 1.79e308}], {}),
    ], ids=["empty", "nested", "text", "numbers"])
    def test_hand_built_documents_match_json_dumps(self, doc):
        assert serialize(doc, "json") == dumps(rounded(doc))

    def test_floats_are_quantized_as_they_are_written(self):
        doc = document("demo", {"alpha": 0.1234567890123456789, "beta": np.float64(2 / 3)},
                       [{"x": 1 / 3, "tiny": 5e-324, "whole": 1e15 + 0.3, "n": [-0.0, 7]}],
                       {"big": 1.7976931348623e308})
        text = serialize(doc, "json")
        assert text == dumps(rounded(doc))
        assert json.loads(text)["rows"][0]["x"] == 0.333333333333333

    def test_each_float_is_written_as_its_quantization(self):
        # Floats of every magnitude and of 1 to 17 significant digits, next to
        # powers of ten and subnormal: short and long reprs alike.
        rng = np.random.default_rng(2015)
        raw = rng.integers(0, 2 ** 63, 4000, dtype=np.uint64).view(np.float64)
        digits = [float(f"{m:.{k}f}e{e}") for m, k, e in zip(
            rng.uniform(1, 10, 4000).tolist(), rng.integers(0, 17, 4000).tolist(),
            rng.integers(-330, 309, 4000).tolist())]
        tens = [10.0 ** e for e in range(-300, 300)]
        edges = [*np.nextafter(tens, 0).tolist(), *np.nextafter(tens, np.inf).tolist(),
                 5e-324, 2.2250738585072014e-308, 1.7976931348623e308]
        values = [x for x in (*raw.tolist(), *digits, *tens, *edges)
                  if abs(x) < 1.797693134862315e308]   # finite, and not rounded up to inf
        values += [-x for x in values]
        assert len(values) > 17_000
        for value in values:
            assert cli._json_text(value) == repr(cli._quantized(value)), value

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_float_rounding_past_the_largest_names_the_value(self, output_format):
        doc = document("demo", {}, [{"max": 1.7976931348623157e308}], {})
        with pytest.raises(InvariantViolationError,
                           match=r"^non-finite value 1\.7976931348623157e\+308 in result"):
            serialize(doc, output_format)

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    @pytest.mark.parametrize("value", [
        None, (1, 2), {1, 2}, b"x", 1j, np.int64(1), np.array([1.0]),
        float("nan"), float("inf"), -float("inf"), {1: "int key"}, {"a": 1, 2: "mixed keys"},
    ], ids=["none", "tuple", "set", "bytes", "complex", "np-int", "array", "nan", "inf", "-inf",
            "int-key", "mixed-keys"])
    def test_value_outside_the_rule_is_invariant_violation(self, value, output_format):
        doc = document("demo", {}, [{"value": value}], {})
        with pytest.raises(InvariantViolationError, match="^cannot emit "):
            serialize(doc, output_format)

    @pytest.mark.parametrize("where", ["parameters", "rows", "diagnostics"])
    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_float_quantized_past_the_largest_is_refused(self, output_format, where):
        # 15 significant digits round the largest float up to inf: the document
        # is refused, in every format, not written with inf or a bare Infinity,
        # wherever the float is (CSV writes neither parameters nor diagnostics).
        doc = document("demo", {}, [{"x": 1}], {})
        if where == "rows":
            doc["rows"] = [{"max": 1.7976931348623157e308}]
        else:
            doc[where] = {"max": 1.7976931348623157e308}
        with pytest.raises(InvariantViolationError, match="non-finite"):
            serialize(doc, output_format)


class TestCellRule:
    """CSV and table write a string, bool, int or finite float, each float
    rounded to 15 significant digits, and a table diagnostic may be a flat
    dict of those; the table and CSV refuse what falls outside the rule."""

    DOC = document("demo", {"alpha": 0.1234567890123456789, "seed": 3, "flag": False},
                   [{"s": "a b", "f": 1 / 3, "n": -7, "ok": True, "whole": 2.0},
                    {"s": "x", "f": 1e-300, "n": 2 ** 80, "ok": False, "whole": -0.0}],
                   {"all": True, "worst": 2 / 3,
                    "baseline": {"AB:CD": 1 / 3, "ppt": True, "n": 1, "s": "t"}})

    def test_csv(self):
        assert serialize(self.DOC, "csv") == (
            "s,f,n,ok,whole\n"
            "a b,0.333333333333333,-7,true,2\n"
            "x,1e-300,1208925819614629174706176,false,-0\n")

    def test_table(self):
        assert serialize(self.DOC, "table") == (
            "experiment: demo\n"
            "alpha=0.123456789012346  seed=3  flag=false\n"
            "s    f                  n                          ok     whole\n"
            "a b  0.333333333333333  -7                         true   2    \n"
            "x    1e-300             1208925819614629174706176  false  -0   \n"
            "all = true\n"
            "worst = 0.666666666666667\n"
            "baseline = {'AB:CD': 0.333333333333333, 'ppt': True, 'n': 1, 's': 't'}\n")

    @pytest.mark.parametrize("output_format", ["csv", "table"])
    @pytest.mark.parametrize("rows", [[{"a": 1}, {"b": 2}], [{"a": 1}, {"a": 2, "b": 3}],
                                      [{"a": 1, "b": 2}, {"a": 3}]],
                             ids=["other-key", "extra-key", "missing-key"])
    def test_rows_with_different_keys_are_refused(self, rows, output_format):
        # JSON writes each row's own keys; a grid cannot.
        doc = document("demo", {}, rows, {})
        with pytest.raises(InvariantViolationError, match="^cannot emit rows whose keys differ"):
            serialize(doc, output_format)
        assert json.loads(serialize(doc, "json"))["rows"] == rows

    @pytest.mark.parametrize("output_format", ["csv", "table"])
    @pytest.mark.parametrize("where, value", [
        ("parameters", [1.0]), ("parameters", {"a": 1}), ("diagnostics", [True]),
        ("diagnostics", {"nested": {"a": 1}}), ("diagnostics", {"list": [1]}),
        ("diagnostics", {"nan": float("nan")}), ("diagnostics", None),
    ], ids=["parameter-list", "parameter-dict", "diagnostic-list", "diagnostic-nested",
            "diagnostic-dict-list", "diagnostic-dict-nan", "diagnostic-none"])
    def test_outside_the_rule_is_refused(self, where, value, output_format):
        doc = document("demo", {}, [{"x": 1}], {})
        doc[where] = {"value": value}
        with pytest.raises(InvariantViolationError, match="^cannot emit "):
            serialize(doc, output_format)


class TestMeasures:
    def test_smolin_cuts_and_bell_row(self, capsys):
        code, doc, _ = run_json(capsys, "measures")
        assert code == 0
        rows = {(r["state"], r["cut"]): r for r in doc["rows"]}
        for cut in ("AB:CD", "AC:BD", "AD:BC"):
            row = rows[("smolin", cut)]
            assert abs(row["log_negativity"]) <= 1e-10
            assert row["ppt"] is True
        bell_row = rows[("bell:phi+", "A:B")]
        assert abs(bell_row["log_negativity"] - 1.0) <= 1e-12
        assert bell_row["ppt"] is False

    def test_every_column_reads_the_same_spectrum(self):
        rows, _, _ = cli.run_measures(None, None, None)
        assert len(rows) == 4
        for row in rows:
            assert row["ppt"] == (row["min_pt_eigenvalue"] >= -PPT_ATOL)


class TestLinearAlgebraCalls:
    """Steady-state LAPACK calls per run.  ``measures``: none, as the spectra
    of the Smolin cuts and of the Bell states (with their density checks)
    are taken on the first run only.  Every other experiment: the CTC
    stage's one ``eigvalsh``, which checks every sigma* and CR output and
    takes every residual; ``smolin`` reads the same two cached spectra, for
    its baseline and its C:D pairs, and ``smolin --improper-mixture`` reads
    Bob's purity from K K^dag, whose trace the stage has checked."""

    NAMES = ("eigvalsh", "svd", "eigh", "eig", "solve")

    @pytest.mark.parametrize("argv, expected", [
        (["measures"], []), (["smolin"], ["eigvalsh"]), (["discriminate"], ["eigvalsh"]),
        (["table1"], ["eigvalsh"]), (["fixed-point"], ["eigvalsh"]),
        (["smolin", "--improper-mixture"], ["eigvalsh"]),
    ], ids=["measures", "smolin", "discriminate", "table1", "fixed-point", "smolin-improper"])
    def test_calls_per_run(self, argv, expected, capsys, monkeypatch):
        run_cli(capsys, *argv)                  # builds the parser and the Smolin state
        calls = []
        for name in self.NAMES:
            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == expected


class TestSerializeCalls:
    """Every format is handed the document as the experiment assembled it:
    the rows and diagnostics its runner returned, the same objects, with no
    copy of them built on the way."""

    @pytest.mark.parametrize("argv", [["table1"], ["fixed-point"], ["discriminate"], ["smolin"],
                                      ["smolin", "--improper-mixture"], ["measures"]],
                             ids=" ".join)
    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_runner_rows_reach_serialize(self, argv, output_format, capsys, monkeypatch):
        returned, handed = [], []

        def runner(*args, _fn=cli._RUNNERS[argv[0]]):
            returned.append(_fn(*args))
            return returned[-1]

        def recording(doc, fmt, _fn=serialize):
            handed.append((doc, fmt))
            return _fn(doc, fmt)
        monkeypatch.setitem(cli._RUNNERS, argv[0], runner)
        monkeypatch.setattr(cli, "serialize", recording)
        assert run_cli(capsys, *argv, "--output-format", output_format)[0] == 0
        [(rows, diagnostics, _)] = returned
        [(doc, fmt)] = handed
        assert fmt == output_format
        assert list(doc) == ["experiment", "parameters", "rows", "diagnostics"]
        assert doc["rows"] is rows and doc["diagnostics"] is diagnostics


class TestTeleportationCalls:
    @pytest.mark.parametrize("argv", [["table1"], ["smolin"]], ids=["table1", "smolin"])
    def test_one_stacked_teleportation_per_run(self, argv, capsys, monkeypatch):
        # All four Bell inputs are measured by Alice in one call.
        calls = []

        def counted(pair, amps, _fn=protocols._alice_branches):
            calls.append(pair.shape)
            return _fn(pair, amps)
        monkeypatch.setattr(protocols, "_alice_branches", counted)
        for _ in range(2):
            assert run_cli(capsys, *argv)[0] == 0
        assert calls == [(4, 1, 4)] * 2


class TestFixedPointExperiment:
    def test_four_candidate_rows(self, capsys):
        code, doc, _ = run_json(capsys, "fixed-point", "--alpha", "0.6")
        assert code == 0
        rows = doc["rows"]
        assert [r["code"] for r in rows] == ["00", "01", "10", "11"]
        for row in rows:
            assert row["modal_outcome"] == row["code"]
            assert row["residual"] <= 1e-12
            assert row["fp_space_dim"] == 1
            assert row["unique"] is True

    @pytest.mark.parametrize("experiment", ["fixed-point", "discriminate", "table1", "smolin",
                                            "measures"])
    @pytest.mark.parametrize("alpha", ["0.70710678", "1e-7"])
    def test_degenerate_rejected_in_strict_mode(self, capsys, experiment, alpha):
        code, out, err = run_any(capsys, [experiment, "--alpha", alpha])
        assert (code, out) == (2, "")
        assert f"alpha={float(alpha)}" in err and "--allow-degenerate" in err

    def test_degenerate_allowed_with_flag(self, capsys):
        code, doc, _ = run_json(capsys, "fixed-point",
                                "--alpha", str(1 / np.sqrt(2)), "--allow-degenerate")
        assert code == 0
        assert doc["diagnostics"]["degenerate"] is True
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["residual"] <= 1e-12
            assert row["fp_space_dim"] >= 2


class TestSmolinExperiment:
    def test_branches_and_baseline(self, capsys):
        code, doc, _ = run_json(capsys, "smolin", "--seed", "3")
        assert code == 0
        assert len(doc["rows"]) == 4
        for row in doc["rows"]:
            assert row["correct"] is True
            assert abs(row["cd_log_negativity"] - 1.0) <= 1e-10
            assert row["cd_fidelity"] >= 1 - 1e-10
        baseline = doc["diagnostics"]["baseline_log_negativity"]
        assert set(baseline) == {"AB:CD", "AC:BD", "AD:BC"}
        for value in baseline.values():
            assert abs(value) <= 1e-10

    def test_improper_mixture_flag(self, capsys):
        code, doc, _ = run_json(capsys, "smolin", "--improper-mixture")
        assert code == 0
        row = doc["rows"][0]
        for key in ("p00", "p01", "p10", "p11"):
            assert abs(row[key] - 0.25) <= 1e-9
        assert "no correctness claim" in doc["diagnostics"]["note"]
        # Bob's qubit is maximally mixed, and the one fixed point solves exactly.
        assert abs(doc["diagnostics"]["bob_purity"] - 0.5) <= 1e-12
        assert row["fp_residual"] < 1e-12

    def test_improper_mixture_tie_reads_lowest_label(self, capsys):
        # the CR distribution is uniform, so the modal outcome is a tie
        for alpha in ("0.3", "0.6"):
            _, doc, _ = run_json(capsys, "smolin", "--improper-mixture", "--alpha", alpha)
            assert doc["rows"][0]["modal_outcome"] == "00"


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as info:
            main(["no-such-experiment"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["table1", "--alpha", "1.5"])
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["table1", "--circuit", "literal"])
        assert info.value.code == 2

    @pytest.mark.parametrize("experiment", ["discriminate", "table1", "smolin"])
    def test_negative_seed_is_usage_error(self, experiment, capsys):
        with pytest.raises(SystemExit) as info:
            main([experiment, "--seed", "-1"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["inf", "1e400", "nan", "0"])
    def test_bad_tolerance_is_usage_error(self, tolerance, capsys):
        code, out, err = run_any(capsys, ["table1", "--tolerance", tolerance])
        assert code == 2
        assert out == ""
        assert "tolerance must be a finite positive real number" in err

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_tolerance_the_document_cannot_hold_is_usage_error(self, capsys, monkeypatch,
                                                               output_format):
        # Finite, but 15 significant digits round it up to inf: refused before the run.
        def never(*args, **kwargs):
            raise AssertionError("the experiment ran")
        monkeypatch.setattr(cli, "discriminate_bells", never)
        code, out, err = run_any(capsys, ["table1", "--tolerance", "1.7976931348623157e308",
                                          "--output-format", output_format])
        assert (code, out) == (2, "")
        assert "non-finite value 1.7976931348623157e+308" in err

    def test_non_convergence_is_3(self, capsys, monkeypatch):
        # A chain solve can be exact (residual 0.0), which no tolerance fails,
        # so the failure is planted in the one solve every experiment runs.
        def fail(*args, **kwargs):
            raise FixedPointConvergenceError(1e-3, 1e-12, "planted failure")
        monkeypatch.setattr(protocols, "apply_label_chains", fail)
        for argv in (["table1"], ["fixed-point"], ["discriminate"], ["smolin"],
                     ["smolin", "--improper-mixture"]):
            code, out, err = run_cli(capsys, *argv, "--output-format", "json")
            assert code == 3, argv
            assert out == ""
            assert "converge" in err and "planted failure" in err
        monkeypatch.undo()
        code, _, _ = run_cli(capsys, "fixed-point", "--max-iterations", "20000")
        assert code == 0

    def test_runtime_degeneracy_is_4(self, capsys):
        for argv in (["discriminate"], ["table1"], ["smolin"], ["smolin", "--improper-mixture"]):
            code, out, err = run_cli(capsys, *argv, "--alpha", str(1 / np.sqrt(2)),
                                     "--allow-degenerate")
            assert (code, out) == (4, ""), argv
            assert "degenerate" in err.lower()

    def test_invariant_violation_during_run_is_4(self, capsys, monkeypatch):
        def violate(*args, **kwargs):
            raise InvariantViolationError("planted violation")
        monkeypatch.setattr(cli, "discriminate_bell", violate)
        code, out, err = run_cli(capsys, "discriminate", "--output-format", "json")
        assert code == 4
        assert out == ""
        assert "invariant violation: planted violation" in err

    @pytest.mark.parametrize("argv,owner,flag,rows", [
        (("discriminate", "--bell", "phi+"), cli, None, 1),
        (("table1",), cli, "all_correct", 4),
        (("smolin",), protocols, "all_identified", 4),
    ])
    def test_misidentified_bell_state_is_4(self, capsys, monkeypatch, argv, owner, flag, rows):
        # The whole document is still written, then one line per wrong row.
        # table1 and smolin discriminate their four pairs in one stacked call.
        name = "discriminate_bell" if rows == 1 else "discriminate_bells"
        monkeypatch.setattr(owner, name, misidentifying(getattr(owner, name)))
        code, doc, err = run_json(capsys, *argv)
        assert code == 4
        assert doc["experiment"] == argv[0]
        assert len(doc["rows"]) == rows
        if flag is not None:
            assert doc["diagnostics"][flag] is False
        lines = err.splitlines()
        assert len(lines) == rows
        assert all(line.startswith("invariant violation: ") for line in lines)

    def test_empty_output_is_usage_error(self, capsys):
        code, out, err = run_any(capsys, ["table1", "--output", ""])
        assert (code, out) == (2, "")
        assert "--output" in err

    def test_unwritable_output_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "measures",
                               "--output", "/no/such/directory/out.json")
        assert code == 2
        assert "cannot write" in err


class TestOutputFile:
    def test_writes_document(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        code, out, _ = run_cli(capsys, "measures", "--output-format", "json",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["experiment"] == "measures"

    def test_long_file_name_is_written_and_replaced(self, tmp_path, capsys):
        # The temporary file's name does not grow with the target's, so a name
        # near NAME_MAX (255) is written new and then replaced.
        target = tmp_path / ("d" * 245 + ".json")        # 250 characters
        _, expected, _ = run_cli(capsys, "measures", "--output-format", "json")
        for _ in range(2):
            code, out, err = run_cli(capsys, "measures", "--output-format", "json",
                                     "--output", str(target))
            assert (code, out, err) == (0, "", "")
            assert target.read_text() == expected
            assert [path.name for path in tmp_path.iterdir()] == [target.name]

    def test_replaces_longer_file_with_new_document_only(self, tmp_path, capsys):
        target, fresh = tmp_path / "doc.json", tmp_path / "fresh.json"
        target.write_text("x" * 100_000)
        os.link(target, tmp_path / "old.json")      # a second name for the replaced file
        code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                               "--output", str(target))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert target.read_text() == expected
        # The old file was replaced, not truncated and rewritten in place.
        assert (tmp_path / "old.json").read_text() == "x" * 100_000
        assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.json", "old.json"]
        # The document gets the mode open(path, "w") gives a new file.
        fresh.write_text("")
        assert target.stat().st_mode == fresh.stat().st_mode

    def test_leftover_temporary_file_is_left_alone(self, tmp_path, capsys):
        # A run killed after opening its temporary file leaves it behind (here
        # under the name an older writer gave it); a later run neither trips
        # over it nor removes it.
        target = tmp_path / "doc.json"
        leftover = tmp_path / f".dctc-sim.{os.getpid()}.{threading.get_ident()}.tmp"
        leftover.write_text("x" * 1000)
        code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                               "--output", str(target))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert target.read_text() == expected
        assert leftover.read_text() == "x" * 1000
        assert sorted(path.name for path in tmp_path.iterdir()) == [leftover.name, "doc.json"]

    def test_rewrite_never_unlinks_the_target(self, tmp_path, capsys, monkeypatch):
        # The new document is renamed over the old one: at no moment is there
        # no file at the target.
        target = tmp_path / "doc.json"
        target.write_text("x" * 100_000)

        def refused(path, *args, **kwargs):
            raise AssertionError(f"unlinked {path}")
        monkeypatch.setattr(cli.os, "unlink", refused)
        monkeypatch.setattr(cli.os, "remove", refused)
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        for _ in range(2):
            assert run_cli(capsys, "table1", "--output-format", "json",
                           "--output", str(target)) == (0, "", "")
            assert target.read_text() == expected
            assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]

    def test_symlink_target_is_replaced_by_a_regular_file(self, tmp_path, capsys):
        target, pointed = tmp_path / "doc.json", tmp_path / "pointed"
        pointed.write_text("pointed")
        target.symlink_to(pointed)
        code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                               "--output", str(target))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert not target.is_symlink()
        assert target.read_text() == expected
        assert pointed.read_text() == "pointed"

    def test_concurrent_writers_each_use_their_own_temporary_file(self, tmp_path, capsys):
        # Two threads of one process write one path: neither removes the other's
        # temporary file, so every run succeeds and one whole document is left.
        target = tmp_path / "doc.json"
        codes = []

        def write(seed):
            for _ in range(20):
                codes.append(main(["table1", "--seed", str(seed), "--output-format", "json",
                                   "--output", str(target)]))
        threads = [threading.Thread(target=write, args=(seed,)) for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert codes == [0] * 40
        documents = [run_cli(capsys, "table1", "--seed", seed, "--output-format", "json")[1]
                     for seed in ("1", "2")]
        assert target.read_text() in documents
        assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]

    def test_symlink_at_temporary_name_is_refused(self, tmp_path, capsys, monkeypatch):
        # A symlink planted at the name the next write draws is neither
        # followed nor removed: the exclusive create refuses it.
        target, victim = tmp_path / "doc.json", tmp_path / "victim"
        victim.write_text("victim")
        monkeypatch.setattr(cli.os, "urandom", bytes)       # bytes(6): six zero bytes
        (tmp_path / ".dctc-sim.000000000000.tmp").symlink_to(victim)
        code, out, err = run_cli(capsys, "table1", "--output-format", "json",
                                 "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output: [Errno 17] File exists")
        assert victim.read_text() == "victim"
        assert not target.exists()

    @pytest.mark.parametrize("name, message", [
        ("a\x00b", "embedded null byte"),
        ("a\ud800b", "'utf-8' codec can't encode character '\\ud800'"),
    ], ids=["nul", "lone-surrogate"])
    def test_path_no_file_can_have_is_usage_error(self, name, message, tmp_path, capsys,
                                                  monkeypatch):
        # Only a Python caller can pass such a path: an OS argv holds no NUL,
        # and Python decodes an undecodable argv byte to a surrogate it can encode.
        monkeypatch.chdir(tmp_path)
        for path in (name, str(tmp_path / name)):
            code, out, err = run_cli(capsys, "measures", "--output", path)
            assert (code, out) == (2, "")
            assert err.startswith(f"cannot write output: [Errno 22] {message}")
        assert list(tmp_path.iterdir()) == []

    def test_short_writes_are_continued(self, tmp_path, capsys, monkeypatch):
        # os.write may take fewer bytes than it is given: the rest follows.
        write, sizes = os.write, []

        def short_write(fd, data):
            sizes.append(len(data))
            return write(fd, data[:1000])
        monkeypatch.setattr(cli.os, "write", short_write)
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        target = tmp_path / "doc.json"
        for _ in range(2):          # written new, then replaced
            assert run_cli(capsys, "table1", "--output-format", "json",
                           "--output", str(target)) == (0, "", "")
            assert target.read_text() == expected
        assert len(sizes) == 2 * -(-len(expected) // 1000) > 2
        assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "doc.json"
        target.write_text("old")

        def full(fd, data):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli.os, "write", full)
        code, out, err = run_cli(capsys, "measures", "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output: [Errno 28] No space left on device")
        assert target.read_text() == "old"
        assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_replace_leaves_no_temporary_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        code, _, err = run_cli(capsys, "measures", "--output", str(target))
        assert code == 2
        assert "cannot write" in err
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]

    def test_fifo_is_written_not_replaced(self, tmp_path, capsys):
        # A path that is not a regular file gets the bytes in place; the reader
        # is opened first and non-blocking, so a replaced FIFO fails, not hangs.
        target = tmp_path / "fifo"
        os.mkfifo(target)
        reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                                   "--output", str(target))
            received = b""
            while chunk := os.read(reader, 1 << 16):
                received += chunk
        finally:
            os.close(reader)
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert received == expected.encode("utf-8")
        assert stat.S_ISFIFO(os.stat(target).st_mode)


class TestDiscriminate:
    def test_fixed_bell_choice(self, capsys):
        code, doc, _ = run_json(capsys, "discriminate", "--bell", "phi-")
        assert code == 0
        row = doc["rows"][0]
        assert row["input_bell"] == "phi-"
        assert row["identified"] == "phi-"
        assert (row["b1"], row["b2"]) == (0, 1)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("first,second,codes", [
        (["smolin", "--improper-mixture"], ["smolin"], [0, 0]),
        (["fixed-point", "--allow-degenerate", "--alpha", "0.70710678"],
         ["discriminate", "--alpha", "0.70710678"], [0, 2]),
    ])
    def test_earlier_run_leaves_later_run_unchanged(self, capsys, first, second, codes):
        expected = [run_alone(capsys, argv + ["--output-format", "json"])
                    for argv in (first, second)]
        assert [code for code, _, _ in expected] == codes
        build_parser.cache_clear()
        runs = [run_any(capsys, argv + ["--output-format", "json"])
                for argv in (first, second)]
        assert runs == expected

    def test_output_path_does_not_carry_over(self, tmp_path, capsys):
        target = tmp_path / "doc.json"
        to_stdout = ["table1", "--seed", "5", "--output-format", "json"]
        expected = run_alone(capsys, to_stdout)
        assert run_alone(capsys, to_stdout + ["--output", str(target)]) == (0, "", "")
        assert run_any(capsys, to_stdout) == expected
        assert target.read_text() == expected[1]

    def test_run_with_every_option_leaves_every_default(self, tmp_path, capsys):
        parser = build_parser()
        experiments = parser.subcommands.choices

        def defaults():
            return {name: vars(experiment.parse_args([]))
                    for name, experiment in experiments.items()}
        before = defaults()
        every = ["--alpha", "0.3", "--tolerance", "1e-10", "--max-iterations", "7",
                 "--seed", "4", "--output-format", "csv", "--allow-degenerate"]
        extra = {"discriminate": ["--bell", "psi-"], "smolin": ["--improper-mixture"]}
        for name in experiments:
            target = tmp_path / f"{name}.csv"
            argv = [name, *every, *extra.get(name, []), "--output", str(target)]
            assert run_cli(capsys, *argv)[0] == 0 and target.read_text()
        assert build_parser() is parser and defaults() == before


def parse_outcome(parse, argv, capsys):
    """(namespace as a dict, or None on exit; exit code; stdout; stderr)."""
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return args, code, captured.out, captured.err


class TestOnePassParse:
    """A run that names its experiment first is parsed by that experiment's
    parser alone, to the namespace and the errors of the nested parse."""

    ARGVS = [
        [], ["fixed-point"], ["discriminate"], ["table1"], ["smolin"], ["measures"],
        ["fixed-point", "--alpha", "0.7071067811865475", "--allow-degenerate"],
        ["discriminate", "--bell=psi-", "--seed=7", "--alpha=0.45", "--output=doc.json"],
        ["table1", "--alph", "0.3", "--tol", "1e-10", "--output-f", "csv", "--allow"],
        ["smolin", "--improper", "--seed", "2", "--max-iterations", "20000"],
        ["measures", "--alpha", "0.3", "--alpha", "0.4", "--seed", "1", "--seed", "5"],
        ["table1", "--output-format", "json", "--output-format", "table", "--output", ""],
        ["discriminate", "--"], ["table1", "--alpha", "0.3", "--"], ["smolin", "--", "x"],
        ["table1", "--", "--alpha", "0.3"], ["table1", "--circuit", "literal"],
        ["table1", "x", "--seed", "1", "y"], ["table1", "--alpha", "abc"], ["table1", "--seed"],
        ["discriminate", "--bell", "xx"], ["measures", "--improper-mixture"], ["table1", "--h"],
        ["smolin", "-h"], ["fixed-point", "--help"], ["-h"], ["--", "table1"],
        ["--alpha", "0.3", "table1"], ["no-such-experiment"], ["TABLE1"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-argv")
    def test_same_outcome_as_parse_args(self, argv, capsys):
        parser = build_parser()
        one_pass = parse_outcome(lambda a: cli._parse(parser, a), argv, capsys)
        assert one_pass == parse_outcome(parser.parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", [["fixed-point"], ["discriminate", "--bell", "phi-"],
                                      ["table1", "--alpha=0.3"], ["smolin", "--improper"],
                                      ["measures", "--seed", "2"]], ids=" ".join)
    def test_valid_run_parses_once(self, argv, capsys, monkeypatch):
        calls = []

        def counted(self, *args, _fn=argparse.ArgumentParser.parse_known_args, **kwargs):
            calls.append(self.prog)
            return _fn(self, *args, **kwargs)
        run_cli(capsys, *argv)                  # builds the parser
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == [f"dctc-sim {argv[0]}"]

    @pytest.mark.parametrize("argv, line", [
        (["table1", "--circuit", "literal"],
         "dctc-sim: error: unrecognized arguments: --circuit literal"),
        (["no-such-experiment"],
         "dctc-sim: error: argument experiment: invalid choice: 'no-such-experiment' "
         "(choose from 'fixed-point', 'discriminate', 'table1', 'smolin', 'measures')"),
        ([], "dctc-sim: error: the following arguments are required: experiment"),
        (["--alpha", "0.3", "table1"],
         "dctc-sim: error: argument experiment: invalid choice: '0.3' "
         "(choose from 'fixed-point', 'discriminate', 'table1', 'smolin', 'measures')"),
    ], ids=["unrecognized", "unknown-experiment", "no-argv", "option-first"])
    def test_usage_error_message(self, argv, line, capsys):
        code, out, err = run_any(capsys, argv)
        assert (code, out, err.splitlines()[-1]) == (2, "", line)


class TestEntryPaths:
    """``main(None)`` reads ``sys.argv[1:]``, as the installed and module
    entry points call it; any iterable of strings is an argv."""

    def test_none_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["measures", "--output-format", "json"]
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["dctc-sim", *argv])
        assert main(None) == 0
        captured = capsys.readouterr()
        assert (0, captured.out, captured.err) == expected

    @pytest.mark.parametrize("argv, usage", [(["--help"], "usage: dctc-sim [-h]"),
                                             (["table1", "--help"], "usage: dctc-sim table1")])
    def test_none_reads_help_from_sys_argv(self, argv, usage, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["dctc-sim", *argv])
        with pytest.raises(SystemExit) as info:
            main(None)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(usage)

    def test_tuple_and_generator_argv(self, capsys):
        argv = ("discriminate", "--bell", "psi+", "--output-format", "json")
        expected = run_cli(capsys, *argv)
        for given in (argv, (token for token in argv)):
            assert main(given) == 0
            captured = capsys.readouterr()
            assert (0, captured.out, captured.err) == expected


def recording(fn, results):
    """``fn``, appending what each call returns to ``results``."""
    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]
    return wrapper


def assert_same_record(record, reference):
    assert record.input_bell is reference.input_bell
    assert record.alice_outcome == reference.alice_outcome
    assert record.b1b2 == reference.b1b2
    assert record.outcome_probability == reference.outcome_probability
    assert np.array_equal(record.bob_state, reference.bob_state)
    assert np.array_equal(record.fixed_point.fixed_point.matrix,
                          reference.fixed_point.fixed_point.matrix)


class TestStackedExperiments:
    """Each experiment solves its four inputs in one stacked call; every input
    comes out as it does alone in a stack of one, with Alice's outcomes drawn
    from the seed's generator in the same order."""

    SEEDS = range(6)
    ALPHAS = (0.3, 0.6)

    def test_table1_records_match_single_discriminations(self, capsys, monkeypatch):
        stacks = []
        monkeypatch.setattr(cli, "discriminate_bells", recording(cli.discriminate_bells, stacks))
        for alpha in self.ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            for seed in self.SEEDS:
                assert run_cli(capsys, "table1", "--alpha", str(alpha), "--seed", str(seed))[0] == 0
                rng = np.random.default_rng(seed)
                for record, bell in zip(stacks.pop(), BellLabel):
                    assert_same_record(record, protocols.discriminate_bell(bell, amps, seed=rng))

    def test_smolin_records_match_single_discriminations(self):
        for alpha in self.ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            for seed in self.SEEDS:
                report = protocols.distill_smolin(amps, seed=seed)
                rng = np.random.default_rng(seed)
                for branch in report.branches:
                    reference = protocols.discriminate_bell(branch.branch, amps, seed=rng)
                    assert_same_record(branch.record, reference)
                    assert branch.message is reference.identified

    def test_fixed_point_readouts_match_single_readouts(self, capsys, monkeypatch):
        stacks = []
        monkeypatch.setattr(cli, "ctc_readouts", recording(cli.ctc_readouts, stacks))
        for alpha in self.ALPHAS:
            amps = AmplitudePair.from_alpha(alpha)
            for seed in self.SEEDS:
                code, doc, _ = run_json(capsys, "fixed-point", "--alpha", str(alpha),
                                        "--seed", str(seed))
                assert code == 0
                readouts = stacks.pop()
                for row, readout, state in zip(doc["rows"], readouts,
                                               candidate_states(amps).values()):
                    alone = protocols.ctc_readouts(amps, state[None, :, None])[0]
                    assert readout[:3] == alone[:3]
                    assert readout[3].residual == alone[3].residual
                    assert np.array_equal(readout[3].fixed_point.matrix,
                                          alone[3].fixed_point.matrix)
                    assert row["modal_probability"] == float(f"{alone[2]:.15g}")
