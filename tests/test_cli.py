"""Experiment runner: documents, serialization, determinism, exit codes."""

import json
import os
import stat
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
from dctcsim.cli import build_parser, main, make_document, serialize
from dctcsim.entanglement import PPT_ATOL


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
        doc = make_document("demo", {"alpha": 0.6}, [{"x": 1 / 3, "ok": True}],
                            {"note": "n"})
        parsed = json.loads(serialize(doc, "json"))
        assert parsed == doc

    def test_floats_quantized_to_15_digits(self):
        doc = make_document("demo", {}, [{"value": 0.1234567890123456789}], {})
        value = doc["rows"][0]["value"]
        assert value == float(f"{value:.15g}")

    def test_non_finite_rejected(self):
        from dctcsim import InvariantViolationError
        with pytest.raises(InvariantViolationError):
            make_document("demo", {}, [{"value": float("nan")}], {})

    def test_empty_rows_serialize(self):
        doc = make_document("demo", {}, [], {})
        assert json.loads(serialize(doc, "json"))["rows"] == []
        assert serialize(doc, "csv") == ""


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
        documents = []

        def recording(doc, output_format):
            documents.append(doc)
            return serialize(doc, output_format)
        monkeypatch.setattr(cli, "serialize", recording)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        [doc] = documents
        assert out == serialize(doc, "json") == dumps(doc)

    @pytest.mark.parametrize("doc", [
        make_document("demo", {}, [], {}),
        make_document("demo", {"nested": {"b": [1, {"c": [], "d": {}}], "a": {"x": [[]]}}},
                      [{"x": 1}], {"flags": [True, False]}),
        make_document("caf\u00e9 \u2203\U0001d11e", {"k\u00ebY": "\u00e9", "\"q\"": "\\"},
                      [{"text": "tab\t nl\n nul\x00 us\x1f del\x7f quote\" slash/ back\\"}],
                      {"\u0000key": "\ud83d\ude00 \ufeff"}),
        make_document("numbers", {"zero": -0.0, "tiny": 1e-300, "big": 1e16, "huge": 2 ** 80,
                                  "negative": -7, "third": 1 / 3, "whole": 2.0},
                      [{"int": np.int64(-3), "float": np.float64(5e-324), "max": 1.79e308}], {}),
    ], ids=["empty", "nested", "text", "numbers"])
    def test_hand_built_documents_match_json_dumps(self, doc):
        assert serialize(doc, "json") == dumps(doc)

    @pytest.mark.parametrize("value", [
        None, (1, 2), {1, 2}, b"x", 1j, np.int64(1), np.array([1.0]),
        float("nan"), float("inf"), -float("inf"), {1: "int key"}, {"a": 1, 2: "mixed keys"},
    ], ids=["none", "tuple", "set", "bytes", "complex", "np-int", "array", "nan", "inf", "-inf",
            "int-key", "mixed-keys"])
    def test_value_clean_cannot_build_is_invariant_violation(self, value):
        doc = {"experiment": "demo", "parameters": {}, "rows": [{"value": value}],
               "diagnostics": {}}
        with pytest.raises(InvariantViolationError, match="^cannot emit "):
            serialize(doc, "json")

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_float_quantized_past_the_largest_is_refused(self, output_format):
        # 15 significant digits round the largest float up to inf: the document
        # is refused, in every format, not written with inf or a bare Infinity.
        with pytest.raises(InvariantViolationError, match="non-finite"):
            serialize(make_document("demo", {}, [{"max": 1.7976931348623157e308}], {}),
                      output_format)


class TestMeasures:
    def test_smolin_cuts_and_bell_row(self, capsys):
        code, doc, _ = run_json(capsys, "measures")
        assert code == 0
        rows = {(r["state"], r["cut"]): r for r in doc["rows"]}
        for cut in ("AB:CD", "AC:BD", "AD:BC"):
            row = rows[("smolin", cut)]
            assert abs(row["log_negativity"]) <= 1e-10
            assert row["distillable_upper_bound"] == 0.0
            assert row["ppt"] is True
        bell_row = rows[("bell:phi+", "A:B")]
        assert abs(bell_row["log_negativity"] - 1.0) <= 1e-12
        assert abs(bell_row["distillable_upper_bound"] - 1.0) <= 1e-12
        assert bell_row["ppt"] is False

    def test_every_column_reads_the_same_spectrum(self):
        rows, _, _ = cli.run_measures(None, None, None)
        assert len(rows) == 4
        for row in rows:
            assert row["ppt"] == (row["min_pt_eigenvalue"] >= -PPT_ATOL)
            assert row["distillable_upper_bound"] == max(0.0, row["log_negativity"])


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

    def test_degenerate_rejected_in_strict_mode(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fixed-point", "--alpha", "0.70710678"])
        assert info.value.code == 2

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
        for argv in (["discriminate"], ["smolin", "--improper-mixture"]):
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

    def test_stale_temporary_file_is_replaced(self, tmp_path, capsys):
        # A run killed after opening its temporary file leaves it behind, and a
        # later run with the same PID must not trip over it.
        target = tmp_path / "doc.json"
        (tmp_path / f".dctc-sim.{os.getpid()}.{threading.get_ident()}.tmp").write_text("x" * 1000)
        code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                               "--output", str(target))
        assert (code, out) == (0, "")
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert target.read_text() == expected
        assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]

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

    def test_symlink_at_temporary_name_is_not_followed(self, tmp_path, capsys):
        # A symlink planted at the predictable temporary name is removed as a
        # stale file: the file it points at keeps its bytes.
        target, victim = tmp_path / "doc.json", tmp_path / "victim"
        victim.write_text("victim")
        (tmp_path / f".dctc-sim.{os.getpid()}.{threading.get_ident()}.tmp").symlink_to(victim)
        code, out, _ = run_cli(capsys, "table1", "--output-format", "json",
                               "--output", str(target))
        assert (code, out) == (0, "")
        assert victim.read_text() == "victim"
        _, expected, _ = run_cli(capsys, "table1", "--output-format", "json")
        assert not target.is_symlink()
        assert target.read_text() == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["doc.json", "victim"]

    def test_symlink_planted_after_stale_unlink_is_refused(self, tmp_path, capsys,
                                                           monkeypatch):
        # A symlink planted again between the unlink of a stale file and the
        # open: exclusive creation refuses it, where O_TRUNC would write through.
        target, victim = tmp_path / "doc.json", tmp_path / "victim"
        victim.write_text("victim")
        tmp = tmp_path / f".dctc-sim.{os.getpid()}.{threading.get_ident()}.tmp"
        tmp.symlink_to(victim)
        unlink = os.unlink

        def racing_unlink(path):
            unlink(path)
            if os.fspath(path) == os.fspath(tmp):
                tmp.symlink_to(victim)
        monkeypatch.setattr(cli.os, "unlink", racing_unlink)
        code, out, err = run_cli(capsys, "table1", "--output-format", "json",
                                 "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output: [Errno 17] File exists")
        assert victim.read_text() == "victim"
        assert not target.exists()

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
