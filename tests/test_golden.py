"""Golden CLI corpus: every argv of the grid below gives the exit code, the
JSON document and the stderr text recorded in ``golden/manifest.json``.

Every field of a document is compared exactly (same keys, same types, same
values), except fields whose names end in ``residual``.  Those hold the trace
norm of Phi(sigma*) - sigma*, which is rounding dust, not data: it is 0.0 at
some alpha and ~1e-47 at others, and its last digits move with the BLAS
build and with the order of the arithmetic that produces it.  A residual must
be finite, at least 0 and below the run's tolerance (``parameters.tolerance``
of the document), which is the check the solver itself makes.  stderr is
compared exactly, except for exit code 2, whose text argparse words
differently across Python versions.  Every argv without a plant is also run
as CSV and as a table, in the same process as its JSON run: a run that exits
0 writes the JSON document's values in every CSV cell and in the table's
experiment, parameter, row and diagnostic lines; any other run exits with
the same code and stderr, and prints nothing, in every format.

Each run is in-process, through :func:`dctcsim.cli.main`.  A planted failure
stands in where no argv fails the same way on every BLAS build: the solver's
non-convergence (exit 3, which an exact 0.0 residual can never give) and an
invariant violation during a run (exit 4).  Regenerate the manifest with
``python tests/golden/regenerate.py`` and list in ``CHANGES.md`` every argv
whose document changed, and why.  Regeneration keeps a stored residual when
both it and the fresh one are in bound (:func:`merged`), so it rewrites no
rounding dust.
"""

import ast
import contextlib
import csv
import io
import json
import math
from pathlib import Path
from unittest import mock

import pytest

import dctcsim.cli as cli
import dctcsim.protocols as protocols
from dctcsim import FixedPointConvergenceError, InvariantViolationError

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

EXPERIMENTS = (("table1",), ("fixed-point",), ("discriminate",), ("smolin",),
               ("smolin", "--improper-mixture"), ("measures",))
ALPHAS = ("0.1", "0.3", "0.6", "0.69", "0.7071", "0.75")
SEEDS = ("0", "3")
HALF = "0.7071067811865475"         # str(1 / np.sqrt(2)): a degenerate pair


def _fail_to_converge(*args, **kwargs):
    raise FixedPointConvergenceError(1e-3, 1e-12, "planted failure")


def _violate(*args, **kwargs):
    raise InvariantViolationError("planted violation")


# A plant replaces one module binding for the run: (owner, name, replacement).
PLANTS = {
    "nonconvergence": (protocols, "apply_label_chains", _fail_to_converge),
    "invariant": (cli, "discriminate_bell", _violate),
}

# (argv, plant): the experiment grid, then the degenerate, exit-2, exit-3 and
# exit-4 argvs of test_cli.py.  Every run appends --output-format json.
CASES = (
    [((*experiment, "--alpha", alpha, "--seed", seed), None)
     for experiment in EXPERIMENTS for alpha in ALPHAS for seed in SEEDS]
    + [(("fixed-point", "--alpha", HALF, "--allow-degenerate"), None),
       (("fixed-point", "--alpha", "0.70710678"), None)]
    + [(argv, None) for argv in (
        ("no-such-experiment",), ("table1", "--alpha", "1.5"), ("table1", "--circuit", "literal"),
        ("discriminate", "--seed", "-1"), ("table1", "--seed", "-1"), ("smolin", "--seed", "-1"),
        ("table1", "--tolerance", "inf"), ("table1", "--tolerance", "1e400"),
        ("table1", "--tolerance", "nan"), ("table1", "--tolerance", "0"),
        ("table1", "--output", ""))]
    + [(experiment, "nonconvergence") for experiment in EXPERIMENTS[:5]]
    + [(("discriminate", "--alpha", HALF, "--allow-degenerate"), None),
       (("smolin", "--improper-mixture", "--alpha", HALF, "--allow-degenerate"), None),
       (("discriminate",), "invariant")]
)


def case_id(argv, plant) -> str:
    return " ".join(argv) + (f" [{plant}]" if plant else "")


def _main(argv, output_format, plant=None) -> tuple:
    """One in-process run of ``argv`` in ``output_format``: (exit code,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if plant is not None:
            stack.enter_context(mock.patch.object(*PLANTS[plant]))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main([*argv, "--output-format", output_format])
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(argv, plant=None) -> dict:
    """One in-process JSON run: its exit code, its document (None when it
    printed nothing) and its stderr (None for exit code 2)."""
    code, text, err = _main(argv, "json", plant)
    return {"exit": code, "document": json.loads(text) if text else None,
            "stderr": None if code == 2 else err}


def _residual_in_bound(value, tolerance) -> bool:
    """The check a ``*residual`` field passes: a finite number, at least 0
    and below the run's tolerance."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and 0 <= value < tolerance)


def _same(got, want, tolerance, path="document"):
    """``got`` equals ``want`` field by field; a field named ``*residual`` is
    in bound (:func:`_residual_in_bound`) instead."""
    if path.endswith("residual"):
        assert _residual_in_bound(got, tolerance), (path, got)
        return
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            _same(got[key], want[key], tolerance, f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, tolerance, f"{path}[{i}]")
    else:
        assert got == want, (path, got, want)


def merged(fresh, stored, tolerance, path="document"):
    """``fresh`` with each ``*residual`` field as ``stored`` has it when both
    values are in bound (:func:`_residual_in_bound`): the field a
    regeneration writes, so that rounding dust is not rewritten.  Every
    other field, and a residual either side of which is out of bound, is
    ``fresh``'s."""
    if path.endswith("residual"):
        keep = _residual_in_bound(fresh, tolerance) and _residual_in_bound(stored, tolerance)
        return stored if keep else fresh
    if isinstance(fresh, dict) and isinstance(stored, dict):
        return {key: merged(item, stored[key], tolerance, f"{path}.{key}")
                if key in stored else item for key, item in fresh.items()}
    if isinstance(fresh, list) and isinstance(stored, list) and len(fresh) == len(stored):
        return [merged(item, old, tolerance, f"{path}[{i}]")
                for i, (item, old) in enumerate(zip(fresh, stored))]
    return fresh


@pytest.fixture(scope="module")
def manifest():
    with open(MANIFEST, encoding="utf-8") as handle:
        return {case_id(entry["argv"], entry["plant"]): entry for entry in json.load(handle)}


def test_manifest_covers_the_grid(manifest):
    assert sorted(manifest) == sorted(case_id(argv, plant) for argv, plant in CASES)
    documents = [e for e in manifest.values() if e["exit"] == 0]
    assert len(documents) == len(EXPERIMENTS) * len(ALPHAS) * len(SEEDS) + 1


@pytest.mark.parametrize("argv, plant", CASES, ids=[case_id(*case) for case in CASES])
def test_run_matches_manifest(argv, plant, manifest):
    want, got = manifest[case_id(argv, plant)], run(argv, plant)
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    if want["document"] is None:
        assert got["document"] is None
    else:
        _same(got["document"], want["document"], want["document"]["parameters"]["tolerance"])


def _written(value) -> str:
    """A JSON document's scalar as a CSV cell or a table field writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.15g}" if isinstance(value, float) else str(value)


def _typed(flat: dict) -> dict:
    return {key: (type(value), value) for key, value in flat.items()}


@pytest.mark.parametrize("argv", [argv for argv, plant in CASES if plant is None], ids=" ".join)
def test_csv_and_table_carry_the_json_document(argv):
    code, out, err = _main(argv, "json")
    if code != 0:
        assert _main(argv, "csv") == _main(argv, "table") == (code, "", err)
        return
    doc = json.loads(out)
    written = [{key: _written(value) for key, value in row.items()} for row in doc["rows"]]

    code, out, err = _main(argv, "csv")
    assert (code, err) == (0, "")
    header, *lines = csv.reader(io.StringIO(out))
    assert all(set(header) == row.keys() for row in written)
    assert [dict(zip(header, line)) for line in lines] == written

    code, out, err = _main(argv, "table")
    assert (code, err) == (0, "")
    experiment, parameters, columns, *table = out.splitlines()
    assert experiment == f"experiment: {doc['experiment']}"
    assert dict(field.split("=", 1) for field in parameters.split("  ")) == {
        key: _written(value) for key, value in doc["parameters"].items()}
    starts, at = [], 0                  # each column starts where its name does
    for name in header:
        starts.append(columns.index(name, at))
        at = starts[-1] + len(name)
    spans = list(zip(starts, [*starts[1:], None]))
    assert [columns[a:b].rstrip() for a, b in spans] == header
    assert [{key: line[a:b].rstrip() for key, (a, b) in zip(header, spans)}
            for line in table[:len(written)]] == written
    diagnostics = dict(line.split(" = ", 1) for line in table[len(written):])
    assert diagnostics.keys() == doc["diagnostics"].keys()
    for key, value in doc["diagnostics"].items():
        if isinstance(value, dict):
            assert _typed(ast.literal_eval(diagnostics[key])) == _typed(value), key
        else:
            assert diagnostics[key] == _written(value), key


class TestMerged:
    """Regeneration keeps stored rounding dust and rewrites everything else."""

    STORED = {"parameters": {"tolerance": 1e-12, "seed": 0},
              "rows": [{"fp_residual": 5.20013101995538e-47, "p": 0.5, "ok": True}],
              "diagnostics": {"max_fp_residual": 0.0, "note": "old"}}

    def test_dust_is_kept(self):
        fresh = {"parameters": {"tolerance": 1e-12, "seed": 0},
                 "rows": [{"fp_residual": 5.20013101995537e-47, "p": 0.5, "ok": True}],
                 "diagnostics": {"max_fp_residual": 3e-47, "note": "old"}}
        assert merged(fresh, self.STORED, 1e-12) == self.STORED

    @pytest.mark.parametrize("stored_residual", [1e-12, -1e-47, float("nan"), float("inf"),
                                                  True, "0.0", None])
    def test_stored_residual_out_of_bound_is_replaced(self, stored_residual):
        stored = json.loads(json.dumps(self.STORED))
        stored["rows"][0]["fp_residual"] = stored_residual
        fresh = json.loads(json.dumps(self.STORED))
        fresh["rows"][0]["fp_residual"] = 1e-47
        assert merged(fresh, stored, 1e-12)["rows"][0]["fp_residual"] == 1e-47

    def test_fresh_residual_out_of_bound_is_written(self):
        fresh = json.loads(json.dumps(self.STORED))
        fresh["diagnostics"]["max_fp_residual"] = 2e-12
        assert merged(fresh, self.STORED, 1e-12)["diagnostics"]["max_fp_residual"] == 2e-12

    def test_every_other_field_is_rewritten(self):
        fresh = {"parameters": {"tolerance": 1e-12, "seed": 0, "new": 1},
                 "rows": [{"fp_residual": 1e-47, "p": 0.25, "ok": False},
                          {"fp_residual": 2e-47}],
                 "diagnostics": {"max_fp_residual": 0.0, "note": "new"}}
        got = merged(fresh, self.STORED, 1e-12)
        assert got == fresh and type(got["rows"][0]["p"]) is float
        one_row = dict(fresh, rows=fresh["rows"][:1])
        assert merged(one_row, self.STORED, 1e-12) == dict(
            one_row, rows=[{"fp_residual": 5.20013101995538e-47, "p": 0.25, "ok": False}])
