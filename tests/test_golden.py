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
differently across Python versions.  CSV and table output are tied to the
JSON document by ``test_cli.py``.

Each run is in-process, through :func:`dctcsim.cli.main`.  A planted failure
stands in where no argv fails the same way on every BLAS build: the solver's
non-convergence (exit 3, which an exact 0.0 residual can never give) and an
invariant violation during a run (exit 4).  Regenerate the manifest with
``python tests/golden/regenerate.py`` and list in ``CHANGES.md`` every argv
whose document changed, and why.
"""

import contextlib
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


def run(argv, plant=None) -> dict:
    """One in-process run: its exit code, its JSON document (None when it
    printed nothing) and its stderr (None for exit code 2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if plant is not None:
            stack.enter_context(mock.patch.object(*PLANTS[plant]))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main([*argv, "--output-format", "json"])
        except SystemExit as exc:       # argparse rejects the arguments
            code = exc.code
    text = out.getvalue()
    return {"exit": code, "document": json.loads(text) if text else None,
            "stderr": None if code == 2 else err.getvalue()}


def _same(got, want, tolerance, path="document"):
    """``got`` equals ``want`` field by field; a field named ``*residual`` is
    finite, at least 0 and below ``tolerance`` instead."""
    if path.endswith("residual"):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert math.isfinite(got) and 0 <= got < tolerance, (path, got)
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
