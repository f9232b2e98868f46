"""Experiment runner.

Each subcommand runs one named experiment and emits a result document as a
human-readable table, JSON, or CSV.  Identical parameters (including the
seed) produce byte-identical JSON: floats are quantized to 15 significant
digits, so serialization round-trips exactly.  Every format writes the
document as the experiment assembled it and quantizes each float as it
writes it: JSON in one walk (:func:`_json_text`), byte-identical to
``json.dumps(doc, indent=2, sort_keys=True)`` of the quantized document,
CSV and table cell by cell (:func:`_cell`).  ``--output`` writes the
text's UTF-8 bytes, the bytes the same command prints, with bare
``os.write`` calls to a short temporary file beside the target
(:func:`_write_replacing`), so any file name the filesystem accepts can be
written.

Every experiment that runs the CTC stage makes one stacked call of
:func:`dctcsim.protocols.ctc_readouts` over all its inputs (``discriminate``
and ``smolin --improper-mixture`` have one); the fixed points come from the
circuit's four-label chain (see :mod:`dctcsim.deutsch`), with no iteration
budget.  Every experiment that teleports makes one stacked
:func:`dctcsim.protocols.teleport_and_correct` call over its inputs too; a
seeded run draws all of Alice's outcomes there from one block of uniform
doubles, the outcomes ``Generator.choice`` would draw input by input.
``smolin --improper-mixture`` is that pair of calls on one input, the
Smolin AB marginal's four Bell branches as the columns of one factor: the
Deutsch reading on the actual state.  ``measures`` and ``smolin`` read the
partial-transpose spectra of their constant states (the Smolin state's cuts
and the Bell pairs), which are taken once per process, on first use.

:func:`main` may be called any number of times in one process (a test
suite, a benchmark or a scripted sweep does so); the argument parser is
built on the first call and reused, and parsing never changes it.  A run
names its experiment first and is parsed once, by that experiment's parser.

Exit codes: 0 success, 2 usage error (a degenerate pair without
``--allow-degenerate``, a ``--tolerance`` that rounds to inf at 15 digits,
an empty ``--output``), 3 the fixed point fails its residual check, 4
invariant violation during the run.
"""

import argparse
import csv
import errno
import functools
import io
import math
import os
import stat
import sys
import threading
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from .circuits import AmplitudePair, candidate_states
from .deutsch import SolverConfig
from .entanglement import PPT_ATOL, _bell_spectra, _log_negativities, _smolin_spectra, smolin_cuts
from .errors import (
    DegenerateAmplitudesError,
    FixedPointConvergenceError,
    InvariantViolationError,
)
from .protocols import (
    ALICE_OUTCOME_BITS,
    _SMOLIN_AB_FACTOR,
    BellLabel,
    ctc_readouts,
    discriminate_bell,
    discriminate_bells,
    distill_smolin,
    teleport_and_correct,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INVARIANT = 4


def _quantized(value) -> float:
    """``value`` rounded to 15 significant digits; refused if it is not finite
    once rounded (the largest floats round up to inf)."""
    quantized = float(f"{float(value):.15g}")
    if not math.isfinite(quantized):
        raise InvariantViolationError(f"non-finite value {value!r} in result document")
    return quantized


def _scalar(value):
    """``value`` as CSV and table write it: a string, bool or int as it is, a
    finite float quantized (:func:`_quantized`).  Any other value raises
    ``InvariantViolationError`` ("cannot emit ..."), as :func:`_json_text`
    refuses it."""
    if isinstance(value, (str, int)):       # bool is an int
        return value
    if isinstance(value, float) and math.isfinite(value):
        return _quantized(value)
    raise InvariantViolationError(f"cannot emit {value!r} in a result document")


def _cell(value) -> str:
    """A CSV cell or a table field: ``true`` or ``false``, an int's digits, a
    float quantized to 15 significant digits, a string as it is
    (:func:`_scalar`)."""
    value = _scalar(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.15g}" if isinstance(value, float) else str(value)


def _json_text(value, indent: str = "\n") -> str:
    """``value`` with its floats quantized (:func:`_quantized`) as
    ``json.dumps(..., indent=2, sort_keys=True)`` writes it, nested at
    ``indent`` (a newline, then two spaces a level), in one walk: each float
    is quantized as it is written, and no copy is built.

    It takes dicts (keys in sorted order), lists, strings, booleans, ints and
    finite floats, numpy float64 among them.  A float that rounds past the
    largest raises ``InvariantViolationError`` ("non-finite value ..."); any
    other value, nan and the infinities included, raises it as "cannot
    emit ...", and a key that is not a string raises ``TypeError``."""
    if isinstance(value, str):
        return _json_string(value)
    if value is True:           # before int: bool is an int
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(_quantized(value))
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join([
            f"{_json_string(key)}: {_json_text(item, inner)}"
            for key, item in sorted(value.items())]) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            _json_text(item, inner) for item in value]) + indent + "]"
    raise InvariantViolationError(f"cannot emit {value!r} in a result document")


def serialize(doc: dict, output_format: str) -> str:
    """``doc``, as the experiment assembled it, as ``output_format`` text.
    JSON takes what :func:`_json_text` takes.  CSV and table write each
    parameter, row cell and diagnostic with :func:`_cell`, and a diagnostic
    that is a flat dict of such values as its ``repr``, floats quantized.
    CSV writes only the header and rows, but reads the rest as the table
    does, so the two refuse the same documents; each row must have the
    first row's keys."""
    if output_format == "json":
        try:
            return _json_text(doc) + "\n"
        except TypeError as exc:        # a key that is not a string
            raise InvariantViolationError(f"cannot emit a result document key: {exc}") from exc
    rows = doc["rows"]
    parameters = "  ".join(f"{k}={_cell(v)}" for k, v in doc["parameters"].items())
    grid = [list(rows[0])] if rows else []      # the header, then a line of cells a row
    if any(row.keys() != rows[0].keys() for row in rows):
        raise InvariantViolationError(f"cannot emit rows whose keys differ from {grid[0]}")
    grid += [[_cell(row[key]) for key in grid[0]] for row in rows]
    diagnostics = [f"{key} = " + (repr({k: _scalar(v) for k, v in value.items()})
                                  if isinstance(value, dict) else _cell(value))
                   for key, value in doc["diagnostics"].items()]
    if output_format == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(grid)
        return buffer.getvalue()
    if output_format == "table":
        widths = [max(map(len, column)) for column in zip(*grid)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in grid]
        return "\n".join([f"experiment: {doc['experiment']}", parameters, *lines,
                          *diagnostics]) + "\n"
    raise InvariantViolationError(f"unknown output format {output_format!r}")


def _state_str(vec) -> str:
    amps = np.asarray(vec).reshape(-1).tolist()     # Python complex: cheaper to test and format
    terms = []
    for idx, amp in enumerate(amps):
        if abs(amp) < 1e-14:
            continue
        value = f"{amp.real:.15g}" if abs(amp.imag) < 1e-14 else f"({amp.real:.15g}{amp.imag:+.15g}j)"
        terms.append(f"{value}|{idx:0{len(amps).bit_length() - 1}b}>")
    return " + ".join(terms) if terms else "0"


def _bits_str(bits) -> str:
    return "".join(str(b) for b in bits)


def _base_parameters(args, amps: AmplitudePair) -> dict:
    return {
        "name": args.experiment,
        "alpha": amps.alpha,
        "beta": amps.beta,
        "tolerance": args.tolerance,
        "seed": args.seed,
        "allow_degenerate": args.allow_degenerate,
    }


def _discrimination_row(record) -> dict:
    return {
        "input_bell": record.input_bell.value,
        "alice_outcome": _bits_str(record.alice_outcome),
        "b1": record.b1b2[0],
        "b2": record.b1b2[1],
        "identified": record.identified.value,
        "correct": record.identified is record.input_bell,
        "outcome_probability": record.outcome_probability,
        "bob_state": _state_str(record.bob_state),
        "fp_residual": record.fixed_point.residual,
        "fp_space_dim": record.fixed_point.fp_space_dim,
        "fp_unique": record.fixed_point.unique,
    }


def run_fixed_point(args, amps, config):
    candidates = candidate_states(amps)
    readouts = ctc_readouts(amps, np.array(list(candidates.values()))[:, :, None], config)
    rows = [{
        "code": _bits_str(code),
        "input_state": _state_str(state),
        "residual": result.residual,
        "fp_space_dim": result.fp_space_dim,
        "unique": result.unique,
        "modal_outcome": _bits_str(b1b2),
        "modal_probability": probability,
    } for (code, state), (_, b1b2, probability, result) in zip(candidates.items(), readouts)]
    diagnostics = {
        "degenerate": amps.is_degenerate,
        "max_residual": max(row["residual"] for row in rows),
    }
    return rows, diagnostics, []


def run_discriminate(args, amps, config):
    rng = np.random.default_rng(args.seed)
    bell = (list(BellLabel)[rng.integers(4)] if args.bell == "random"
            else BellLabel.from_string(args.bell))
    record = discriminate_bell(bell, amps, config, seed=rng)
    rows = [_discrimination_row(record)]
    violations = [] if record.identified is bell else [
        f"identified {record.identified.value}, referee prepared {bell.value}"]
    return rows, {"referee_bell": bell.value}, violations


def run_table1(args, amps, config):
    bells = tuple(BellLabel)
    records = discriminate_bells(bells, amps, config, seed=args.seed)
    rows = [_discrimination_row(record) for record in records]
    violations = [f"row {bell.value}: identified {record.identified.value}"
                  for bell, record in zip(bells, records) if record.identified is not bell]
    diagnostics = {
        "all_correct": not violations,
        "min_outcome_probability": min(row["outcome_probability"] for row in rows),
        "max_fp_residual": max(row["fp_residual"] for row in rows),
    }
    return rows, diagnostics, violations


def run_smolin(args, amps, config):
    if args.improper_mixture:
        # Experimental, no correctness claim: one input for the whole AB
        # marginal hands the CTC stage Bob's maximally mixed qubit.
        if amps.is_degenerate:
            raise DegenerateAmplitudesError("improper-mixture run requires a non-degenerate pair")
        (outcome,), kets = teleport_and_correct(_SMOLIN_AB_FACTOR, amps, args.seed)
        [(distribution, b1b2, probability, fixed)] = ctc_readouts(amps, kets, config)
        bob = kets[0] @ kets[0].conj().T     # the stage's trace test checked ||K||^2 = 1
        rows = [{
            "alice_outcome": _bits_str(ALICE_OUTCOME_BITS[outcome]),
            **dict(zip(("p00", "p01", "p10", "p11"), distribution)),
            "modal_outcome": _bits_str(b1b2),
            "modal_probability": probability,
            "fp_residual": fixed.residual,
            "fp_space_dim": fixed.fp_space_dim,
        }]
        diagnostics = {
            "note": "experimental improper-mixture run; no correctness claim",
            "bob_purity": float(np.real(np.trace(bob @ bob))),
        }
        return rows, diagnostics, []

    report = distill_smolin(amps, config, seed=args.seed)
    rows = [{
        "branch": branch.branch.value,
        "probability": branch.probability,
        "message": branch.message.value,
        "correct": branch.message is branch.branch,
        "alice_outcome": _bits_str(branch.record.alice_outcome),
        "outcome_probability": branch.record.outcome_probability,
        "cd_fidelity": branch.cd_fidelity,
        "cd_log_negativity": branch.cd_log_negativity,
        "fp_residual": branch.record.fixed_point.residual,
        "fp_space_dim": branch.record.fixed_point.fp_space_dim,
    } for branch in report.branches]
    violations = [f"branch {branch.branch.value} misidentified"
                  for branch in report.branches if branch.message is not branch.branch]
    diagnostics = {
        "all_identified": report.all_identified,
        "baseline_log_negativity": report.baseline_log_negativity,
        "baseline_ppt": report.baseline_ppt,
    }
    return rows, diagnostics, violations


def run_measures(args, amps, config):
    rows = []
    for state_name, cuts, spectra in (("smolin", smolin_cuts(), _smolin_spectra()),
                                      ("bell:phi+", ("A:B",), _bell_spectra()[0])):
        for cut_name, lowest, en in zip(cuts, spectra[:, 0].tolist(),
                                        _log_negativities(spectra).tolist()):
            rows.append({
                "state": state_name,
                "cut": cut_name,
                "log_negativity": en,
                "distillable_upper_bound": en,
                "ppt": lowest >= -PPT_ATOL,
                "min_pt_eigenvalue": lowest,
            })
    return rows, {}, []


_RUNNERS = {
    "fixed-point": run_fixed_point,
    "discriminate": run_discriminate,
    "table1": run_table1,
    "smolin": run_smolin,
    "measures": run_measures,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dctc-sim`` parser, built once per process and shared.

    ``parse_args`` and ``error`` leave a parser unchanged, so every call of
    :func:`main` can reuse it; no caller may add arguments, set defaults or
    otherwise change the returned object.  Its ``subcommands`` is what
    ``add_subparsers`` returned; ``choices`` maps each experiment to its parser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--alpha", type=float, default=0.6,
                        help="amplitude of |0> in Alice's prepared state (beta is derived)")
    common.add_argument("--tolerance", type=float, default=1e-12,
                        help="trace-norm residual for the fixed-point solver")
    # Ignored (the solve has no iteration budget); bench alpha_sweep still passes it.
    common.add_argument("--max-iterations", type=int, help=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output-format", choices=("table", "json", "csv"),
                        default="table")
    common.add_argument("--output", default=None, help="write to this path instead of stdout")
    common.add_argument("--allow-degenerate", action="store_true",
                        help="permit a degenerate pair (fixed-point exploration only)")

    parser = argparse.ArgumentParser(
        prog="dctc-sim",
        description="Simulate closed-timelike-curve circuits: fixed points, "
                    "Bell-state discrimination, and Smolin-state experiments.")
    sub = parser.subcommands = parser.add_subparsers(dest="experiment", required=True)
    sub.add_parser("fixed-point", parents=[common],
                   help="fixed-point diagnostics for the four candidate inputs")
    p_disc = sub.add_parser("discriminate", parents=[common],
                            help="one referee round of Bell discrimination")
    p_disc.add_argument("--bell", choices=(*(label.value for label in BellLabel), "random"),
                        default="random")
    sub.add_parser("table1", parents=[common],
                   help="discrimination table for all four Bell inputs")
    p_smolin = sub.add_parser("smolin", parents=[common],
                              help="branch-wise Smolin distillation experiment")
    p_smolin.add_argument("--improper-mixture", action="store_true",
                          help="experimental: push the unconditioned marginal through")
    sub.add_parser("measures", parents=[common],
                   help="log-negativity and PPT status for the Smolin cuts and a Bell pair")
    return parser


def _write_all(fd: int, data: bytes) -> None:
    """Write ``data`` to the descriptor ``fd`` in as many ``os.write`` calls
    as it takes, then close ``fd``."""
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])     # data[0:] is data: no copy
    finally:
        os.close(fd)


def _write_replacing(path: str, text: str) -> None:
    """Write ``text``, UTF-8 encoded, to a new file in ``path``'s directory
    (mode as ``open(path, "w")`` gives), unlink ``path`` and rename the file
    to it, or on failure remove the file.  Unlinking first spares the flush
    ext4 forces on a rename over a file; a reader may briefly find no file at
    ``path``, but never a half-written one.  The new file's name,
    ``.dctc-sim.<pid>.<thread id>.tmp``, is the process's and thread's, so no
    other live writer owns it, and it is short whatever ``path``'s name is,
    so any name the filesystem takes can be written.  It is created
    exclusively, so a symlink planted at that predictable name is refused,
    never followed; a file already there, left by a killed run, is removed
    and the create tried once more.  ``path`` is looked up once: one that
    exists but is no regular file (a FIFO, a device) is written in place,
    and only a regular file found there is unlinked.  A ``path`` that no
    file can have (a NUL byte, a lone surrogate) raises ``OSError``
    (``EINVAL``).

    Each file is written through its bare descriptor (:func:`_write_all`),
    with no buffered file object."""
    data = text.encode("utf-8")
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except OSError:             # as os.path.exists: no file to replace
        regular = None
    except ValueError as exc:   # a NUL byte, or a character the filesystem encoding lacks
        raise OSError(errno.EINVAL, str(exc), path) from None
    if regular is False:
        _write_all(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666), data)
        return
    tmp = os.path.join(os.path.dirname(path),
                       f".dctc-sim.{os.getpid()}.{threading.get_ident()}.tmp")
    create = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, create, 0o666)
    except FileExistsError:
        os.unlink(tmp)
        fd = os.open(tmp, create, 0o666)
    try:
        _write_all(fd, data)
        if regular:
            try:
                os.unlink(path)
            except FileNotFoundError:   # another writer's unlink came first
                pass
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """``parser.parse_args(argv)``, in one pass when ``argv`` names an
    experiment first: that experiment's own parser reads the rest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in parser.subcommands.choices:
        return parser.parse_args(argv)
    args, extras = parser.subcommands.choices[argv[0]].parse_known_args(argv[1:])
    if extras:      # the error parse_args reports, in the same words
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.experiment = argv[0]
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    if args.output == "":
        parser.error("--output must be a path, got an empty string")

    try:
        amps = AmplitudePair.from_alpha(args.alpha)
        if amps.is_degenerate and not args.allow_degenerate:
            parser.error(f"{amps} is degenerate, its CTC fixed point not unique; "
                         "pass --allow-degenerate to run it")
        config = SolverConfig(tolerance=args.tolerance)
        _quantized(args.tolerance)      # the document must hold it
    except InvariantViolationError as exc:
        parser.error(str(exc))  # exits with status 2

    try:
        rows, diagnostics, violations = _RUNNERS[args.experiment](args, amps, config)
        document = {"experiment": args.experiment, "parameters": _base_parameters(args, amps),
                    "rows": rows, "diagnostics": diagnostics}
        text = serialize(document, args.output_format)
    except FixedPointConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except DegenerateAmplitudesError as exc:
        print(f"degenerate amplitudes: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    if args.output:
        try:
            _write_replacing(args.output, text)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)

    if violations:
        for violation in violations:
            print(f"invariant violation: {violation}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
