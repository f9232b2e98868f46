"""The benchmark's workloads: the ops of one pass, built from a seed, and the
check that each op's output is correct.

An op's ``run`` is the only timed code.  ``check`` runs after the pass and
returns ``None`` or a failure category from ``CATEGORIES``.
"""

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

CATEGORIES = ("nonconvergence", "invariant", "misidentified", "check", "uncaught")
# Categories that mean a wrong or missing answer rather than a typed failure.
INCORRECT = ("misidentified", "check", "uncaught")

GRID_ALPHAS = (0.3, 0.45, 0.6, 0.75)
SWEEP_ALPHAS = (0.66, 0.68, 0.69, 0.695, 0.70, 0.7071)
SWEEP_MAX_ITERATIONS = 20000
BELLS = ("phi+", "phi-", "psi+", "psi-")
ORACLE_TRACE_DISTANCE = 1e-8        # as in the acceptance suite's solver/oracle criterion


@dataclass
class Op:
    key: str                        # the op's inputs, the same in every pass
    kind: str                       # experiment label for cli.<kind>.p50_ms
    run: Callable[[], object]
    check: Callable[[object], str | None]
    prepare: Callable[[], None] = lambda: None


def exception_failure(pkg, exc: Exception) -> str:
    if isinstance(exc, pkg.FixedPointConvergenceError):
        return "nonconvergence"
    if isinstance(exc, (pkg.InvariantViolationError, pkg.DegenerateAmplitudesError)):
        return "invariant"
    return "uncaught"


def exit_failure(code) -> str | None:
    return {0: None, 3: "nonconvergence", 4: "invariant"}.get(code, "uncaught")


# -- grid64 ------------------------------------------------------------------

class GridOracle:
    """Expected Bob state, fixed point and fixed-point multiplicity for each
    (alpha, Bell input), built from ``tests/oracles.py`` without the
    package's own circuit code."""

    def __init__(self, oracles):
        self.oracles = oracles
        self.cache = {}

    def expected(self, alpha, bell):
        if (alpha, bell) not in self.cache:
            o = self.oracles
            beta = math.sqrt(1.0 - alpha * alpha)
            blocks = o.four_blocks(alpha, beta)
            controlled = sum(np.kron(np.diag(np.eye(4)[c]), blocks[code])
                             for c, code in enumerate(sorted(blocks)))
            swap = o.qubit_swap(4, 0, 2) @ o.qubit_swap(4, 1, 3)
            residual = {"phi+": o.I2, "phi-": o.PZ, "psi+": o.PX, "psi-": o.PX @ o.PZ}[bell]
            bob = residual @ np.array([alpha, beta], dtype=complex)
            rho_cr = np.kron(np.outer(bob, bob.conj()), np.diag([1.0, 0.0]))
            sigma, dim = o.eigen_fixed_point(controlled @ swap, rho_cr, 4, 4)
            self.cache[(alpha, bell)] = (bob, sigma, dim)
        return self.cache[(alpha, bell)]

    def check(self, alpha, bell, record):
        if record.identified.value != bell:
            return "misidentified"
        bob, sigma, dim = self.expected(alpha, bell)
        fp = record.fixed_point
        distance = np.linalg.svd(fp.fixed_point.matrix - sigma, compute_uv=False).sum()
        if (abs(abs(np.vdot(bob, record.bob_state)) - 1.0) > 1e-9
                or fp.fp_space_dim != dim or not distance < ORACLE_TRACE_DISTANCE):
            return "check"
        return None


def grid64(pkg, oracles, seed, out_dir):
    """4 alphas x 4 Bell inputs x 4 pinned Alice outcomes, in seeded order."""
    oracle = GridOracle(oracles)
    keys = [(a, b, o) for a in GRID_ALPHAS for b in BELLS for o in BELLS]
    random.Random(seed).shuffle(keys)

    label = pkg.BellLabel.from_string

    def run(alpha, bell, outcome):
        return pkg.protocols.discriminate_bell(
            bell, pkg.AmplitudePair.from_alpha(alpha), alice_outcome=outcome)

    ops = [Op(f"{a}/{b}/{o}", "discriminate_bell", functools.partial(run, a, label(b), label(o)),
              functools.partial(oracle.check, a, b)) for a, b, o in keys]
    warmup = [op for op in ops if op.key.startswith(f"{GRID_ALPHAS[0]}/")]
    return ops, warmup


# -- CLI-driven workloads ------------------------------------------------------

def _read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def cli_op(pkg, key, kind, argv, path, check) -> Op:
    def run():
        try:
            return pkg.cli.main(argv + ["--output-format", "json", "--output", str(path)])
        except SystemExit as exc:   # argparse rejects the arguments
            return exc.code

    return Op(key, kind, run, check, prepare=lambda: path.unlink(missing_ok=True))


def identifies(bell, path):
    """Check for ``discriminate``: the referee's Bell state is identified."""
    def check(code):
        doc = _read_json(path)
        if doc is not None and doc["rows"][0]["identified"] != bell:
            return "misidentified"
        if code != 0:
            return exit_failure(code)
        return None if doc is not None and doc["rows"][0]["correct"] else "check"
    return check


def same_bytes(path, references, key):
    """Check for ``cli_mix``: exit 0 and the same bytes as the first run."""
    def check(code):
        if code != 0:
            return exit_failure(code)
        data = path.read_bytes()
        return None if references.setdefault(key, data) == data else "check"
    return check


def alpha_sweep(pkg, oracles, seed, out_dir):
    """One referee round per alpha, approaching alpha = beta = 1/sqrt(2)."""
    rng = random.Random(seed)
    ops = []
    for i, alpha in enumerate(SWEEP_ALPHAS):
        bell, cli_seed = rng.choice(BELLS), rng.randrange(2 ** 31)
        path = out_dir / f"alpha_sweep-{i}.json"
        argv = ["discriminate", "--alpha", repr(alpha), "--bell", bell,
                "--seed", str(cli_seed), "--max-iterations", str(SWEEP_MAX_ITERATIONS)]
        ops.append(cli_op(pkg, f"alpha={alpha}", "discriminate", argv, path,
                          identifies(bell, path)))
    path = out_dir / "alpha_sweep-warmup.json"
    warmup = [cli_op(pkg, "warmup", "discriminate",
                     ["discriminate", "--alpha", "0.3", "--bell", "phi+"], path,
                     identifies("phi+", path))]
    return ops, warmup


def cli_mix(pkg, oracles, seed, out_dir):
    """Every CLI experiment at alpha = 0.3; the warm-up pass fixes the bytes
    each later pass must reproduce."""
    rng = random.Random(seed)
    bell, cli_seed = rng.choice(BELLS), rng.randrange(2 ** 31)
    experiments = (
        ("table1", ["table1"]),
        ("fixed-point", ["fixed-point"]),
        ("discriminate", ["discriminate", "--bell", bell]),
        ("smolin", ["smolin"]),
        ("smolin-improper", ["smolin", "--improper-mixture"]),
        ("measures", ["measures"]),
    )
    references = {}
    ops = []
    for kind, argv in experiments:
        path = out_dir / f"cli_mix-{kind}.json"
        ops.append(cli_op(pkg, kind, kind, argv + ["--alpha", "0.3", "--seed", str(cli_seed)],
                          path, same_bytes(path, references, kind)))
    return ops, ops


WORKLOADS = {"grid64": grid64, "alpha_sweep": alpha_sweep, "cli_mix": cli_mix}
