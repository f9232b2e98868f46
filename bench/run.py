"""Benchmark of dctcsim: end-to-end timings of three workloads, and per-layer
timings from a separate traced run.

    python3 bench/run.py --workload grid64 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run it from the root of a source checkout; it imports ``src/dctcsim`` and
``tests/oracles.py`` from there and writes only under ``bench/out/``.  A run
repeats passes (one full sweep of the workload's ops) until ``--seconds``
have elapsed, checks every op outside the timed region, and prints one
JSON object as its last line.  Metric names, units and bounds are declared
in ``BENCHMARK.json``; see ``bench/README.md`` for their definitions.
"""

import argparse
import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
from tracing import Tracer, merge_passes
from workloads import CATEGORIES, INCORRECT, WORKLOADS, exception_failure

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
SETUP_SAMPLES = 9
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import dctcsim as d; "
               "d.discriminate_bell(d.BellLabel.PHI_PLUS, d.AmplitudePair.from_alpha(0.3), seed=0)")


class ProgramMissing(Exception):
    pass


def load_program():
    """Import the package and the test oracles from this checkout only."""
    src, tests = ROOT / "src", ROOT / "tests"
    for needed in (src / "dctcsim" / "__init__.py", tests / "oracles.py"):
        if not needed.is_file():
            raise ProgramMissing(f"{needed.relative_to(ROOT)} not found under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    pkg = importlib.import_module("dctcsim")
    importlib.import_module("dctcsim.cli")
    if Path(pkg.__file__).resolve().parent != (src / "dctcsim").resolve():
        raise ProgramMissing(f"dctcsim was imported from {pkg.__file__}, not {src}")
    return pkg, importlib.import_module("oracles")


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- run metadata ----------------------------------------------------------------

def _blas_threads():
    """Thread count of the loaded OpenBLAS, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def metadata(workload, seed, seconds, trace):
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "git_commit": _git_commit(),
        "load": "one process; ops run one at a time on the main thread",
    }


# -- measuring -------------------------------------------------------------------

def time_child(code, *args) -> float:
    """Wall time of a fresh interpreter that runs ``code``.

    The child is reaped with a blocking wait: ``subprocess.run`` with a
    timeout polls with sleeps of up to 50 ms, which would quantize the time.
    A timer kills a child that hangs."""
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code, *args], stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        status = child.wait()
    finally:
        watchdog.cancel()
    if status != 0:
        raise RuntimeError(f"child {code!r} exited with status {status}")
    return time.perf_counter() - start


def setup_sample() -> tuple:
    """One set-up time, a fresh interpreter that imports dctcsim and runs one
    discrimination at alpha = 0.3, and right after it the time of the
    reference child (see hostspeed.py)."""
    return (time_child(SETUP_CHILD, str(ROOT / "src")),
            time_child(hostspeed.REFERENCE_CHILD))


@dataclass
class Pass:
    traced: bool
    durations: list
    kernel: list                    # host-speed samples: one before each op, one after the last
    failures: list
    spans: object = None

    def normalized(self) -> list:
        """Each op's duration at the nominal host speed (see hostspeed.py)."""
        return [hostspeed.normalize(d, before, after)
                for d, before, after in zip(self.durations, self.kernel, self.kernel[1:])]


def run_pass(pkg, ops, tracer=None) -> Pass:
    results, durations, kernel = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            for index, op in enumerate(ops):
                op.prepare()
                kernel.append(hostspeed.sample())
                if tracer is not None:
                    tracer.op = index
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:    # a crashing op is a counted failure
                    result = exc
                durations.append(time.perf_counter() - start)
                results.append(result)
            kernel.append(hostspeed.sample())
    finally:
        if tracer is not None:
            tracer.restore()
    failures = [exception_failure(pkg, r) if isinstance(r, Exception) else op.check(r)
                for op, r in zip(ops, results)]
    return Pass(tracer is not None, durations, kernel, failures,
                tracer.take_pass() if tracer is not None else None)


def measure(pkg, ops, seconds, tracer=None, between=lambda elapsed: None) -> list:
    """Passes until ``seconds`` have elapsed.  With a tracer, untraced and
    traced passes alternate and at least one of each runs.  ``between`` is
    called before each pass with the time elapsed so far."""
    passes = []
    began = time.perf_counter()
    while len(passes) < (2 if tracer else 1) or time.perf_counter() - began < seconds:
        between(time.perf_counter() - began)
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(pkg, ops, tracer if traced else None))
    return passes


def tail(values) -> tuple:
    """(percentile, value) of the highest nearest-rank percentile with at
    least ten values beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return 100.0, ordered[-1]
    rank = len(ordered) - 10
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def run_workload(pkg, oracles, workload, seed, seconds, trace):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    end_to_end, per_layer = declared_metrics()
    ops, warmup = WORKLOADS[workload](pkg, oracles, seed, OUT_DIR)
    run_pass(pkg, warmup)
    tracer = Tracer(pkg) if trace else None
    if trace:
        passes = measure(pkg, ops, seconds, tracer)
    else:
        # Set-up samples are spread over the run, one due every
        # seconds / SETUP_SAMPLES, so that their median does not rest on
        # the host's speed during one short moment.
        setup_sample()              # fills the bytecode cache; not counted
        setups = []

        def sample_setup(elapsed):
            while (len(setups) < SETUP_SAMPLES
                   and elapsed >= len(setups) * seconds / SETUP_SAMPLES):
                setups.append(setup_sample())

        passes = measure(pkg, ops, seconds, between=sample_setup)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample())

    failures = Counter(f for p in passes for f in p.failures if f is not None)
    attempted = len(ops) * len(passes)
    failed = sum(failures.values())
    untraced = [p for p in passes if not p.traced]
    pass_times = [sum(p.normalized()) for p in untraced]
    pass_p50_s = statistics.median(pass_times)
    tail_pct, tail_s = tail(pass_times)
    info = {
        "ops_per_pass": len(ops), "passes": len(passes), "untraced_passes": len(untraced),
        "pass_tail_s": tail_s, "pass_tail_percentile": tail_pct,
        "wall_pass_p50_s": statistics.median(sum(p.durations) for p in untraced),
        "kernel_p50_s": statistics.median(k for p in untraced for k in p.kernel),
        **{f"fail.{c}": failures[c] for c in CATEGORIES},
    }

    if trace:
        traced = [p for p in passes if p.traced]
        per_pass, cli_ms = [], {}
        for p in traced:
            sums, durations = tracer.pass_metrics(p.spans, [op.kind for op in ops])
            per_pass.append(sums)
            for kind, samples in durations.items():
                cli_ms.setdefault(kind, []).extend(samples)
        values = merge_passes(per_pass, cli_ms)
        values["trace_overhead_ratio"] = (
            statistics.median(sum(p.normalized()) for p in traced) / pass_p50_s - 1.0)
        values.update({f"fail.{c}": failures[c] / len(passes) for c in CATEGORIES})
        tracer.save(OUT_DIR / f"spans-{workload}.npz", list(enumerate(p.spans for p in traced)))
        units = per_layer
    else:
        ok = attempted - failed
        info["setup_wall_s"] = statistics.median(s for s, _ in setups)
        info["reference_child_s"] = statistics.median(r for _, r in setups)
        values = {
            "setup_s": hostspeed.normalize_child(info["setup_wall_s"], info["reference_child_s"]),
            "pass_p50_s": pass_p50_s,
            "ops_per_s": ok / len(passes) / pass_p50_s,
            "success_ratio": ok / attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = end_to_end

    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": not any(failures[c] for c in INCORRECT),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"metadata": metadata(workload, seed, seconds, trace), "info": info,
              "result": result}
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg, oracles = load_program()
    except ProgramMissing as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = run_workload(pkg, oracles, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"metadata": record["metadata"], "info": record["info"]}))
        print(json.dumps(record["result"]))
        return 0

    combined = {}
    for trace in (0, 1):        # untraced runs first, so their peak RSS holds no spans
        for workload in WORKLOADS:
            record = run_workload(pkg, oracles, workload, args.seed, args.seconds, trace)
            result = record["result"]
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"   {name:40s} {metric['value']:>14.6g} {metric['unit']}")
            print(f"   info: {json.dumps(record['info'])}")
            combined.setdefault(workload, {})[f"trace{trace}"] = result
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
