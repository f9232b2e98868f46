"""Span tracing of the dctcsim layers, done from outside the package.

``Tracer.install`` replaces every module-level binding of each timed
function, and the ``__init__`` of each timed class, with a wrapper that
records one span per call: name, start, end, parent span and op id.
``protocols`` and ``cli`` import ``apply_dctc`` and ``discriminate_bell`` by
name, so every module of the package is searched for bindings, not only the
defining one.  ``Tracer.restore`` puts the original objects back and checks
that no wrapper is left, so untraced passes measure the unmodified package.

Spans stay in memory, one flat set of arrays per pass, and are written out
when the run ends.
"""

import functools
import math
import statistics
import time
from array import array

import numpy as np

MODULES = ("qmath", "circuits", "deutsch", "entanglement", "protocols", "cli")

# (defining module, attribute).  Classes are timed through their __init__.
TARGETS = (
    ("qmath", "trace_norm"),
    ("qmath", "kron"),
    ("qmath", "DensityOperator"),
    ("circuits", "bhw_interaction"),
    ("circuits", "UnitaryOperator"),
    ("deutsch", "solve_fixed_point"),
    ("deutsch", "fixed_point_space_dim"),
    ("deutsch", "superoperator_matrix"),
    ("deutsch", "apply_dctc"),
    ("entanglement", "log_negativity"),
    ("entanglement", "is_ppt"),
    ("protocols", "teleport_and_correct"),
    ("protocols", "discriminate_bell"),
    ("protocols", "distill_smolin"),
    ("cli", "serialize"),
    ("cli", "main"),
)

# Per-layer metrics that are sums over one pass: (metric, span, field).
# "ms" sums whole span durations, "self_ms" subtracts child coverage.
PASS_SUMS = (
    ("qmath.trace_norm.calls", "qmath.trace_norm", "calls"),
    ("qmath.trace_norm.ms", "qmath.trace_norm", "ms"),
    ("qmath.kron.ms", "qmath.kron", "ms"),
    ("qmath.DensityOperator.calls", "qmath.DensityOperator", "calls"),
    ("qmath.DensityOperator.ms", "qmath.DensityOperator", "ms"),
    ("circuits.bhw_interaction.calls", "circuits.bhw_interaction", "calls"),
    ("circuits.bhw_interaction.ms", "circuits.bhw_interaction", "ms"),
    ("circuits.UnitaryOperator.ms", "circuits.UnitaryOperator", "ms"),
    ("deutsch.solve_fixed_point.self_ms", "deutsch.solve_fixed_point", "self_ms"),
    ("deutsch.fixed_point_space_dim.ms", "deutsch.fixed_point_space_dim", "ms"),
    ("deutsch.superoperator_matrix.ms", "deutsch.superoperator_matrix", "ms"),
    ("deutsch.apply_dctc.self_ms", "deutsch.apply_dctc", "self_ms"),
    ("entanglement.log_negativity.ms", "entanglement.log_negativity", "ms"),
    ("entanglement.is_ppt.ms", "entanglement.is_ppt", "ms"),
    ("protocols.teleport_and_correct.ms", "protocols.teleport_and_correct", "ms"),
    ("protocols.discriminate_bell.self_ms", "protocols.discriminate_bell", "self_ms"),
    ("protocols.distill_smolin.self_ms", "protocols.distill_smolin", "self_ms"),
    ("cli.serialize.ms", "cli.serialize", "ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
)

CLI_EXPERIMENTS = ("table1", "fixed-point", "discriminate", "smolin",
                   "smolin-improper", "measures")


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its children cover.

    Coverage is the union of the children's intervals clipped to the parent,
    so overlapping or out-of-order children are not counted twice.
    """
    covered = [0.0] * len(start)
    reach = {}                      # parent -> furthest covered instant so far
    for i in sorted(range(len(start)), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class PassSpans:
    """Spans of one pass as parallel arrays; parents index into the same pass."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.solves = []            # (span, iterations reported or None, fp_space_dim or None)
        self.amplitudes = []        # (alpha, beta) of every bhw_interaction call


class Tracer:
    def __init__(self, package):
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.names = []
        self.op = -1
        self.spans = PassSpans()
        self._stack = []
        self._patched = []          # (owner, attribute, original)
        self._wrappers = {}         # id -> wrapper; held so that no id is reused

    # -- installing and removing the wrappers ---------------------------------

    def install(self):
        pkg = self.modules[0]
        for module_name, attr in TARGETS:
            target = getattr(getattr(pkg, module_name), attr)
            name = f"{module_name}.{attr}"
            if isinstance(target, type):
                original = target.__dict__["__init__"]
                self._patch(target, "__init__", original, self._wrap(name, original))
                continue
            wrapper = self._wrap(name, target, self._observer(name))
            for module in self.modules:
                for binding, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, binding, target, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        left = [f"{m.__name__}.{k}" for m in self.modules for k, v in vars(m).items()
                if id(v) in self._wrappers]
        left += [f"{v.__name__}.__init__" for m in self.modules for v in vars(m).values()
                 if isinstance(v, type) and id(v.__dict__.get("__init__")) in self._wrappers]
        if left:
            raise RuntimeError(f"tracer left wrappers in place: {left}")

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _observer(self, name):
        if name == "circuits.bhw_interaction":
            def observe(span, args, kwargs, result, exc):
                amps = args[0] if args else kwargs.get("amps")
                self.spans.amplitudes.append((amps.alpha, amps.beta))
            return observe
        if name == "deutsch.solve_fixed_point":
            def observe(span, args, kwargs, result, exc):
                iterations = getattr(result if exc is None else exc, "iterations", None)
                self.spans.solves.append(
                    (span, iterations, getattr(result, "fp_space_dim", None)))
            return observe
        return None

    def _wrap(self, name, fn, observe=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            span = len(spans.start)
            spans.name.append(name_id)
            spans.parent.append(self._stack[-1] if self._stack else -1)
            spans.op.append(self.op)
            spans.end.append(0.0)
            self._stack.append(span)
            spans.start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                spans.end[span] = clock()
                self._stack.pop()
                if observe is not None:
                    observe(span, args, kwargs, result, exc)

        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    # -- per-pass bookkeeping ------------------------------------------------

    def take_pass(self) -> PassSpans:
        """Hand over the spans recorded since the last call."""
        spans, self.spans = self.spans, PassSpans()
        return spans

    def pass_metrics(self, spans: PassSpans, op_kinds) -> tuple:
        """Per-layer sums for one pass, and cli.main durations (ms) by experiment."""
        selfs = self_times(spans.start, spans.end, spans.parent)
        totals = {}
        for i, name_id in enumerate(spans.name):
            calls, ms, self_ms = totals.get(name_id, (0, 0.0, 0.0))
            totals[name_id] = (calls + 1, ms + 1e3 * (spans.end[i] - spans.start[i]),
                               self_ms + 1e3 * selfs[i])
        fields = {"calls": 0, "ms": 1, "self_ms": 2}
        metrics = {}
        for metric, span_name, field in PASS_SUMS:
            value = totals.get(self._id(span_name), (0, 0.0, 0.0))[fields[field]]
            metrics[metric] = value

        # Iterations as the solver reports them; a solve that died on another
        # error is counted from its trace_norm calls, one or two per iteration.
        norm_id = self._id("qmath.trace_norm")
        norms_under = {}
        for i, name_id in enumerate(spans.name):
            if name_id == norm_id and spans.parent[i] >= 0:
                norms_under[spans.parent[i]] = norms_under.get(spans.parent[i], 0) + 1
        metrics["deutsch.iterations"] = sum(
            reported if reported is not None else math.ceil(norms_under.get(span, 0) / 2)
            for span, reported, _ in spans.solves)
        dims = [dim for _, _, dim in spans.solves if dim is not None]
        metrics["deutsch.unique_ratio"] = sum(d == 1 for d in dims) / len(dims) if dims else 0.0
        builds = len(spans.amplitudes)
        metrics["circuits.amplitude_reuse_ratio"] = (
            1.0 - len(set(spans.amplitudes)) / builds if builds else 0.0)

        main_id = self._id("cli.main")
        cli_ms = {}
        for i, name_id in enumerate(spans.name):
            if name_id == main_id and spans.parent[i] < 0:
                cli_ms.setdefault(op_kinds[spans.op[i]], []).append(
                    1e3 * (spans.end[i] - spans.start[i]))
        return metrics, cli_ms

    def _id(self, name):
        return self.names.index(name) if name in self.names else -1

    def save(self, path, passes):
        """Write the spans of every traced pass as one table (.npz)."""
        columns = {key: [] for key in ("pass_index", "name", "start", "end", "parent", "op")}
        for index, spans in passes:
            columns["pass_index"].append(np.full(len(spans.start), index, dtype=np.int32))
            for key in ("name", "start", "end", "parent", "op"):
                columns[key].append(np.frombuffer(getattr(spans, key), dtype=getattr(
                    spans, key).typecode))
        arrays = {key: np.concatenate(parts) if parts else np.zeros(0)
                  for key, parts in columns.items()}
        np.savez(path, names=np.array(self.names), **arrays)


def merge_passes(per_pass: list, cli_ms: dict) -> dict:
    """Median over traced passes of each per-pass sum, plus cli p50s."""
    merged = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    for kind in CLI_EXPERIMENTS:
        samples = cli_ms.get(kind, [])
        merged[f"cli.{kind}.p50_ms"] = statistics.median(samples) if samples else 0.0
    return merged
