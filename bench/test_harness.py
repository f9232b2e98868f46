"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_harness.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and a
    # child c [9, 12] that runs past its end; a has a grandchild [2, 3].
    # Spans are listed out of start order on purpose.
    spans = {  # name: (start, end, parent)
        "b": (3.0, 6.0, "root"),
        "root": (0.0, 10.0, None),
        "grandchild": (2.0, 3.0, "a"),
        "a": (1.0, 4.0, "root"),
        "c": (9.0, 12.0, "root"),
    }
    names = list(spans)
    start = [spans[n][0] for n in names]
    end = [spans[n][1] for n in names]
    parent = [names.index(spans[n][2]) if spans[n][2] else -1 for n in names]
    got = dict(zip(names, self_times(start, end, parent)))
    assert got == pytest.approx({"root": 10 - 5 - 1, "a": 3 - 1, "b": 3, "grandchild": 1, "c": 3})


def test_self_time_of_a_leaf_and_of_nested_identical_intervals():
    assert self_times([0.0], [2.0], [-1]) == [2.0]
    assert self_times([0.0, 0.0], [1.0, 1.0], [-1, 0]) == [0.0, 1.0]


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _bindings(pkg):
    modules = [pkg] + [getattr(pkg, name) for name in ("qmath", "circuits", "deutsch",
                                                        "entanglement", "protocols", "cli")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for module_name, attr in TARGETS:
        cls = getattr(getattr(pkg, module_name), attr)
        if isinstance(cls, type):
            snapshot[(cls.__name__, "__init__")] = cls.__dict__["__init__"]
    return snapshot


def test_traced_pass_restores_every_binding(program):
    pkg, _ = program
    before = _bindings(pkg)
    tracer = Tracer(pkg)
    tracer.install()
    try:
        # protocols and cli hold their own references to the timed functions
        assert pkg.protocols.apply_dctc is not before[("dctcsim.deutsch", "apply_dctc")]
        assert pkg.cli.discriminate_bell is not before[("dctcsim.protocols", "discriminate_bell")]
        pkg.discriminate_bell(pkg.BellLabel.PSI_MINUS, pkg.AmplitudePair.from_alpha(0.3),
                              alice_outcome=pkg.BellLabel.PHI_PLUS)
    finally:
        tracer.restore()
    after = _bindings(pkg)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    spans = tracer.take_pass()
    names = [tracer.names[i] for i in spans.name]
    assert names[0] == "protocols.discriminate_bell" and spans.parent[0] == -1
    assert "deutsch.solve_fixed_point" in names and "qmath.trace_norm" in names
    metrics, _ = tracer.pass_metrics(spans, ["discriminate_bell"])
    assert metrics["deutsch.iterations"] == 26      # alpha = 0.3, as the solver reports
    assert metrics["qmath.trace_norm.calls"] == 2 * 26 - 1
    assert metrics["circuits.bhw_interaction.calls"] == 1


def _traced_failure(pkg, error, alpha, config=None):
    tracer = Tracer(pkg)
    tracer.install()
    try:
        with pytest.raises(error):
            pkg.discriminate_bell(pkg.BellLabel.PHI_PLUS, pkg.AmplitudePair.from_alpha(alpha),
                                  config, alice_outcome=pkg.BellLabel.PHI_PLUS)
    finally:
        tracer.restore()
    metrics, _ = tracer.pass_metrics(tracer.take_pass(), ["discriminate_bell"])
    return metrics


def test_iterations_of_a_solve_that_ran_out_of_budget(program):
    pkg, _ = program
    metrics = _traced_failure(pkg, pkg.FixedPointConvergenceError, 0.6,
                              pkg.SolverConfig(max_iterations=7))
    assert metrics["deutsch.iterations"] == 7
    assert metrics["qmath.trace_norm.calls"] == 14
    assert metrics["deutsch.unique_ratio"] == 0.0


def test_iterations_of_a_solve_that_crashed_come_from_its_trace_norm_calls(program):
    # At alpha = 0.695 the solver converges, then fails the trace check of its
    # own result; one or two trace_norm calls are made per iteration.
    pkg, _ = program
    metrics = _traced_failure(pkg, pkg.InvariantViolationError, 0.695)
    calls = metrics["qmath.trace_norm.calls"]
    assert calls > 1000 and metrics["deutsch.iterations"] == (calls + 1) // 2


def test_tail_has_ten_values_beyond_it():
    values = list(range(1, 31))
    percentile, value = run.tail(values)
    assert value == 20 and sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_normalized_time_divides_by_the_kernel_samples_around_each_op():
    # The kernel ran at the nominal speed around the first op and, on
    # average, at half that speed around the second.
    n = hostspeed.NOMINAL_S
    p = run.Pass(False, durations=[1.0, 3.0], kernel=[n, n, 3 * n], failures=[None, None])
    assert p.normalized() == pytest.approx([1.0, 1.5])
