"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps these out of the library's default test collection.)
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from stats import median_sum, tail  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
import worker  # noqa: E402
from worker import _schedule, run_traced  # noqa: E402


def span(start, end, parent):
    return [0, start, end, parent, None, 0, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0.0, 10.0, -1),  # root
        span(1.0, 4.0, 0),
        span(5.0, 9.0, 0),
        span(6.0, 7.0, 2),  # grandchild: charged to its parent, not the root
        span(11.0, 12.0, -1),  # second root
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])
    assert sum(self_times(spans)) == pytest.approx(11.0)


@pytest.fixture
def fake_package(monkeypatch):
    """Package ``fakepkg`` with layers ``low`` and ``high``; ``high`` re-binds ``low.work``."""
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")
    pkg = types.ModuleType("fakepkg")
    exec("def work(x):\n    return helper(x) + 1\n\ndef helper(x):\n    return 2 * x\n", low.__dict__)
    exec("def outer(x, f=None):\n    return work(x) + (f(x, 0) if f else 0)\n", high.__dict__)
    high.work = low.work
    pkg.outer = high.outer
    for name, module in (("fakepkg", pkg), ("fakepkg.low", low), ("fakepkg.high", high)):
        monkeypatch.setitem(sys.modules, name, module)
    return pkg, low, high


def test_tracer_wraps_every_binding_and_folds_same_layer_calls(fake_package):
    pkg, low, high = fake_package
    tracer = Tracer(package="fakepkg")
    assert set(tracer.targets) == {"low.work", "low.helper", "high.outer"}
    assert len(tracer.targets["low.work"].bindings) == 2
    originals = (pkg.outer, high.work, low.work)
    tracer.install()
    try:
        assert pkg.outer(3, f=tracer.counted(lambda q, p: low.helper(q))) == 7 + 6
    finally:
        tracer.uninstall()
    assert (pkg.outer, high.work, low.work) == originals
    summary = tracer.take()
    functions = summary["functions"]
    # outer -> work (other layer, one span); work -> helper is same-layer and the
    # evaluator is opaque, so helper never opens a span of its own.
    assert functions["high.outer"]["calls"] == 1
    assert functions["low.work"]["calls"] == 1
    assert "low.helper" not in functions
    assert functions["high.outer"]["eval_calls"] == 1
    outer = functions["high.outer"]
    assert outer["self_s"] == pytest.approx(outer["busy_s"] - functions["low.work"]["busy_s"])
    assert sum(summary["layers"].values()) == pytest.approx(outer["busy_s"])
    assert tracer.spans == []


@pytest.mark.parametrize(
    "n, percentile, index",
    [(1, 50.0, None), (11, 50.0, None), (20, 50.0, None), (21, 100.0 * 11 / 21, 10), (100, 90.0, 89),
     (1000, 99.0, 989)],
)
def test_tail_percentile_rule(n, percentile, index):
    xs = list(np.random.default_rng(n).permutation(n).astype(float))
    value, pct = tail(xs)
    assert pct == pytest.approx(percentile)
    if index is None:  # too few samples beyond any rank above the median
        assert value == pytest.approx(np.median(xs))
    else:
        assert value == sorted(xs)[index]
        assert sum(x > value for x in xs) == 10


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        tail([])


def test_median_sum_is_per_operation():
    assert median_sum([[1.0, 3.0, 2.0], [10.0], []]) == 12.0


def test_schedule_stops_before_an_operation_that_would_overrun(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(worker.time, "perf_counter", lambda: clock[0])
    order = []
    for batch_pass, k in _schedule(2, 5.0):
        order.append((batch_pass, k))
        clock[0] += (1.0, 2.0)[k]
    # The first pass ends at 3 s; op 0 then ends at 4 s, and op 1 would end at 6 s.
    assert order == [(0, 0), (0, 1), (1, 0)]


def test_schedule_runs_one_full_pass_past_the_deadline(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(worker.time, "perf_counter", lambda: clock[0])
    order = []
    for batch_pass, k in _schedule(3, 1.0):
        order.append(k)
        clock[0] += 2.0
    assert order == [0, 1, 2]


# A cheap slice of each workload's seeded batch, and the traced call count
# it must give: traced and untraced executions must give identical outputs
# and pass their checks.
SLICES = {
    "theorem": (slice(0, 3), "threshold.verify_zero_vacuum_theorem.calls", 3),
    "figures": (slice(0, 5), "cli.main.calls", 5),
    "oracles": (slice(0, 1), "channel.convolve_evolve.calls", 121),
    "negativity": (slice(-1, None), "negativity.pnw_numeric.calls", 1),
}


@pytest.mark.parametrize("name", sorted(SLICES))
def test_traced_and_untraced_outputs_agree(name, tmp_path):
    part, metric, calls = SLICES[name]
    workload = workloads.make(name, tmp_path)
    specs = workload.inputs(np.random.default_rng(7))[part]
    cases = [workload.prepare(spec) for spec in specs]
    run, per_layer = run_traced(workload, specs, cases, 0.0)
    assert run.failures == []
    assert run.attempted == 2 * len(specs)
    assert per_layer[metric] == calls


def test_inputs_repeat_for_a_seed(tmp_path):
    for name in SLICES:
        workload = workloads.make(name, tmp_path)
        a = workload.inputs(np.random.default_rng(3))
        b = workload.inputs(np.random.default_rng(3))
        c = workload.inputs(np.random.default_rng(4))
        assert a == b and a != c
