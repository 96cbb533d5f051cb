"""Self-tests of the benchmark's own logic (not of the program).

Run from the repository root: ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.host import CALIBRATION_REF_S, Calibration, Interval, Stopwatch
from perfbench.openloop import OpenLoop, arrival_offsets
from perfbench.tracing import Span, Tracer, attribute
from repro.serve.clock import ManualClock

ROOT = Path(__file__).resolve().parent.parent


# -- tail percentile rule ----------------------------------------------------
@pytest.mark.parametrize(
    "n, percentile",
    [
        (10000, 99.9),
        (1000, 99.0),
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (100, 90.0),
        (40, 75.0),
        (39, 50.0),
        (20, 50.0),
        (19, 50.0),
    ],
)
def test_supported_percentile_is_highest_with_ten_beyond(n, percentile):
    assert stats.supported_percentile(n) == percentile


@pytest.mark.parametrize("percentile, n", [(99.9, 10000), (90.0, 100),
                                           (75.0, 40), (50.0, 20)])
def test_samples_for_is_the_fewest_that_resolve_a_percentile(percentile, n):
    assert stats.samples_for(percentile) == n
    assert stats.supported_percentile(n) == percentile


@pytest.mark.parametrize("n, beyond", [(40, 10), (41, 10), (44, 11), (75, 18)])
def test_pinned_tail_reports_its_value_and_support(n, beyond):
    tail = stats.tail([float(i) for i in range(1, n + 1)], 75.0)
    # nearest rank: the value at rank ceil(n * p / 100), beyond it n - rank
    assert (tail.percentile, tail.beyond, tail.resolved) == (75.0, beyond, True)
    assert tail.value == n - beyond


def test_pinned_tail_keeps_its_percentile_when_samples_run_short():
    tail = stats.tail([3.0, 1.0, 2.0] * 6 + [9.0], 50.0)  # 19 samples
    assert tail.percentile == 50.0
    assert tail.beyond == 9
    assert not tail.resolved
    assert tail.value == 2.0
    assert stats.tail([float(i) for i in range(39)], 75.0).percentile == 75.0


def test_tail_ignores_sample_order():
    samples = [0.5, 0.1, 0.9, 0.3] * 10
    assert stats.tail(samples, 75.0) == stats.tail(sorted(samples), 75.0)


def test_each_workload_collects_enough_samples_for_its_pinned_tail():
    from perfbench.workloads import SerialCoarse, ServePool

    assert SerialCoarse.min_ops == 40
    assert stats.supported_percentile(SerialCoarse.min_ops) == SerialCoarse.tail_percentile
    sent = len(arrival_offsets(ServePool.rate_per_s, 30.0, ServePool.arrival_seed))
    assert stats.supported_percentile(sent) == ServePool.tail_percentile


# -- steal-adjusted time -----------------------------------------------------
def test_interval_takes_the_stolen_share_out_of_wall_time():
    assert Interval(2.0, 0.25).adjusted == pytest.approx(1.5)
    assert Interval(2.0, 0.0).adjusted == 2.0


def test_stopwatch_reads_a_steal_share_between_zero_and_one():
    watch = Stopwatch()
    sum(i * i for i in range(200_000))
    interval = watch.stop()
    assert interval.wall > 0.0
    assert 0.0 <= interval.steal < 1.0
    assert interval.adjusted <= interval.wall


def test_scaled_interval_multiplies_adjusted_time_and_keeps_wall():
    scaled = Interval(2.0, 0.25).scaled(0.5)
    assert scaled.adjusted == pytest.approx(0.75)
    assert scaled.wall == 2.0


def test_calibration_scale_is_reference_over_probe_time():
    calibration = Calibration(n=16)
    calibration.run = lambda: Interval(0.06, 0.0)
    assert calibration.scale() == pytest.approx(CALIBRATION_REF_S / 0.06)


# -- open loop ---------------------------------------------------------------
class _Handle:
    """Finishes ``service`` seconds after it was sent, on a manual clock."""

    def __init__(self, clock, service):
        self.clock = clock
        self.finish_at = clock.now() + service

    def done(self):
        return self.clock.now() >= self.finish_at

    def wait(self, timeout=None):
        return self.done()


def test_open_loop_latency_runs_from_due_time_not_send_time():
    clock = ManualClock(100.0)
    loop = OpenLoop(clock, [0.0, 0.1, 0.2])

    def slow_submit(i):
        handle = _Handle(clock, service=0.05)
        clock.advance(0.25)  # the generator stalls inside each submit
        return handle

    loop.submit_all(slow_submit)
    assert [a.due for a in loop.arrivals] == pytest.approx([100.0, 100.1, 100.2])
    assert [a.late for a in loop.arrivals] == pytest.approx([0.0, 0.15, 0.30])
    clock.advance(0.05)  # now 100.80, everything finished
    assert loop.poll() == []
    # from due time: the generator's stall is charged to the requests
    # that were due during it, not hidden by their late send
    assert [a.latency for a in loop.arrivals] == pytest.approx([0.80, 0.70, 0.60])
    assert [a.completed - a.sent for a in loop.arrivals] == pytest.approx(
        [0.80, 0.55, 0.30])


def test_open_loop_poll_stamps_completion_when_first_seen():
    clock = ManualClock(0.0)
    loop = OpenLoop(clock, [0.0, 0.0])
    loop.submit_all(lambda i: _Handle(clock, 1.0 + i))
    clock.advance(1.0)
    assert [a.index for a in loop.poll()] == [1]
    clock.advance(1.0)
    assert loop.poll() == []
    assert [a.latency for a in loop.arrivals] == [1.0, 2.0]


def test_open_loop_sleeps_until_due():
    clock = ManualClock(0.0)
    loop = OpenLoop(clock, [0.5, 1.5])
    loop.submit_all(lambda i: _Handle(clock, 0.0))
    assert [a.sent for a in loop.arrivals] == [0.5, 1.5]
    assert [a.late for a in loop.arrivals] == [0.0, 0.0]


def test_arrival_offsets_fixed_count_and_seeded():
    offsets = arrival_offsets(3.5, 30.0, [7, 1])
    assert len(offsets) == 105
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 30.0
    assert offsets == arrival_offsets(3.5, 30.0, [7, 1])
    assert offsets != arrival_offsets(3.5, 30.0, [8, 1])


# -- self time ---------------------------------------------------------------
def _span(i, layer, start, end, thread=1, parent=None, depth=0):
    return Span(i, layer, layer, start, end, thread, parent, depth)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "inner", 2.0, 5.0, parent=1, depth=1),
        _span(3, "inner", 6.0, 7.0, parent=1, depth=1),
        _span(4, "leaf", 3.0, 4.0, parent=2, depth=2),
    ]
    layers, unattributed = attribute(spans, 0.0, 12.0)
    assert layers == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})
    assert unattributed == pytest.approx(2.0)


def test_self_time_shares_concurrent_threads_and_sums_to_wall():
    spans = [_span(1, "a", 0.0, 4.0, thread=1), _span(2, "b", 2.0, 6.0, thread=2)]
    layers, unattributed = attribute(spans, 0.0, 8.0)
    assert layers == pytest.approx({"a": 3.0, "b": 3.0})
    assert unattributed == pytest.approx(2.0)
    assert sum(layers.values()) + unattributed == pytest.approx(8.0)


def test_self_time_clips_to_window():
    spans = [_span(1, "a", 0.0, 10.0), _span(2, "b", 4.0, 6.0, parent=1, depth=1)]
    layers, unattributed = attribute(spans, 5.0, 8.0)
    assert layers == pytest.approx({"a": 2.0, "b": 1.0})
    assert unattributed == pytest.approx(0.0)


# -- wrappers ----------------------------------------------------------------
def test_tracer_patches_module_globals_and_methods_then_restores():
    module = types.ModuleType("fake_layer")

    def leaf(x):
        return x + 1

    module.leaf = leaf

    class Engine:
        def run(self, x):
            return module.leaf(x) * 2

    original_run = Engine.run
    tracer = Tracer()
    tracer.patch(Engine, "run", "engine.run", "engine_s")
    tracer.patch(module, "leaf", "leaf", "leaf_s")
    assert Engine().run(1) == 4
    tracer.restore()
    assert module.leaf is leaf and Engine.run is original_run

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["leaf"].parent == by_name["engine.run"].span_id
    assert by_name["engine.run"].parent is None
    assert by_name["engine.run"].start <= by_name["leaf"].start
    assert by_name["leaf"].end <= by_name["engine.run"].end
    Engine().run(1)
    assert len(tracer.spans) == 2  # nothing recorded after restore


def test_tracer_drops_span_when_exit_hook_says_so():
    module = types.ModuleType("fake_cache")
    module.get = lambda key: key
    tracer = Tracer()
    tracer.patch(module, "get", "cache.get", "cache_s",
                 on_exit=lambda args, kwargs, result: result == "miss")
    module.get("hit")
    module.get("miss")
    tracer.restore()
    assert [s.name for s in tracer.spans] == ["cache.get"]


# -- the command -------------------------------------------------------------
def test_run_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serial-coarse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_every_reported_metric():
    from perfbench.layers import SELF_TIME_METRICS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(SELF_TIME_METRICS) <= per_layer
    assert {"trace.wall_s", "trace.unattributed_s", "trace.overhead_frac"} <= per_layer
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
