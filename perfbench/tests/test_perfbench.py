"""Tests for the benchmark itself (not collected by the repo's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.traces.records import Trace  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _columns(parts):
    return [(np.asarray(p.arrival_ms).tobytes(),
             np.asarray(p.block).tobytes()) for p in parts]


# -- workload generation ------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_seeded(name):
    gen = workloads.WORKLOADS[name].generate
    first = _columns(gen(3))
    assert _columns(gen(3)) == first
    assert _columns(gen(4)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_pass_the_input_contract(name):
    checked = workloads.validate_parts(workloads.WORKLOADS[name].generate(0))
    assert checked["n_requests"] >= 10_000  # p99.9 keeps >= 10 beyond it


def _part(arrivals, blocks):
    return Trace.from_arrays(np.asarray(arrivals, dtype=np.float64),
                             np.asarray(blocks, dtype=np.int64))


class _Part:
    """A part with raw columns, bypassing Trace's own handling."""

    def __init__(self, arrivals, blocks):
        self.arrival_ms = np.asarray(arrivals, dtype=np.float64)
        self.block = np.asarray(blocks, dtype=np.int64)


@pytest.mark.parametrize("arrivals, blocks, message", [
    ([0.0, float("nan")], [1, 2], "non-finite"),
    ([0.0, float("inf")], [1, 2], "non-finite"),
    ([-1.0, 0.0], [1, 2], "negative arrival"),
    ([0.5, 0.1], [1, 2], "not sorted"),
    ([0.0, 0.1], [1, -2], "negative block"),
])
def test_validate_rejects_bad_inputs(arrivals, blocks, message):
    with pytest.raises(ValueError, match=message):
        workloads.validate_parts([_Part(arrivals, blocks)])


def test_validate_rejects_parts_out_of_order():
    with pytest.raises(ValueError, match="starts before"):
        workloads.validate_parts([_Part([5.0, 6.0], [1, 2]),
                                  _Part([1.0, 7.0], [1, 2])])


def test_validate_counts_boundary_overlaps():
    checked = workloads.validate_parts([_part([0.0, 2.0], [1, 2]),
                                        _part([1.5, 3.0], [3, 4])])
    assert checked == {"n_requests": 4, "boundary_overlaps": 1}


# -- span arithmetic ------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_nested_and_sibling_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    inner = tracer.wrap("mining", lambda s: clock.spend(s))

    def outer_body():
        clock.spend(1.0)
        inner(2.0)
        clock.spend(3.0)
        inner(4.0)

    outer = tracer.wrap("flash.driver", outer_body)
    outer()
    clock.spend(0.5)
    m = tracer.layer_metrics(wall_s=clock.now)
    assert m["flash.driver.self_s"] == pytest.approx(4.0)
    assert m["mining.self_s"] == pytest.approx(6.0)
    assert m["flash.driver.calls"] == 1 and m["mining.calls"] == 2
    assert m["unattributed.self_s"] == pytest.approx(0.5)
    # spans: outer first, two children pointing at it
    assert tracer.names == ["flash.driver", "mining", "mining"]
    assert tracer.parents == [-1, 0, 0]
    assert tracer.starts == [0.0, 1.0, 6.0]
    assert tracer.ends == [10.0, 3.0, 10.0]


def test_aggregated_calls_add_to_layer_without_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    record = tracer.wrap("flash.metrics", lambda: clock.spend(0.25),
                         keep_span=False)

    def play():
        clock.spend(1.0)
        for _ in range(4):
            record()

    tracer.wrap("flash.driver", play)()
    m = tracer.layer_metrics(wall_s=clock.now)
    assert m["flash.metrics.self_s"] == pytest.approx(1.0)
    assert m["flash.metrics.calls"] == 4
    assert m["flash.driver.self_s"] == pytest.approx(1.0)
    assert tracer.names == ["flash.driver"]  # no per-request spans
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total == pytest.approx(clock.now)


def test_hook_time_stays_out_of_layers():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    leaf = tracer.wrap("mining", lambda: clock.spend(1.0),
                       on_result=lambda args, result: clock.spend(5.0))
    tracer.wrap("flash.driver", lambda: leaf())()
    m = tracer.layer_metrics(wall_s=clock.now)
    assert m["mining.self_s"] == pytest.approx(1.0)
    assert m["flash.driver.self_s"] == pytest.approx(0.0)
    assert m["unattributed.self_s"] == pytest.approx(5.0)


def test_install_traces_a_play_and_restores_the_program():
    from repro.experiments.common import play_workload
    from repro.flash.metrics import IntervalSeries

    original = IntervalSeries.__dict__["record"]
    parts = [_part([0.01 * i for i in range(40)], list(range(40))),
             _part([1.0 + 0.01 * i for i in range(40)], list(range(40)))]
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        report = play_workload(parts, n_devices=9).report
        report.summary()
    assert IntervalSeries.__dict__["record"] is original
    assert tracer.calls["flash.driver"] > 0
    assert tracer.calls["core.qos"] > 0
    counts = tracing.report_counts(tracer, report)
    assert counts["driver.requests"] == 80
    assert counts["mining.transactions"] > 0


# -- the metric contract ----------------------------------------------------------

def test_metric_names_units_and_counts(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in spec["end_to_end"])}]
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


def test_per_layer_names_are_what_the_trace_produces(spec):
    from repro.core.qos import QoSFlashArray

    report = QoSFlashArray(n_devices=9).run_online([0.0, 0.01], [0, 1])
    tracer = tracing.Tracer()
    produced = set(tracer.layer_metrics(0.0))
    produced |= set(tracing.report_counts(tracer, report))
    produced |= set(tracing.fallback_counts({}))
    produced |= {"trace.requests_per_s", "trace.overhead_x",
                 "trace.wall_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_cluster_fault_timeline_spans_the_trace():
    from repro.traces.exchange import exchange_model

    model = exchange_model(workloads.CLUSTER_SCALE, 0,
                           workloads.CLUSTER_PARTS)
    horizon = sum(iv.duration_ms for iv in model.intervals)
    assert horizon == workloads.CLUSTER_PARTS * workloads.EXCHANGE_PART_MS
