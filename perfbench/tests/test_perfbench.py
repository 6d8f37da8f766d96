"""Unit tests of the benchmark's own arithmetic and declarations.

These never run a workload; ``perfbench/run.py`` does that.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import system, workloads
from perfbench.measure import (
    self_times,
    supported_level,
    tail,
    valid_name,
    windowed_tail,
    valid_unit,
)
from perfbench.spans import Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #


def test_self_time_without_children_is_the_duration():
    assert self_times([(1.0, 3.5, None)]) == [2.5]


def test_self_time_subtracts_nested_children():
    spans = [
        (0.0, 10.0, None),  # root
        (1.0, 3.0, 0),  # child
        (4.0, 8.0, 0),  # child with its own child
        (5.0, 6.0, 2),  # grandchild: only subtracted from its parent
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Children from two threads under one parent overlap in time.
    spans = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 7.0, 0), (7.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)


def test_self_time_clips_children_to_the_parent():
    # A child that outlives its parent (an abandoned runner thread).
    spans = [(0.0, 4.0, None), (3.0, 9.0, 0), (-2.0, 1.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 1.0 - 1.0)


def test_self_time_ignores_extra_fields():
    assert self_times([(0.0, 2.0, None, "name", 7)]) == [2.0]


# ---------------------------------------------------------------------- #
# percentile rule
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "n, level",
    [
        (0, None),
        (19, None),
        (20, 500),
        (99, 500),
        (100, 900),
        (199, 900),
        (200, 950),
        (999, 950),
        (1000, 990),
        (9999, 990),
        (10000, 999),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, level):
    assert supported_level(n) == level


def test_supported_level_respects_the_cap():
    assert supported_level(10000, cap=950) == 950
    assert supported_level(150, cap=990) == 900


def test_ten_samples_lie_beyond_every_supported_level():
    for n in range(20, 3000, 7):
        level = supported_level(n)
        assert n * (1000 - level) / 1000 >= 10


def test_tail_reports_the_level_it_used():
    values = list(range(1, 1001))
    value, level = tail(values, 990)
    assert level == 990 and value == pytest.approx(np.percentile(values, 99))
    assert tail(values[:150], 990)[1] == 900
    assert tail([5.0, 1.0], 990) == (5.0, 1000)  # too few: the maximum


def test_windowed_tail_ignores_a_slow_spell():
    steady = [10.0 + (i % 10) for i in range(600)]  # p90 of every window: 18.1
    slow = steady[:500] + [50.0] * 100  # the last sixth of the run is slow
    assert tail(slow, 900)[0] == pytest.approx(50.0)
    value, level = windowed_tail(slow, 900)
    assert level == 900 and value == pytest.approx(tail(steady[:100], 900)[0])


def test_windowed_tail_uses_one_window_when_the_sample_is_small():
    values = list(range(150))
    assert windowed_tail(values, 900) == tail(values, 900)
    assert windowed_tail(values, 990) == tail(values, 990)  # p90: all it supports


# ---------------------------------------------------------------------- #
# names and declarations
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "name", ["samples_per_s", "plan.apply_dense.calls", "batch-baseline", "9lives", "a" * 64]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "-x", "a b", "p99/ms", "naïve", "a" * 65, "x:y", None]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "ms/sample", "spikes/neuron"):
        assert valid_unit(unit)
    for unit in ("", "a b", "x" * 17, "µs"):
        assert not valid_unit(unit)


def test_declared_metric_names_and_units_are_valid():
    for table in (workloads.E2E_UNITS, workloads.PER_LAYER_UNITS):
        for name, unit in table.items():
            assert valid_name(name), name
            assert valid_unit(unit), unit
    assert not set(workloads.E2E_UNITS) & set(workloads.PER_LAYER_UNITS)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER_UNITS
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_records_the_offered_load_and_slo():
    spec = json.loads(BENCHMARK.read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == "serve-poisson")
    rates = "/".join(str(r) for r in workloads.LADDER)
    assert rates in why
    assert f"p{workloads.SLO_LEVEL / 10:g}<={workloads.SLO_MS:g} ms" in why
    assert f"at {workloads.REFERENCE_RATE} req/s" in why


# ---------------------------------------------------------------------- #
# tracer and rate helpers
# ---------------------------------------------------------------------- #


class _Layer:
    def outer(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_tracer_nests_spans_and_restores_attributes():
    original = _Layer.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner", note=lambda a, k, r: r)
    tracer.phase = "timed"
    tracer.set_request(42)
    assert _Layer().outer(3) == 7
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original
    rows = tracer.table()
    assert [r[0] for r in rows] == ["layer.outer", "layer.inner"]
    assert rows[1][3] == 0 and rows[0][3] is None  # inner's parent is outer
    assert all(r[4] == 42 and r[5] == "timed" for r in rows)
    assert tracer.spans[1].note == 6
    assert tracer.last["layer.outer"] is tracer.spans[0]
    assert [s.name for s in tracer.select("layer.inner")] == ["layer.inner"]


def test_tracer_dump_is_json(tmp_path):
    tracer = Tracer()
    tracer.record("x", 1.0, 2.0)
    tracer.record("y", 1.5, 1.5, parent=tracer.spans[0], rid=3)
    path = tmp_path / "spans.json"
    tracer.dump(path)
    data = json.loads(path.read_text())
    assert data["spans"] == [["x", 1.0, 2.0, None, None, "setup"], ["y", 1.5, 1.5, 0, 3, "setup"]]


def test_windowed_rate_takes_the_median_window():
    # Windows of two ops: 2/1s, 2/4s (a stall), 2/1s -> median 2/s.
    ends = [0.5, 1.0, 3.0, 5.0, 5.5, 6.0]
    assert workloads._windowed_rate(0.0, ends, 2) == pytest.approx(2.0)
    assert workloads._windowed_rate(0.0, [1.0, 2.0], 5) == pytest.approx(1.0)


def test_rung_durations_split_the_run():
    durations = workloads._rung_durations(20.0)
    assert set(durations) == set(workloads.LADDER[:-1])  # the top rung sends a count
    assert sum(durations.values()) == pytest.approx(20.0)
    assert durations[workloads.REFERENCE_RATE] == pytest.approx(20.0 * workloads.REFERENCE_SHARE)
    counts = {r: r * d for r, d in durations.items() if r != workloads.REFERENCE_RATE}
    assert max(counts.values()) == pytest.approx(min(counts.values()))


def test_threshold_log_flags_a_different_operator_choice(tmp_path, monkeypatch):
    monkeypatch.setattr(system, "OUT_DIR", tmp_path)
    monkeypatch.setattr(system, "code_id", lambda: "abc")
    a = {"capacity": 8, "thresholds": [0.0, 0.1]}
    b = {"capacity": 8, "thresholds": [0.0, 0.2]}
    c = {"capacity": 4, "thresholds": [0.0, 0.2]}
    first = system.record_thresholds("w", 1, [a, c])
    assert not first["differs_in_run"] and not first["differs_across_runs"]
    second = system.record_thresholds("w", 2, [a])
    assert not second["differs_across_runs"]
    third = system.record_thresholds("w", 3, [b])
    assert third["differs_across_runs"] and not third["differs_in_run"]
    assert system.record_thresholds("w", 4, [a, b])["differs_in_run"]
    assert not system.record_thresholds("other", 5, [b])["differs_across_runs"]
