"""The four workloads and the metrics they report.

Each workload sets itself up :data:`SETUPS` times (``setup_s`` is the
median import time of fresh processes plus the median set-up: conversion,
calibrated plan compile and warm-up), computes reference predictions with
the uncompiled engine (untimed), then measures for ``seconds``.  With
``trace`` the timed phase is split in two: an untraced half, then a half
with the
:class:`~perfbench.spans.Tracer` installed, whose spans give the
per-layer metrics and whose difference from the untraced half is the
tracing overhead.

End-to-end metrics, per workload:

* ``samples_per_s`` -- batch: the mean samples/s of the set-ups' plans
  (each plan runs its own segment of the loop, rated by its median block);
  serve-poisson: the service's capacity, requests/s served at the top
  ladder rate, which overloads it (the mean over bursts of each burst's
  median window of completions);
  http-closed: completed requests/s, median over windows.
* ``latency_p50_ms`` and ``latency_tail_ms`` -- of one operation: an
  8-sample ``T2FSNN.run`` call (batch), a request from its due time to
  its result at the reference rate (serve-poisson), a client round trip
  (http-closed).  The tail is the median over time windows of each
  window's highest percentile with ten samples beyond it, capped at p90
  (the run's calls support no more) and p95 (several windows per run).
* ``spikes_per_neuron`` and ``decision_steps`` -- the paper's two costs.
* ``setup_s``, and ``peak_rss_mb``: what the inference system of one
  set-up and a pass of operations add to the high-water RSS of a fresh
  process holding the converted network (see :func:`footprint`).

Every operation is checked: a wrong prediction or spike count, an
exception, a non-200 status, a rejected or expired future, or a plan
compiled inside a timed phase counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import socket
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from perfbench import system
from perfbench.measure import self_times, tail, windowed_tail
from perfbench.spans import Tracer

__all__ = ["WORKLOADS", "E2E_UNITS", "PER_LAYER_UNITS", "Outcome", "footprint", "finalize"]

clock = time.perf_counter

#: Plan capacity of the batch workloads (``RunConfig.batch_size``).
BATCH = 8
#: Distinct input batches the closed batch loop cycles through.
BATCHES = 6
#: Set-ups per run; ``setup_s`` reports their median.  The batch
#: workloads time every set-up's plan and report the mean over plans; the
#: serving workloads keep only their last set-up, so they make fewer.
SETUPS = 4
SERVING_SETUPS = 3

#: Service configuration shared by serve-poisson and http-closed.
CAPACITIES = (1, 4, 8)
MAX_WAIT_MS = 2.0
CACHE_SIZE = 256
#: Distinct inputs a serving stream cycles through: more than the cache
#: holds, so a fresh draw always misses it.
POOL = 384

#: serve-poisson: open-loop Poisson rates (requests/s), the latency limit
#: of the ladder, and the reference rate the latency metrics come from.
#: Each rung sits far from the service's knee (about 200-300 requests/s on
#: a 2-core box, moving with the machine's speed), so which rungs pass does
#: not flip between runs.  The reference rate keeps the service lightly
#: loaded, where latency tracks execution time instead of amplifying it
#: through queueing.  The top rung offers several times the service's
#: capacity (about 170 requests/s that all miss the cache), so its
#: completion rate is that capacity (``samples_per_s``) even for a
#: program three times as fast.  It runs as bursts of
#: :data:`BURST_REQUESTS` inputs that no earlier request sent, without
#: repeats, and each burst's completions are rated in windows of
#: :data:`CAPACITY_WINDOW`.
LADDER = (50, 100, 800)
OVERLOAD_RATE = LADDER[-1]
BURST_REQUESTS = 340
CAPACITY_WINDOW = 32
SLO_LEVEL = 950  # p95: at least 200 requests per rung in a 15 s run
SLO_MS = 100.0
REFERENCE_RATE = 50
#: Share of a run spent at the reference rate; the other rungs split the
#: rest so that each gets the same request count.
REFERENCE_SHARE = 0.65
#: A rung whose schedule ends with more requests outstanding than this
#: has a growing backlog and fails the SLO.
BACKLOG_LIMIT = 4 * max(CAPACITIES)
REPEAT_SHARE = 0.25
RECENT = 8

#: http-closed: closed-loop clients (= connections) and the budget every
#: second request carries, far above any flush time so it never binds.
CLIENTS = 2
BUDGET_MS = 10_000.0
#: Completions per window of a throughput figure (http-closed, and the
#: top rung of serve-poisson).
RATE_WINDOW = 64

#: Latency tail levels: batch calls are too few in a run for p99, and
#: http-closed's p99 would rest on one window of a run, so one stall
#: would set it; its p95 is the median of several windows.
BATCH_TAIL = 900
HTTP_TAIL = 950
REQUEST_TAIL = 990

E2E_UNITS = {
    "samples_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "spikes_per_neuron": "spikes/neuron",
    "decision_steps": "steps",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STAGES = ("conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "classifier")

PER_LAYER_UNITS = {
    "runtime.dispatch_ms": "ms",
    "plan.compile_s": "s",
    **{f"plan.threshold.{s}": "density" for s in STAGES},
    "plan.event_stages": "count",
    "plan.threshold_sets": "count",
    "plan.loop_self_ms": "ms/sample",
    "plan.apply_dense.calls": "1/sample",
    "plan.apply_dense.ms": "ms/sample",
    "plan.arena_mb": "MB",
    "events.apply_stage_events.calls": "1/sample",
    "events.apply_stage_events.ms": "ms/sample",
    "events.apply_stage_events.events": "1/sample",
    "events.merge_packets.ms": "ms/sample",
    "ttfs.drain_fire_events.calls": "1/sample",
    "ttfs.drain_fire_events.ms": "ms/sample",
    "ttfs.step.calls": "1/sample",
    "ttfs.step.ms": "ms/sample",
    "ttfs.encoder.ms": "ms/sample",
    "readout.ms": "ms/sample",
    "service.submit_ms_p50": "ms",
    "service.flush_exec_ms_p50": "ms",
    "service.flush_exec_ms_p99": "ms",
    "service.budgeted_flush_ms_p50": "ms",
    "service.plans_compiled": "count",
    "service.rejected": "count",
    "service.deadline_expired": "count",
    "service.serial_fallbacks": "count",
    "service.watchdog_timeouts": "count",
    "service.dedup_share": "share",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.queue_wait_ms_p99": "ms",
    "batcher.flush_size_mean": "count",
    "batcher.padding_share": "share",
    "cache.hit_share": "share",
    "http.overhead_ms_p50": "ms",
    "http.overhead_ms_p99": "ms",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------- #
# bookkeeping
# ---------------------------------------------------------------------- #


@dataclass
class Ledger:
    """Operations attempted, succeeded and failed, per phase."""

    phases: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def note(self, phase: str, ok: bool, why: str = "") -> bool:
        row = self.phases.setdefault(phase, {"attempted": 0, "succeeded": 0, "failed": 0})
        row["attempted"] += 1
        row["succeeded" if ok else "failed"] += 1
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{phase}: {why}")
        return ok

    def total(self, key: str) -> int:
        return sum(row[key] for row in self.phases.values())


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    ledger: Ledger = field(default_factory=Ledger)
    tracer: Tracer | None = None
    #: Seconds each in-process set-up took.
    setups: list = field(default_factory=list)


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _pct(values, level: int) -> float:
    """Percentile at ``level`` or the highest level the sample supports."""
    if not values:
        return 0.0
    return float(tail(values, level)[0])


def _thresholds(plan) -> list[float]:
    return [float(p.threshold) for p in (*plan.stage_plans, plan.readout_plan)]


def _plan_record(plan) -> dict:
    """A compiled plan's capacity and calibrated per-stage thresholds."""
    return {"capacity": plan.batch_size, "thresholds": _thresholds(plan)}


def _windowed_rate(first_start: float, ends, per_window: int) -> float:
    """Median completions/s over consecutive windows of ``per_window`` ops.

    ``ends`` are completion times in order; a window runs from the end of
    the op before it (``first_start`` for the first) to its last op's end.
    A run too short for one window reports its overall rate.
    """
    times = [first_start, *ends]
    rates = [
        per_window / (times[i + per_window] - times[i])
        for i in range(0, len(ends) - per_window + 1, per_window)
    ]
    if not rates:
        return len(ends) / (times[-1] - times[0])
    return float(statistics.median(rates))


# ---------------------------------------------------------------------- #
# per-layer metrics from spans
# ---------------------------------------------------------------------- #


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Span-derived per-layer metrics; counts and times per completed unit."""
    rows = tracer.table()
    selfs = self_times([(r[1], r[2], r[3]) for r in rows])
    timed = [i for i, r in enumerate(rows) if r[5] == "timed"]
    by_name: dict[str, list[int]] = {}
    for i in timed:
        by_name.setdefault(rows[i][0], []).append(i)
    per = max(units, 1)

    def calls(name):
        return len(by_name.get(name, ())) / per

    def ms(name):
        return sum(_ms(rows[i][2] - rows[i][1]) for i in by_name.get(name, ())) / per

    spans = tracer.spans
    compiles = [s for s in spans if s.name == "plan.compile"]
    out = {
        "runtime.dispatch_ms": _p50([_ms(selfs[i]) for i in by_name.get("runtime.run", ())]),
        "plan.compile_s": _p50([s.end - s.start for s in compiles]),
        "plan.loop_self_ms": sum(_ms(selfs[i]) for i in by_name.get("plan.run", ())) / per,
        "plan.apply_dense.calls": calls("plan.apply_dense"),
        "plan.apply_dense.ms": ms("plan.apply_dense"),
        "events.apply_stage_events.calls": calls("events.apply_stage_events"),
        "events.apply_stage_events.ms": ms("events.apply_stage_events"),
        "events.apply_stage_events.events": sum(
            spans[i].note or 0 for i in by_name.get("events.apply_stage_events", ())
        )
        / per,
        "events.merge_packets.ms": ms("events.merge_packets"),
        "ttfs.drain_fire_events.calls": calls("ttfs.drain_fire_events"),
        "ttfs.drain_fire_events.ms": ms("ttfs.drain_fire_events"),
        "ttfs.step.calls": calls("ttfs.step"),
        "ttfs.step.ms": ms("ttfs.step"),
        "ttfs.encoder.ms": ms("ttfs.encoder"),
        "readout.ms": ms("readout"),
    }
    plans = _plans_from(tracer)
    if plans:
        medians = [
            float(statistics.median(col)) for col in zip(*(_thresholds(p) for p in plans))
        ]
        for stage, value in zip(STAGES, medians):
            out[f"plan.threshold.{stage}"] = value
        out["plan.event_stages"] = sum(1 for v in medians[:-1] if v > 0.0)
        per_capacity: dict[int, set] = {}
        for p in plans:
            per_capacity.setdefault(p.batch_size, set()).add(tuple(_thresholds(p)))
        out["plan.threshold_sets"] = max(len(v) for v in per_capacity.values())
    return out


def _profile(tracer: Tracer) -> dict:
    """Share of timed-phase self time per span name (the profile's shape)."""
    rows = tracer.table()
    selfs = self_times([(r[1], r[2], r[3]) for r in rows])
    total: dict[str, float] = {}
    for r, s in zip(rows, selfs):
        if r[5] == "timed":
            total[r[0]] = total.get(r[0], 0.0) + s
    whole = sum(total.values()) or 1.0
    return {k: round(v / whole, 4) for k, v in sorted(total.items(), key=lambda kv: -kv[1])}


def _plans_from(tracer: Tracer) -> list:
    """Every plan compiled while the tracer was installed, in order."""
    return [s.note for s in tracer.spans if s.name == "plan.compile" and s.note is not None]


def _setups(trace: bool, build, count: int = SETUPS) -> tuple[list, list[float], Tracer]:
    """``count`` timed builds; returns the systems, their times and the
    tracer that recorded their compiles.

    Every run records its compiles (each run logs its plans' thresholds);
    a traced run records the rest of set-up with every probe too.
    """
    tracer = Tracer().install(None if trace else {"plan.compile"})
    systems, times = [], []
    for _ in range(count):
        t0 = clock()
        systems.append(build())
        times.append(clock() - t0)
    tracer.uninstall()
    return systems, times, tracer


def _finish(out: Outcome, setups: list[float], plans: list) -> None:
    out.setups = setups
    out.report["setups_s"] = setups
    out.report["thresholds"] = [_plan_record(p) for p in plans]


# ---------------------------------------------------------------------- #
# batch workloads
# ---------------------------------------------------------------------- #


def _batch_config():
    from repro.runtime import RunConfig

    return RunConfig(compiled=True, batch_size=BATCH)


def _batch_model(network, early_firing: bool, warm):
    """One batch set-up past conversion: compile with calibration, warm."""
    model = system.build_model(network, early_firing)
    for _ in range(2):  # compile + calibrate, then warm the arenas
        model.run(warm, config=_batch_config())
    return model


def batch_workload(early_firing: bool, seed: int, seconds: float, trace: bool):
    out = Outcome()
    ledger = out.ledger
    config = _batch_config()
    rng = np.random.default_rng(seed)
    xs = system.inputs(rng, BATCHES * BATCH)
    batches = [xs[b * BATCH : (b + 1) * BATCH] for b in range(BATCHES)]
    warm = system.inputs(rng, BATCH)

    models, setups, tracer = _setups(
        trace, lambda: _batch_model(system.build_network(), early_firing, warm)
    )
    network = models[0].network
    ref_pred, ref_counts = system.reference(network, early_firing, xs, BATCH)

    def loop(duration: float, phase: str):
        """Closed loop, one contiguous segment per model: blocks of all
        ``BATCHES`` batches until the segment's share of ``duration`` is up.

        Returns per-call ``(start, end)`` stamps per model and, per batch,
        the spikes per neuron and decision steps of its first result.
        """
        stamps: list[list[tuple[float, float]]] = []
        spikes: dict[int, tuple[float, int]] = {}
        for model in models:
            segment: list[tuple[float, float]] = []
            stamps.append(segment)
            deadline = clock() + duration / len(models)
            while not segment or len(segment) % BATCHES or segment[-1][1] < deadline:
                b = len(segment) % BATCHES
                t0 = clock()
                try:
                    result = model.run(batches[b], config=config)
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    ledger.note(phase, False, repr(exc))
                    result = None
                segment.append((t0, clock()))
                if result is None:
                    continue
                ok = np.array_equal(
                    result.predictions, ref_pred[b * BATCH : (b + 1) * BATCH]
                ) and result.spike_counts == ref_counts[b]
                ledger.note(phase, ok, f"batch {b} differs from the reference")
                if b not in spikes:
                    neurons = system.neurons_per_inference(network, result.spike_counts)
                    spikes[b] = (result.total_spikes / neurons, result.decision_time)
        return stamps, spikes

    def plan_rates(stamps) -> list[float]:
        """Samples/s of each model's plan: the median of its block rates."""
        rates = []
        for segment in stamps:
            blocks = [segment[i : i + BATCHES] for i in range(0, len(segment), BATCHES)]
            rates.append(
                float(statistics.median(len(b) * BATCH / (b[-1][1] - b[0][0]) for b in blocks))
            )
        return rates

    def rate(stamps) -> float:
        # Calibration is timed, so compiles of the same code pick between
        # faster and slower operators; the mean over plans moves by a
        # fraction of the gap when one compile flips (a median would jump
        # by all of it), and the report lists every plan's rate next to
        # its thresholds so the flip stays visible.
        return float(statistics.fmean(plan_rates(stamps)))

    if trace:
        tracer.phase = "timed"
        base, _ = loop(seconds / 2, "untraced")
        tracer.install()
        traced, _ = loop(seconds / 2, "traced")
        tracer.uninstall()
        out.per_layer = layer_metrics(tracer, sum(map(len, traced)) * BATCH)
        out.per_layer["trace.overhead_pct"] = 100.0 * (rate(base) / rate(traced) - 1.0)
        out.report["profile"] = _profile(tracer)
        out.tracer = tracer
    else:
        stamps, spikes = loop(seconds, "timed")
        lat = [_ms(t1 - t0) for segment in stamps for t0, t1 in segment]
        tail_value, tail_level = windowed_tail(lat, BATCH_TAIL)
        out.metrics = {
            "samples_per_s": rate(stamps),
            # Per plan, like the rate: the median call of each, averaged.
            "latency_p50_ms": float(
                statistics.fmean(_p50([_ms(t1 - t0) for t0, t1 in seg]) for seg in stamps)
            ),
            "latency_tail_ms": tail_value,
            "spikes_per_neuron": float(np.mean([v[0] for v in spikes.values()])),
            "decision_steps": float(next(iter(spikes.values()))[1]),
        }
        out.report["calls"] = len(lat)
        out.report["plan_samples_per_s"] = plan_rates(stamps)
        out.report["latency_tail_level_permille"] = tail_level

    plans = _plans_from(tracer)
    out.per_layer.setdefault(
        "plan.arena_mb", float(np.median([p.workspace.nbytes() for p in plans])) / 1e6
    )
    _finish(out, setups, plans)
    return out


# ---------------------------------------------------------------------- #
# serving workloads
# ---------------------------------------------------------------------- #


def _warm_capacities(service, warm, ledger: Ledger, budgeted: bool) -> None:
    """Compile and run every plan capacity before anything is timed.

    Submits groups of exactly each capacity's size at once, so each flush
    lands on that capacity's plan, until every capacity has compiled.
    """
    cursor = 0
    for _ in range(8):
        if service.stats().plans_compiled >= len(CAPACITIES):
            break
        for size in CAPACITIES:
            group = warm[cursor : cursor + size]
            cursor = (cursor + size) % (len(warm) - max(CAPACITIES))
            futures = [service.submit(x) for x in group]
            for f in futures:
                try:
                    f.result(timeout=60.0)
                except Exception as exc:  # noqa: BLE001 - counted
                    ledger.note("setup", False, repr(exc))
                else:
                    ledger.note("setup", True)
    if budgeted:
        f = service.submit(warm[-1], budget_ms=BUDGET_MS)
        try:
            f.result(timeout=60.0)
        except Exception as exc:  # noqa: BLE001 - counted
            ledger.note("setup", False, repr(exc))
        else:
            ledger.note("setup", True)
    ok = service.stats().plans_compiled == len(CAPACITIES)
    ledger.note("setup", ok, "not every plan capacity compiled during warm-up")


def _stats_delta(before, after) -> dict:
    fields = (
        "requests",
        "cache_hits",
        "dedup_hits",
        "flushes",
        "flushed_samples",
        "padded_samples",
        "plans_compiled",
        "serial_fallbacks",
        "deadline_expired",
        "rejected_full",
        "watchdog_timeouts",
    )
    return {f: getattr(after, f) - getattr(before, f) for f in fields}


def _service_layers(tracer: Tracer, delta: dict) -> dict:
    """Service, batcher and cache metrics of a traced serving phase.

    With one worker every flush runs exactly one ``ExecutionPlan.run``,
    so plan-run spans are the flushes' execute times.
    """
    flushes = tracer.select("plan.run")
    flush_ms = [_ms(s.end - s.start) for s in flushes]
    requests = max(delta["requests"], 1)
    flushed = delta["flushed_samples"]
    rows = flushed + delta["padded_samples"]
    return {
        "service.submit_ms_p50": _p50(
            [_ms(s.end - s.start) for s in tracer.select("service.submit")]
        ),
        "service.flush_exec_ms_p50": _p50(flush_ms),
        "service.flush_exec_ms_p99": _pct(flush_ms, REQUEST_TAIL),
        "service.budgeted_flush_ms_p50": _p50(
            [_ms(s.end - s.start) for s in flushes if s.note]
        ),
        "service.plans_compiled": delta["plans_compiled"],
        "service.rejected": delta["rejected_full"],
        "service.deadline_expired": delta["deadline_expired"],
        "service.serial_fallbacks": delta["serial_fallbacks"],
        "service.watchdog_timeouts": delta["watchdog_timeouts"],
        "service.dedup_share": delta["dedup_hits"] / requests,
        "cache.hit_share": delta["cache_hits"] / requests,
        "batcher.flush_size_mean": flushed / max(delta["flushes"], 1),
        "batcher.padding_share": delta["padded_samples"] / rows if rows else 0.0,
    }


def _check_no_compiles(ledger: Ledger, phase: str, delta: dict) -> None:
    ledger.note(
        phase,
        delta["plans_compiled"] == 0,
        f"{delta['plans_compiled']} plan(s) compiled inside the timed phase",
    )


def _serving_setups(trace: bool, build):
    """:func:`_setups` for a serving system: only the last one is kept."""
    systems, setups, tracer = _setups(trace, build, SERVING_SETUPS)
    for extra in systems[:-1]:
        extra.close()
    return systems[-1], setups, tracer


def _poisson_schedule(rng, rate: float, duration: float, fresh):
    """Arrival offsets and pool indices: a quarter repeat a recent input."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < duration]
    recent: deque = deque(maxlen=RECENT)
    picks = []
    for _ in arrivals:
        if recent and rng.random() < REPEAT_SHARE:
            picks.append(recent[int(rng.integers(len(recent)))])
        else:
            idx = next(fresh)
            recent.append(idx)
            picks.append(idx)
    return arrivals, picks


class _Serving:
    """The baseline model, its service and (for http-closed) the HTTP edge."""

    def __init__(self, network, warm, ledger: Ledger, http: bool):
        from repro.serve.service import InferenceService

        self.model = system.build_model(network, early_firing=False)
        self.service = InferenceService(
            self.model,
            capacities=CAPACITIES,
            max_wait_ms=MAX_WAIT_MS,
            workers=1,
            cache_size=CACHE_SIZE,
        )
        _warm_capacities(self.service, warm, ledger, budgeted=http)
        self.server = None
        if http:
            self.server = _ServerThread(self.service)
            for x in warm[: 2 * CLIENTS]:  # warm the edge itself
                status, _ = _post(self.server.port, json.dumps({"x": x.tolist()}).encode())
                ledger.note("setup", status == 200, f"warm-up status {status}")

    def close(self):
        if self.server is not None:
            self.server.close()
        self.service.close()


def serve_poisson(seed: int, seconds: float, trace: bool):
    out = Outcome()
    ledger = out.ledger
    rng = np.random.default_rng(seed)
    pool = system.inputs(rng, POOL)
    warm = system.inputs(rng, 4 * max(CAPACITIES))
    # Inputs no earlier rung has sent, for the top rung: under overload the
    # cache's evictions lag the submits, so a wrapped pool would hit it.
    unseen = system.inputs(rng, BURST_REQUESTS * len(LADDER))
    inputs = np.concatenate([pool, unseen])
    serving, setups, tracer = _serving_setups(
        trace, lambda: _Serving(system.build_network(), warm, ledger, http=False)
    )
    service = serving.service
    ref_pred, _ = system.reference(serving.model.network, False, inputs, BATCH)
    fresh = itertools.cycle(range(POOL))

    def phase(rate: float, arrivals, picks, label: str, traced: bool):
        n = len(arrivals)
        due = np.empty(n)
        sent = np.empty(n)
        done = np.full(n, np.nan)
        futures: list = [None] * n
        queue_wait: list = []

        def settled(i, fut):
            done[i] = clock()
            if not traced:
                return
            flush = tracer.last.get("plan.run")
            try:
                res = fut.result(0)
            except Exception:  # noqa: BLE001 - counted when collected
                return
            if res.cached or res.deduped or flush is None:
                return
            queue_wait.append(_ms(res.latency_s - (flush.end - flush.start)))
            tracer.record("request.settle", done[i], done[i], flush, i)

        before = service.stats()
        start = clock() + 0.005
        for i in range(n):
            due[i] = start + arrivals[i]
            lag = due[i] - clock()
            if lag > 0:
                time.sleep(lag)
            sent[i] = clock()
            if traced:
                tracer.set_request(i)
            try:
                fut = service.submit(inputs[picks[i]])
            except Exception as exc:  # noqa: BLE001 - counted
                ledger.note(label, False, repr(exc))
                continue
            futures[i] = fut
            fut.add_done_callback(lambda f, i=i: settled(i, f))
        last_sent = sent[-1] if n else clock()
        for i, fut in enumerate(futures):
            if fut is None:
                continue
            try:
                res = fut.result(timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - counted
                ledger.note(label, False, repr(exc))
                continue
            ledger.note(
                label,
                res.prediction == ref_pred[picks[i]] and not res.partial,
                f"request {i} differs from the reference",
            )
        delta = _stats_delta(before, service.stats())
        _check_no_compiles(ledger, label, delta)
        ok = ~np.isnan(done)
        lat = [_ms(v) for v in (done - due)[ok]]
        late = [_ms(max(v, 0.0)) for v in (sent - due)]
        outstanding = int(np.sum(~ok | (done > last_sent)))
        slo_value, slo_level = tail(lat, SLO_LEVEL) if lat else (float("inf"), 0)
        late_value, late_level = tail(late, REQUEST_TAIL) if late else (0.0, 0)
        row = {
            "rate_per_s": rate,
            "requests": n,
            "completed": int(ok.sum()),
            "served_per_s": (
                _windowed_rate(due[0], np.sort(done[ok]).tolist(), CAPACITY_WINDOW)
                if ok.any()
                else 0.0
            ),
            "latency_p50_ms": _p50(lat),
            "slo_latency_ms": slo_value,
            "slo_level_permille": slo_level,
            "lateness_ms": late_value,
            "lateness_level_permille": late_level,
            "outstanding_at_end": outstanding,
            "meets_slo": bool(
                lat
                and slo_value <= SLO_MS
                and slo_level >= SLO_LEVEL
                and outstanding <= BACKLOG_LIMIT
                and ok.all()
            ),
            "stats": delta,
        }
        return row, lat, queue_wait

    def schedule(rate: float, duration: float):
        return _poisson_schedule(rng, rate, duration, fresh)

    if trace:
        half = seconds / 2
        base, _, _ = phase(REFERENCE_RATE, *schedule(REFERENCE_RATE, half), "untraced", False)
        tracer.phase = "timed"
        tracer.install()
        row, lat, queue_wait = phase(
            REFERENCE_RATE, *schedule(REFERENCE_RATE, half), "traced", True
        )
        tracer.uninstall()
        out.per_layer = layer_metrics(tracer, row["completed"])
        out.per_layer.update(_service_layers(tracer, row["stats"]))
        out.per_layer["batcher.queue_wait_ms_p50"] = _p50(queue_wait)
        out.per_layer["batcher.queue_wait_ms_p99"] = _pct(queue_wait, REQUEST_TAIL)
        out.per_layer["trace.overhead_pct"] = 100.0 * (
            row["latency_p50_ms"] / base["latency_p50_ms"] - 1.0
        )
        out.report["profile"] = _profile(tracer)
        out.report["rates"] = [base, row]
        out.tracer = tracer
    else:
        durations = _rung_durations(seconds)
        unseen_picks = iter(range(POOL, len(inputs)))

        def burst():
            arrivals = np.cumsum(rng.exponential(1.0 / OVERLOAD_RATE, size=BURST_REQUESTS))
            picks = [next(unseen_picks) for _ in arrivals]
            return phase(OVERLOAD_RATE, arrivals, picks, f"rate-{OVERLOAD_RATE}", False)[0]

        # The top rung runs as bursts spread over the run, one before the
        # first rung and one after each, so that the capacity figure
        # averages over the machine's slower and faster spells.
        rows, ref_lat, bursts = [], None, [burst()]
        for rate in LADDER[:-1]:
            row, lat, _ = phase(rate, *schedule(rate, durations[rate]), f"rate-{rate}", False)
            rows.append(row)
            if rate == REFERENCE_RATE:
                ref_lat = lat
            bursts.append(burst())
        passing = [r for r in rows if r["meets_slo"]]
        best = max(passing, key=lambda r: r["rate_per_s"]) if passing else None
        tail_value, tail_level = windowed_tail(ref_lat, SLO_LEVEL)
        out.metrics = {
            "samples_per_s": float(statistics.fmean(b["served_per_s"] for b in bursts)),
            "latency_p50_ms": _p50(ref_lat),
            "latency_tail_ms": tail_value,
        }
        out.report["rates"] = rows + bursts
        out.report["latency_tail_level_permille"] = tail_level
        # A burst the service keeps up with measures the offered load, not
        # the capacity: say so next to the figure.
        out.report["top_rate_overloads"] = all(
            b["outstanding_at_end"] > BACKLOG_LIMIT for b in bursts
        )
        out.report["max_rate_at_slo"] = best["rate_per_s"] if best else 0
        out.report["slo"] = {"level_permille": SLO_LEVEL, "limit_ms": SLO_MS}
    _finish_serving(out, serving, setups, tracer, pool)
    return out


def _rung_durations(seconds: float) -> dict:
    """Seconds per rung below the top one: ``REFERENCE_SHARE`` of the run
    at the reference rate, the rest split so every other rung gets the same
    request count (and so supports the same SLO percentile).  The top rung
    sends bursts of :data:`BURST_REQUESTS`, each lasting until the service
    drains it."""
    others = [r for r in LADDER[:-1] if r != REFERENCE_RATE]
    rest = seconds * (1.0 - REFERENCE_SHARE)
    requests = rest / sum(1.0 / r for r in others)
    durations = {r: requests / r for r in others}
    durations[REFERENCE_RATE] = seconds * REFERENCE_SHARE
    return durations


def _finish_serving(out: Outcome, serving, setups, tracer, pool) -> None:
    """Metrics every serving workload shares; closes the system."""
    if out.metrics:
        result = _served_spikes(serving.model, pool[: 4 * BATCH])
        neurons = system.neurons_per_inference(serving.model.network, result.spike_counts)
        out.metrics["spikes_per_neuron"] = result.total_spikes / neurons
        out.metrics["decision_steps"] = float(serving.model.decision_time)
    plans = _plans_from(tracer)
    live = plans[-len(CAPACITIES) :]
    out.per_layer.setdefault("plan.arena_mb", sum(p.workspace.nbytes() for p in live) / 1e6)
    serving.close()
    _finish(out, setups, plans)


def _served_spikes(model, xs):
    """Spikes of served inputs, from the compiled batch path of the model.

    Served results carry no spike counts; the same model's compiled
    ``T2FSNN.run`` executes the same plans' schedule on the same inputs.
    """
    from repro.runtime import RunConfig

    return model.run(xs, config=RunConfig(compiled=True, batch_size=BATCH))


# ---------------------------------------------------------------------- #
# HTTP edge
# ---------------------------------------------------------------------- #


class _ServerThread:
    """``HttpServer`` + ``PredictApp`` over ``AsyncInferenceService`` on
    its own event-loop thread, bound to an ephemeral 127.0.0.1 port."""

    def __init__(self, service):
        self._service = service
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.port = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main, name="perfbench-http", daemon=True)
        self._thread.start()
        if not self._ready.wait(30.0) or self.port is None:
            raise RuntimeError(f"HTTP server failed to start: {self._error!r}")

    def _main(self):
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - reported by __init__
            self._error = exc
            self._ready.set()

    async def _serve(self):
        from repro.serve.aio import AsyncInferenceService
        from repro.serve.http import HttpServer, PredictApp

        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        aio = AsyncInferenceService(self._service)
        async with HttpServer(PredictApp(aio), host="127.0.0.1", port=0) as server:
            self.port = server.port
            self._ready.set()
            await self._stop.wait()
        await aio.close()

    def close(self):
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30.0)


def _post(port: int, body: bytes) -> tuple[int, dict]:
    """One ``POST /predict`` over a fresh connection (the server closes it)."""
    head = (
        b"POST /predict HTTP/1.1\r\nhost: 127.0.0.1\r\n"
        + f"content-type: application/json\r\ncontent-length: {len(body)}\r\n\r\n".encode()
    )
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(payload)


def http_closed(seed: int, seconds: float, trace: bool):
    out = Outcome()
    ledger = out.ledger
    rng = np.random.default_rng(seed)
    pool = system.inputs(rng, POOL)
    warm = system.inputs(rng, 4 * max(CAPACITIES))
    bodies = [json.dumps({"x": x.tolist()}).encode() for x in pool]
    budget_prefix = json.dumps({"budget_ms": BUDGET_MS})[:-1].encode() + b", "

    serving, setups, tracer = _serving_setups(
        trace, lambda: _Serving(system.build_network(), warm, ledger, http=True)
    )
    service, port = serving.service, serving.server.port
    ref_pred, _ = system.reference(serving.model.network, False, pool, BATCH)

    # One request counter for the whole run: the stream keeps cycling the
    # pool across phases, so no phase replays inputs the cache still holds.
    counter = itertools.count()

    def phase(duration: float, label: str):
        records: list = []
        lock = threading.Lock()
        deadline = clock() + duration

        def client():
            while clock() < deadline:
                j = next(counter)
                idx = j % POOL
                body = bodies[idx]
                if j % 2:
                    body = budget_prefix + body[1:]
                t0 = clock()
                try:
                    status, payload = _post(port, body)
                except Exception as exc:  # noqa: BLE001 - counted
                    with lock:
                        ledger.note(label, False, repr(exc))
                    continue
                t1 = clock()
                with lock:
                    records.append((t0, t1, idx, status, payload))

        before = service.stats()
        start = clock()
        threads = [threading.Thread(target=client, name=f"perfbench-client-{c}") for c in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(duration + 120.0)
        delta = _stats_delta(before, service.stats())
        _check_no_compiles(ledger, label, delta)
        records.sort(key=lambda r: r[1])
        lat, overhead = [], []
        for t0, t1, idx, status, payload in records:
            ok = (
                status == 200
                and payload.get("prediction") == int(ref_pred[idx])
                and not payload.get("partial")
            )
            ledger.note(label, ok, f"status {status}: {str(payload)[:120]}")
            if status == 200:
                lat.append(_ms(t1 - t0))
                overhead.append(_ms(t1 - t0) - payload["latency_ms"])
        ends = [r[1] for r in records]
        return {
            "requests": len(records),
            "rate": _windowed_rate(start, ends, RATE_WINDOW) if ends else 0.0,
            "lat": lat,
            "overhead": overhead,
            "stats": delta,
        }

    if trace:
        half = seconds / 2
        base = phase(half, "untraced")
        tracer.phase = "timed"
        tracer.install()
        traced = phase(half, "traced")
        tracer.uninstall()
        out.per_layer = layer_metrics(tracer, traced["requests"])
        out.per_layer.update(_service_layers(tracer, traced["stats"]))
        out.per_layer["batcher.queue_wait_ms_p50"] = 0.0
        out.per_layer["batcher.queue_wait_ms_p99"] = 0.0
        out.per_layer["http.overhead_ms_p50"] = _p50(traced["overhead"])
        out.per_layer["http.overhead_ms_p99"] = _pct(traced["overhead"], REQUEST_TAIL)
        out.per_layer["trace.overhead_pct"] = 100.0 * (
            _p50(traced["lat"]) / _p50(base["lat"]) - 1.0
        )
        out.report["profile"] = _profile(tracer)
        out.report["stats"] = [base["stats"], traced["stats"]]
        out.tracer = tracer
    else:
        run = phase(seconds, "timed")
        tail_value, tail_level = windowed_tail(run["lat"], HTTP_TAIL)
        out.metrics = {
            "samples_per_s": run["rate"],
            "latency_p50_ms": _p50(run["lat"]),
            "latency_tail_ms": tail_value,
        }
        out.report["requests"] = run["requests"]
        out.report["requests_per_s"] = run["rate"]
        out.report["latency_tail_level_permille"] = tail_level
        out.report["http_overhead_ms_p50"] = _p50(run["overhead"])
        out.report["stats"] = run["stats"]
    _finish_serving(out, serving, setups, tracer, pool)
    return out


WORKLOADS = {
    "batch-baseline": lambda seed, seconds, trace: batch_workload(False, seed, seconds, trace),
    "batch-early-firing": lambda seed, seconds, trace: batch_workload(
        True, seed, seconds, trace
    ),
    "serve-poisson": serve_poisson,
    "http-closed": http_closed,
}


def _status_mb(field: str) -> float:
    """A size field of ``/proc/self/status`` (``VmRSS``, ``VmHWM``) in MB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def footprint(workload: str, seed: int) -> float:
    """MB the inference system of ``workload`` adds to the high-water RSS.

    Meant for a fresh process, right after the imports.  Converts the
    network, restarts the kernel's high-water mark from the current RSS,
    then builds the rest of one set-up (model, calibrated plans, service,
    HTTP edge), runs one pass of operations through it and returns how far
    the high-water mark rose.  Neither the imports, the conversion's
    temporaries nor the benchmark's own state (the other set-ups, the
    reference run, request bodies) count.  Linux only.
    """
    rng = np.random.default_rng(seed)
    xs = system.inputs(rng, BATCHES * BATCH)
    warm = system.inputs(rng, 4 * max(CAPACITIES))
    network = system.build_network()
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")  # reset VmHWM to VmRSS
    before = _status_mb("VmRSS")
    if workload in ("batch-baseline", "batch-early-firing"):
        model = _batch_model(network, workload == "batch-early-firing", warm[:BATCH])
        for b in range(BATCHES):
            model.run(xs[b * BATCH : (b + 1) * BATCH], config=_batch_config())
    else:
        serving = _Serving(network, warm, Ledger(), http=workload == "http-closed")
        for fut in [serving.service.submit(x) for x in xs]:
            fut.result(timeout=60.0)
        serving.close()
    return _status_mb("VmHWM") - before


def finalize(out: Outcome, trace: bool, fresh: dict | None) -> dict:
    """Fill the metrics every workload reports and the missing layers.

    ``fresh`` holds what the run's fresh processes measured: their import
    times and one :func:`footprint`.
    """
    if trace:
        for name in PER_LAYER_UNITS:
            out.per_layer.setdefault(name, 0.0)
        return {name: out.per_layer[name] for name in PER_LAYER_UNITS}
    out.metrics["setup_s"] = float(
        statistics.median(fresh["import_s"]) + statistics.median(out.setups)
    )
    out.metrics["peak_rss_mb"] = fresh["peak_rss_mb"]
    out.report["fresh_processes"] = fresh
    return {name: out.metrics[name] for name in E2E_UNITS}

