"""Online serving latency/throughput — micro-batching over compiled plans.

Measures the :class:`~repro.serve.service.InferenceService` on the same
converted VGG network as ``bench_engine_throughput.py`` (TTFS baseline
schedule) in two phases:

* **saturation** — several client threads submit the whole sample set as
  fast as they can ("concurrent submission"); the sustained samples/sec is
  compared against the compiled plan's batch throughput measured in the
  same process.  Micro-batching overhead (queueing, futures,
  per-request copies) must cost < ``1 - MIN_SERVICE_RATIO`` of the compiled
  engine's throughput;
* **poisson** — open-loop Poisson request arrivals at a configurable
  utilisation of the measured compiled capacity; per-request latency
  (submit -> result) is reported as p50/p99 alongside the sustained rate —
  the paper's per-request latency story, measured end to end.

A third, separately runnable **http** section (``--section http``) drives
the same Poisson stream through the full network edge — raw sockets into
``repro.serve.http`` hosting the asyncio bridge — once with the fixed
``max_wait_ms`` flush wait and once with the adaptive-wait controller, and
reports client-observed latency, the HTTP overhead over the service-side
latency, and the p99/p50 tail ratio the adaptive controller is meant to
tame.

Results merge into ``BENCH_engine.json`` under the ``"service"`` and
``"http"`` keys (engine rows are preserved), tracking the serving
trajectory across PRs.  The CI ``service-smoke``/``http-smoke`` jobs run
this at ``--scale ci`` and gate on *ratios* (service-vs-compiled
throughput, adaptive p99/p50) so runner hardware cancels out.

Runnable directly: ``python benchmarks/bench_service_latency.py --scale ci``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: Acceptance floor: sustained service throughput under concurrent
#: submission must reach this fraction of the compiled plan's batch
#: throughput (measured in the same run, so hardware cancels out).  The
#: ISSUE acceptance criterion is 0.9; CI overrides lower for noisy shared
#: runners — the tracked number lives in BENCH_engine.json.
MIN_SERVICE_RATIO = float(os.environ.get("REPRO_BENCH_MIN_SERVICE_RATIO", "0.9"))

#: Tail-latency ceiling for the HTTP section: the adaptive-wait run's
#: p99/p50 ratio must not exceed the committed fixed-wait "service"
#: Poisson tail (255.3ms p99 / 117.74ms p50 ~= 2.17) — the adaptive
#: controller exists to stop sparse streams paying the full flush wait,
#: so its tail must be no worse than the fixed-wait story it replaces.
MAX_HTTP_TAIL_RATIO = float(os.environ.get("REPRO_BENCH_MAX_HTTP_TAIL_RATIO", "2.17"))

SCALES = {
    # utilisation is the Poisson offered rate as a fraction of the compiled
    # plan's full-batch throughput; the open-loop stream runs 2x samples so
    # the adaptive-batching ramp (tiny flushes at low queue depth) is
    # amortised rather than dominating the percentiles.
    "ci": dict(
        width=0.25,
        window=32,
        batch=8,
        samples=64,
        clients=4,
        utilisation=0.5,
        http_utilisation=0.3,
        repeats=3,
    ),
    "paper": dict(
        width=1.0,
        window=80,
        batch=16,
        samples=64,
        clients=8,
        utilisation=0.5,
        http_utilisation=0.3,
        repeats=3,
    ),
}


def _scale() -> dict:
    return SCALES[os.environ.get("REPRO_SCALE", "ci")]


def build_system():
    """The benchmark network and inputs (same recipe as the engine bench)."""
    from repro.convert.converter import convert_to_snn
    from repro.nn.architectures import vgg7

    cfg = _scale()
    rng = np.random.default_rng(0)
    model = vgg7(input_shape=(3, 32, 32), num_classes=10, width=cfg["width"], rng=7)
    network = convert_to_snn(model, rng.random((64, 3, 32, 32)))
    x = rng.random((cfg["samples"], 3, 32, 32))
    return network, x, cfg


def _make_service(network, cfg, **overrides):
    from repro.coding.ttfs import TTFSCoding
    from repro.serve import InferenceService
    from repro.snn.engine import Simulator

    kwargs = dict(
        capacities=(1, cfg["batch"] // 2, cfg["batch"]),
        max_wait_ms=2.0,
        cache_size=0,  # distinct inputs; caching would flatter the numbers
        workers=1,
    )
    kwargs.update(overrides)
    return InferenceService(
        Simulator(network, TTFSCoding(window=cfg["window"])), **kwargs
    )


def _warm_compiled_plan(network, x, cfg):
    """The compiled reference plan, arenas and BLAS warmed."""
    from repro.coding.ttfs import TTFSCoding
    from repro.snn.engine import Simulator

    plan = Simulator(network, TTFSCoding(window=cfg["window"])).compile(
        batch_size=cfg["batch"]
    )
    plan.run_batched(x, batch_size=cfg["batch"])
    return plan


def _compiled_rate_once(plan, x, cfg) -> float:
    """One timed sweep of the compiled plan (samples/s)."""
    t0 = time.perf_counter()
    plan.run_batched(x, batch_size=cfg["batch"])
    return len(x) / (time.perf_counter() - t0)


def _saturation_phase(service, x, clients: int) -> dict:
    """All samples submitted as fast as possible from ``clients`` threads."""
    futures: list = [None] * len(x)
    chunks = np.array_split(np.arange(len(x)), clients)

    def client(indices):
        for i in indices:
            futures[i] = service.submit(x[i])

    threads = [threading.Thread(target=client, args=(c,)) for c in chunks]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    results = [f.result(timeout=300.0) for f in futures]
    wall = time.perf_counter() - t0
    latencies = np.array([r.latency_s for r in results])
    return {
        "samples": len(x),
        "clients": clients,
        "wall_s": round(wall, 4),
        "samples_per_sec": round(len(x) / wall, 1),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1e3, 2),
        "predictions": np.array([r.prediction for r in results]),
    }


def _poisson_phase(service, x, rate_per_s: float, seed: int = 42) -> dict:
    """Open-loop Poisson arrivals at ``rate_per_s`` (one submitting thread).

    Submission times are pre-drawn from an exponential inter-arrival
    distribution; the submitter sleeps to the schedule, so the measured
    latency includes genuine queueing delay at the target utilisation.
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_per_s, size=len(x)))
    futures = []
    t0 = time.perf_counter()
    for i in range(len(x)):
        lag = arrivals[i] - (time.perf_counter() - t0)
        if lag > 0:
            time.sleep(lag)
        futures.append(service.submit(x[i]))
    results = [f.result(timeout=300.0) for f in futures]
    wall = time.perf_counter() - t0
    latencies = np.array([r.latency_s for r in results])
    return {
        "samples": len(x),
        "offered_rate_per_s": round(rate_per_s, 1),
        "wall_s": round(wall, 4),
        "samples_per_sec": round(len(x) / wall, 1),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1e3, 2),
        "mean_ms": round(float(latencies.mean()) * 1e3, 2),
    }


async def _http_predict(port: int, sample: np.ndarray) -> tuple[int, dict]:
    """One ``POST /predict`` round trip over a raw asyncio socket."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        payload = json.dumps({"x": sample.tolist()}).encode("utf-8")
        writer.write(
            b"POST /predict HTTP/1.1\r\nhost: 127.0.0.1\r\n"
            + f"content-length: {len(payload)}\r\n\r\n".encode("ascii")
            + payload
        )
        await writer.drain()
        raw = await reader.read(-1)  # connection: close -> read to EOF
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n", 1)[0].split()[1])
    return status, json.loads(body)


async def _http_poisson(service, x, rate_per_s: float, seed: int = 42):
    """Open-loop Poisson arrivals through the full HTTP stack.

    Each request is its own TCP connection (the server's one-shot
    transport), timed client-side so the measurement includes connect,
    JSON encode/decode and the asyncio bridge — the end-to-end number a
    network client would actually see.
    """
    from repro.serve.aio import AsyncInferenceService
    from repro.serve.http import HttpServer, PredictApp

    aio = AsyncInferenceService(service)
    results: list = [None] * len(x)

    async def one(i: int, port: int) -> None:
        t0 = time.perf_counter()
        status, body = await _http_predict(port, x[i])
        elapsed = time.perf_counter() - t0
        assert status == 200, body
        results[i] = (elapsed, body)

    async with HttpServer(PredictApp(aio), port=0) as server:
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0 / rate_per_s, size=len(x)))
        tasks = []
        t0 = time.perf_counter()
        for i in range(len(x)):
            lag = arrivals[i] - (time.perf_counter() - t0)
            if lag > 0:
                await asyncio.sleep(lag)
            tasks.append(asyncio.ensure_future(one(i, server.port)))
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - t0
    return results, wall


def run_http_benchmark(write_json: bool = True) -> dict:
    """Poisson over HTTP, fixed vs adaptive flush wait; merge as ``http``.

    Both runs share one offered rate (a fraction of the compiled rate
    measured in the same process) and one arrival schedule (same seed), so
    the only difference between the two sections is the wait controller.
    """
    network, x, cfg = build_system()
    plan = _warm_compiled_plan(network, x, cfg)
    compiled_rate = max(
        _compiled_rate_once(plan, x, cfg) for _ in range(cfg["repeats"])
    )
    # The edge adds JSON + TCP per request, so the open-loop stream runs at
    # a lower utilisation than the in-process Poisson phase — offered rate
    # must stay below the edge's sustainable rate or the queue just ramps.
    rate = cfg["http_utilisation"] * compiled_rate
    stream = np.concatenate([x, x])  # amortise the ramp; cache is off
    ref = plan.run_batched(x, batch_size=cfg["batch"])
    expected = np.tile(ref.predictions, 2)

    sections = {}
    for label, overrides in (
        ("fixed_wait", {}),
        ("adaptive_wait", dict(adaptive_wait=True)),
    ):
        with _make_service(network, cfg, **overrides) as service:
            service.predict_many(x[: cfg["batch"]], timeout=300.0)
            # Discarded Poisson warmup: settles the plan-size ladder and
            # seeds the adaptive controller's arrival EWMA, so the measured
            # stream sees steady-state behaviour instead of the ramp.
            asyncio.run(_http_poisson(service, x[: 3 * cfg["batch"]], rate, seed=7))
            results, wall = asyncio.run(_http_poisson(service, stream, rate))
            mean_flush = service.stats().mean_flush_size
        client_ms = np.array([r[0] for r in results]) * 1e3
        service_ms = np.array([r[1]["latency_ms"] for r in results])
        predictions = np.array([r[1]["prediction"] for r in results])
        assert (predictions == expected).all(), "http: prediction parity"
        p50 = float(np.percentile(client_ms, 50))
        p99 = float(np.percentile(client_ms, 99))
        sections[label] = {
            "samples": len(stream),
            "offered_rate_per_s": round(rate, 1),
            "samples_per_sec": round(len(stream) / wall, 1),
            "p50_ms": round(p50, 2),
            "p99_ms": round(p99, 2),
            "mean_ms": round(float(client_ms.mean()), 2),
            "tail_ratio_p99_p50": round(p99 / p50, 3),
            "http_overhead_p50_ms": round(
                float(np.percentile(client_ms - service_ms, 50)), 2
            ),
            "mean_flush_size": round(mean_flush, 2),
        }

    payload = {
        "network": f"vgg7(width={cfg['width']})",
        "scale": os.environ.get("REPRO_SCALE", "ci"),
        "cpu_count": os.cpu_count(),
        "compiled_samples_per_sec": round(compiled_rate, 1),
        **sections,
    }
    if write_json:
        merged = {}
        if RESULT_PATH.exists():
            merged = json.loads(RESULT_PATH.read_text())
        merged["http"] = payload
        RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    return payload


def check_http_payload(payload: dict) -> None:
    """Apply the adaptive-tail ceiling and print the summary lines."""
    for label in ("fixed_wait", "adaptive_wait"):
        row = payload[label]
        print(
            f"[http {label} @ {row['offered_rate_per_s']}/s] "
            f"served={row['samples_per_sec']}/s p50={row['p50_ms']}ms "
            f"p99={row['p99_ms']}ms (tail {row['tail_ratio_p99_p50']}x, "
            f"overhead p50 {row['http_overhead_p50_ms']}ms, "
            f"mean flush {row['mean_flush_size']})"
        )
    tail = payload["adaptive_wait"]["tail_ratio_p99_p50"]
    assert tail <= MAX_HTTP_TAIL_RATIO, (
        f"adaptive-wait p99/p50 over HTTP must stay <= {MAX_HTTP_TAIL_RATIO} "
        f"(the committed fixed-wait service tail), got {tail}"
    )
    assert payload["adaptive_wait"]["p99_ms"] > 0.0  # actually measured


def run_benchmark(write_json: bool = True) -> dict:
    """Measure both phases and merge the ``service`` section into the JSON.

    The compiled reference rate and the saturated service rate are measured
    *interleaved, in pairs*, and the reported ratio is the best paired
    round: on a shared/1-core box the two sides drift together over
    seconds, so pairing cancels machine noise that independent best-of-N
    measurements would turn into a spurious ratio.
    """
    network, x, cfg = build_system()
    plan = _warm_compiled_plan(network, x, cfg)

    with _make_service(network, cfg) as service:
        # Warm the plan pool so the first timed flush is not a compile.
        service.predict_many(x[: cfg["batch"]], timeout=300.0)
        compiled_rate, sat, ratio = None, None, -np.inf
        for _ in range(cfg["repeats"]):
            comp = _compiled_rate_once(plan, x, cfg)
            round_sat = _saturation_phase(service, x, cfg["clients"])
            if round_sat["samples_per_sec"] / comp > ratio:
                ratio = round_sat["samples_per_sec"] / comp
                compiled_rate, sat = comp, round_sat
        mean_flush = service.stats().mean_flush_size

    predictions = sat.pop("predictions")
    from repro.coding.ttfs import TTFSCoding
    from repro.snn.engine import Simulator

    ref = Simulator(network, TTFSCoding(window=cfg["window"])).run_batched(
        x, batch_size=cfg["batch"]
    )
    assert (predictions == ref.predictions).all(), "service: prediction parity"

    with _make_service(network, cfg) as service:
        service.predict_many(x[: cfg["batch"]], timeout=300.0)
        stream = np.concatenate([x, x])  # 2x the samples; cache is off
        poisson = _poisson_phase(
            service, stream, cfg["utilisation"] * compiled_rate
        )

    payload = {
        "network": f"vgg7(width={cfg['width']})",
        "batch_capacities": [1, cfg["batch"] // 2, cfg["batch"]],
        "max_wait_ms": 2.0,
        "cpu_count": os.cpu_count(),
        "scale": os.environ.get("REPRO_SCALE", "ci"),
        "compiled_samples_per_sec": round(compiled_rate, 1),
        "service_vs_compiled": round(sat["samples_per_sec"] / compiled_rate, 3),
        "mean_flush_size": round(mean_flush, 2),
        "saturation": sat,
        "poisson": poisson,
    }
    if write_json:
        merged = {}
        if RESULT_PATH.exists():
            merged = json.loads(RESULT_PATH.read_text())
        merged["service"] = payload
        RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    return payload


def check_payload(payload: dict) -> None:
    """Apply the smoke floor and print the summary lines."""
    sat, poisson = payload["saturation"], payload["poisson"]
    print(
        f"\n[service] compiled={payload['compiled_samples_per_sec']}/s "
        f"saturated={sat['samples_per_sec']}/s "
        f"(ratio {payload['service_vs_compiled']}x, "
        f"mean flush {payload['mean_flush_size']})"
    )
    print(
        f"[poisson @ {poisson['offered_rate_per_s']}/s] "
        f"served={poisson['samples_per_sec']}/s "
        f"p50={poisson['p50_ms']}ms p99={poisson['p99_ms']}ms"
    )
    assert payload["service_vs_compiled"] >= MIN_SERVICE_RATIO, (
        f"micro-batched service must sustain >= {MIN_SERVICE_RATIO}x the "
        f"compiled plan's throughput under concurrent submission, got "
        f"{payload['service_vs_compiled']}x"
    )
    assert poisson["p99_ms"] > 0.0  # latencies were actually measured


@pytest.mark.benchmark(group="service")
def test_service_latency():
    payload = run_benchmark()
    check_payload(payload)


@pytest.mark.benchmark(group="service")
def test_http_latency():
    payload = run_http_benchmark()
    check_http_payload(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default=None)
    parser.add_argument(
        "--section",
        choices=["service", "http", "all"],
        default="all",
        help="which benchmark sections to run",
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing BENCH_engine.json"
    )
    args = parser.parse_args()
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = args.scale
    if args.section in ("service", "all"):
        payload = run_benchmark(write_json=not args.no_write)
        check_payload(payload)
    if args.section in ("http", "all"):
        payload = run_http_benchmark(write_json=not args.no_write)
        check_http_payload(payload)
    print(f"\nwrote {RESULT_PATH}" if not args.no_write else "\n(dry run)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
