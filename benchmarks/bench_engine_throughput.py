"""Engine throughput — dense vs event-driven vs runtime vs compiled plans.

Four generations of the inference engine are timed on the same converted
VGG network under TTFS coding (baseline and early-firing schedules):

* ``dense`` — every step through the full im2col linear ops (reference);
* ``event`` — PR 1's single-process event engine (sparse propagation,
  deferred drives) with the throughput machinery off;
* ``runtime`` — PR 2's throughput runtime: quiescence early-exit,
  per-sample retirement, scheduled TTFS firing, serial and
  multiprocess-sharded (``run_parallel``);
* ``compiled`` — PR 3's compiled execution plan (``Simulator.compile``):
  the engine's kernel choices on workspace arenas, and the step loop's
  window-phased policy with bulk schedule drains.

All rows must satisfy the hard parity requirement (identical predictions
and spike counts to the dense engine).  Results — wall time, samples/sec,
executed steps, the early-exit step savings on an over-provisioned
budget and the compiled plan's arena and membrane bytes — are written to
``BENCH_engine.json`` at the repo root so the perf trajectory is tracked
across PRs.

Scale: ``REPRO_SCALE=ci`` (default) runs an untrained width-0.25 VGG-7 in
seconds; ``REPRO_SCALE=paper`` widens the net and window toward the paper's
T=80 regime (minutes).  The network is deliberately untrained — conversion
normalization gives realistic [0, 1] activations and ~0.5 spikes/neuron,
and throughput does not depend on what the weights encode.

Runnable directly (the CI regression gate uses this):
``python benchmarks/bench_engine_throughput.py --scale ci``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: The acceptance floor: event-driven TTFS must beat dense by at least this.
#: Overridable for noisy shared runners (CI uses a lower smoke floor — the
#: tracked number lives in BENCH_engine.json, the assertion only guards
#: against the fast path rotting).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "5.0"))

#: Smoke floor for the throughput runtime vs the PR 1 event engine.  PR 3's
#: kernel work (flat-nonzero extraction, unique-position densification, the
#: in-dtype packet merge) is shared by *both* engines and lifted the event
#: baseline by ~1.6x, which collapsed the runtime's relative edge on the
#: tightly-packed CI schedule to ~1.0x — both absolute samples/sec numbers
#: improved (tracked in BENCH_engine.json).  The guard therefore only pins
#: that the runtime machinery never falls meaningfully *below* the plain
#: event engine; the compiled plan owns the headline speedup now.
MIN_RUNTIME_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_RUNTIME_SPEEDUP", "0.8"))

#: Smoke floor for the compiled plan vs the serial throughput runtime on the
#: baseline schedule.  The PR 3 target (and the number recorded in
#: BENCH_engine.json on the dev box) is >= 1.5x; the assertion floor sits
#: below it to tolerate shared-runner noise.
MIN_COMPILED_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_COMPILED_SPEEDUP", "1.3")
)

SCALES = {
    # repeats is a best-of count; 3 keeps single-run scheduler noise from
    # skewing the serial/compiled ratio (interleaved 10-rep measurement on
    # the dev box: 1.55-1.57x).
    "ci": dict(width=0.25, window=32, batch=8, samples=64, repeats=3, workers=4),
    "paper": dict(width=1.0, window=80, batch=16, samples=64, repeats=3, workers=4),
}


def _scale() -> dict:
    return SCALES[os.environ.get("REPRO_SCALE", "ci")]


def build_system():
    """The benchmark network and inputs at the configured scale."""
    from repro.convert.converter import convert_to_snn
    from repro.nn.architectures import vgg7

    cfg = _scale()
    rng = np.random.default_rng(0)
    model = vgg7(input_shape=(3, 32, 32), num_classes=10, width=cfg["width"], rng=7)
    network = convert_to_snn(model, rng.random((64, 3, 32, 32)))
    x = rng.random((cfg["samples"], 3, 32, 32))
    return network, x, cfg


def _time(fn, repeats: int):
    # Warm caches (im2col indices, BLAS threads, compiled-plan arenas).
    # Note run_parallel builds a fresh worker pool per call, so pool startup
    # is part of every timed repeat — the parallel row reports deliverable
    # throughput, overhead included.
    fn()
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _assert_parity(reference, candidate, label: str) -> None:
    assert (reference.predictions == candidate.predictions).all(), (
        f"{label}: prediction parity"
    )
    ref_counts = {k: round(v, 6) for k, v in reference.spike_counts.items()}
    cand_counts = {k: round(v, 6) for k, v in candidate.spike_counts.items()}
    assert ref_counts == cand_counts, f"{label}: spike-count parity"


def _measure(network, x, cfg, early_firing: bool) -> dict:
    from repro.coding.ttfs import TTFSCoding
    from repro.snn.engine import Simulator

    scheme = lambda: TTFSCoding(window=cfg["window"], early_firing=early_firing)  # noqa: E731
    batch = cfg["batch"]

    dense = Simulator(network, scheme(), event_driven=False, early_exit=False)
    event = Simulator(network, scheme(), early_exit=False)
    runtime = Simulator(network, scheme())
    compiled = Simulator(network, scheme()).compile(batch_size=batch)

    dense_t, dense_r = _time(lambda: dense.run_batched(x, batch_size=batch), 1)
    event_t, event_r = _time(lambda: event.run_batched(x, batch_size=batch), cfg["repeats"])
    serial_t, serial_r = _time(
        lambda: runtime.run_batched(x, batch_size=batch), cfg["repeats"]
    )
    par_t, par_r = _time(
        lambda: runtime.run_parallel(
            x, workers=cfg["workers"], batch_size=batch
        ),
        cfg["repeats"],
    )
    comp_t, comp_r = _time(
        lambda: compiled.run_batched(x, batch_size=batch), cfg["repeats"]
    )
    for result, label in [
        (event_r, "event"),
        (serial_r, "runtime"),
        (par_r, "parallel"),
        (comp_r, "compiled"),
    ]:
        _assert_parity(dense_r, result, label)

    # Early-exit step savings: the schedule itself leaves no slack on this
    # untrained net (the lowest threshold bin stays occupied), so the
    # measured saving is taken on an over-provisioned time budget — the
    # free-running usage pattern — which quiescence trims to the true
    # decision time.
    budget = dense_r.decision_time + cfg["window"]
    trimmed = Simulator(network, scheme(), steps=budget).run_batched(
        x[: 2 * cfg["batch"]], batch_size=cfg["batch"]
    )
    return {
        "schedule": "early_firing" if early_firing else "baseline",
        "steps_scheduled": dense_r.decision_time,
        "steps_executed": serial_r.steps,
        "overprovisioned_budget": budget,
        "overprovisioned_executed": trimmed.steps,
        "early_exit_step_savings": round(1.0 - trimmed.steps / budget, 4),
        "wall_time_dense_s": round(dense_t, 4),
        "wall_time_event_s": round(event_t, 4),
        "wall_time_runtime_serial_s": round(serial_t, 4),
        "wall_time_runtime_parallel_s": round(par_t, 4),
        "wall_time_runtime_compiled_s": round(comp_t, 4),
        "samples_per_sec_dense": round(len(x) / dense_t, 1),
        "samples_per_sec_event": round(len(x) / event_t, 1),
        "samples_per_sec_runtime_serial": round(len(x) / serial_t, 1),
        "samples_per_sec_runtime_parallel": round(len(x) / par_t, 1),
        "samples_per_sec_runtime_compiled": round(len(x) / comp_t, 1),
        "speedup_event_vs_dense": round(dense_t / event_t, 2),
        "speedup_runtime_vs_event": round(event_t / min(serial_t, par_t), 2),
        "speedup_compiled_vs_serial": round(serial_t / comp_t, 2),
        "spikes_per_neuron": round(serial_r.total_spikes / network.total_neurons, 4),
        # Deterministic: the compiled plan's arena and its dynamics'
        # membranes after its runs (CI gates each at 5% over the committed
        # value).
        "arena_bytes": compiled.workspace.nbytes(),
        "membrane_bytes": sum(dyn.membrane_nbytes() for dyn in compiled.bound.dynamics),
    }


def run_benchmark(write_json: bool = True) -> dict:
    """Measure all rows and (optionally) write ``BENCH_engine.json``."""
    network, x, cfg = build_system()
    rows = [_measure(network, x, cfg, early_firing=ef) for ef in (False, True)]
    payload = {
        "network": f"vgg7(width={cfg['width']})",
        "batch": cfg["batch"],
        "samples": cfg["samples"],
        "window": cfg["window"],
        "workers": cfg["workers"],
        "cpu_count": os.cpu_count(),
        "scale": os.environ.get("REPRO_SCALE", "ci"),
        "total_neurons": network.total_neurons,
        "results": rows,
    }
    if write_json:
        if RESULT_PATH.exists():
            # The serving benchmark owns the "service" section of the same
            # JSON; preserve it (and any future sections) across rewrites.
            previous = json.loads(RESULT_PATH.read_text())
            for key, value in previous.items():
                payload.setdefault(key, value)
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def check_rows(rows) -> None:
    """Apply the smoke-floor assertions and print the summary lines."""
    for row in rows:
        print(
            f"\n[{row['schedule']}] dense={row['samples_per_sec_dense']}/s "
            f"event={row['samples_per_sec_event']}/s "
            f"runtime-serial={row['samples_per_sec_runtime_serial']}/s "
            f"runtime-parallel={row['samples_per_sec_runtime_parallel']}/s "
            f"compiled={row['samples_per_sec_runtime_compiled']}/s "
            f"compiled-vs-serial={row['speedup_compiled_vs_serial']}x "
            f"exit-savings={row['early_exit_step_savings'] * 100:.0f}%"
        )
        # Early firing keeps per-step sparse delivery across the overlap
        # window, so its event-vs-dense margin is structurally smaller
        # (committed history: ~4.4-5.4x vs baseline's 9-13x) — it gets half
        # the baseline floor.
        floor = MIN_SPEEDUP if row["schedule"] == "baseline" else MIN_SPEEDUP / 2
        assert row["speedup_event_vs_dense"] >= floor, (
            f"event-driven {row['schedule']} TTFS must be >= {floor}x "
            f"faster than dense, got {row['speedup_event_vs_dense']}x"
        )
        if row["schedule"] == "baseline":
            # Early firing spreads drive delivery across the overlap window,
            # so its per-step work is irreducible; the runtime and compiled
            # targets are defined on the baseline schedule.
            assert row["speedup_runtime_vs_event"] >= MIN_RUNTIME_SPEEDUP, (
                f"throughput runtime {row['schedule']} must be >= "
                f"{MIN_RUNTIME_SPEEDUP}x over the PR 1 event engine, got "
                f"{row['speedup_runtime_vs_event']}x"
            )
            assert row["speedup_compiled_vs_serial"] >= MIN_COMPILED_SPEEDUP, (
                f"compiled plan {row['schedule']} must be >= "
                f"{MIN_COMPILED_SPEEDUP}x over the serial runtime, got "
                f"{row['speedup_compiled_vs_serial']}x"
            )
        assert row["overprovisioned_executed"] < row["overprovisioned_budget"], (
            "quiescence early-exit must trim an over-provisioned budget"
        )


@pytest.mark.benchmark(group="engine")
def test_engine_throughput():
    payload = run_benchmark()
    check_rows(payload["results"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default=None)
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing BENCH_engine.json"
    )
    args = parser.parse_args()
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = args.scale
    payload = run_benchmark(write_json=not args.no_write)
    check_rows(payload["results"])
    print(f"\nwrote {RESULT_PATH}" if not args.no_write else "\n(dry run)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
