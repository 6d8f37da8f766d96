"""Anytime accuracy-vs-budget curves — what a compute budget buys.

Sweeps step budgets over the TTFS schedule and records the accuracy of
the **sealed anytime answer** at each truncation (docs/DESIGN.md §14):
``Simulator.run(x, y, budget=Budget(max_steps=k))`` for k from 1 to the
full schedule.  This is *not* the per-step monitor curve of Fig. 6 — the
anytime seal applies the still-pending readout bias, so the curve starts
at the class prior's accuracy (the honest zero-evidence answer) and
climbs to the full-run accuracy as spike evidence arrives, instead of
sitting at chance until the readout bias lands.

The same grid runs through a compiled plan, whose bulk
drains are cut back at each truncation (docs/DESIGN.md §10): its curve
must equal the engine's at every point.  The plan's wall time per sample
is also measured with and without a wall-clock budget that never
expires; such a budget must keep the drains, so the two times must stay
close.

Results merge into ``BENCH_engine.json`` under the ``"anytime"`` key
(other sections preserved).  The CI smoke gates on the curve being
monotone non-decreasing up to a small tolerance: late spikes can flip a
thin-margin sample just before the schedule ends, so the final point may
dip a hair below the running peak — a genuine property of truncated
evidence, not noise — but any larger regression means the seal is wrong.
It also gates on the plan's curve matching the engine's exactly, and on
the budgeted/unbudgeted wall-time ratio staying at or below
``MAX_BUDGET_RATIO``.

Runnable directly: ``python benchmarks/bench_anytime_curves.py``.
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

#: Monotonicity tolerance: each curve point must stay within this of the
#: running maximum.  Sized to a few thin-margin samples of the CI eval
#: split (late-arriving spikes may legitimately flip them either way).
MONOTONE_TOL = float(os.environ.get("REPRO_BENCH_ANYTIME_TOL", "0.05"))

#: Number of budget points sampled across the schedule (plus the final
#: full-schedule point, always included).
CURVE_POINTS = 12

#: Largest allowed ratio of the compiled plan's wall time under a
#: never-expiring ``Budget(ms=...)`` to its unbudgeted wall time.  A
#: budget that turns the bulk drains off runs about 2x slower.
MAX_BUDGET_RATIO = 1.25

#: Samples timed one at a time per repeat, and alternating repeats per arm.
TIMED_SAMPLES = 16
TIMING_REPEATS = 7


def budget_grid(total_steps: int) -> list[int]:
    """~CURVE_POINTS step budgets spanning [1, total_steps], dense late:
    evidence pipelines through the layers, so accuracy sits at the prior
    until spikes reach the readout in the final window — the interesting
    region is the tail, and quadratic spacing puts most points there."""
    fractions = np.linspace(1.0, 0.0, CURVE_POINTS) ** 2
    ks = np.unique(np.round(total_steps - (total_steps - 1) * fractions).astype(int))
    return [int(k) for k in ks]


def measure_budget_overhead(system) -> dict:
    """Median per-sample wall time of a batch-1 compiled plan, with and
    without a ``Budget(ms=...)`` that never expires (the arms alternate,
    so a slow spell on a shared machine hits both)."""
    from repro.coding.ttfs import TTFSCoding
    from repro.snn import Budget
    from repro.snn.engine import Simulator

    plan = Simulator(system.network, TTFSCoding(window=system.config.window)).compile(
        batch_size=1
    )
    samples = system.x_eval[:TIMED_SAMPLES]
    arms = {"unbudgeted": None, "budgeted": Budget(ms=60_000.0)}
    times: dict[str, list[float]] = {arm: [] for arm in arms}
    for arm, budget in arms.items():
        plan.run(samples[:1], budget=budget)  # warm the arenas
    for _ in range(TIMING_REPEATS):
        for arm, budget in arms.items():
            start = time.perf_counter()
            for i in range(len(samples)):
                result = plan.run(samples[i : i + 1], budget=budget)
                assert not getattr(result, "budget_exhausted", False)
            times[arm].append((time.perf_counter() - start) * 1e3 / len(samples))
    medians = {arm: float(np.median(t)) for arm, t in times.items()}
    return {
        "batch": 1,
        "budget": "Budget(ms=60000), never expires",
        "repeats": TIMING_REPEATS,
        **{
            f"{arm}_ms_per_sample": {
                "median": round(medians[arm], 4),
                "min": round(min(t), 4),
                "max": round(max(t), 4),
            }
            for arm, t in times.items()
        },
        "ratio": round(medians["budgeted"] / medians["unbudgeted"], 3),
    }


def measure_curve(system) -> dict:
    """Accuracy of the sealed anytime answer at each sampled step budget,
    from the engine and from a compiled plan."""
    from repro.coding.ttfs import TTFSCoding
    from repro.snn import Budget
    from repro.snn.engine import Simulator

    window = system.config.window
    x, y = system.x_eval, system.y_eval
    full = Simulator(system.network, TTFSCoding(window=window)).run(x, y)
    total_steps = full.steps
    plan = Simulator(system.network, TTFSCoding(window=window)).compile(
        batch_size=len(x)
    )
    budgets, accuracies, plan_accuracies, margins = [], [], [], []
    for k in budget_grid(total_steps):
        result = Simulator(system.network, TTFSCoding(window=window)).run(
            x, y, budget=Budget(max_steps=k)
        )
        assert result.steps_executed == min(k, total_steps)
        compiled = plan.run(x, y, budget=Budget(max_steps=k))
        budgets.append(k)
        accuracies.append(round(float(result.accuracy), 4))
        plan_accuracies.append(round(float(compiled.accuracy), 4))
        margins.append(round(float(np.median(result.margins)), 4))
    return {
        "dataset": system.config.name,
        "scheme": f"ttfs(window={window})",
        "scale": os.environ.get("REPRO_SCALE", "ci"),
        "n_eval": int(len(x)),
        "total_steps": int(total_steps),
        "full_accuracy": round(float(full.accuracy), 4),
        "budget_steps": budgets,
        "accuracy": accuracies,
        "compiled_accuracy": plan_accuracies,
        "median_margin": margins,
        "compiled_budget_overhead": measure_budget_overhead(system),
    }


def check_payload(payload: dict) -> None:
    """The smoke gates: anytime answers must only get better with budget."""
    acc = np.array(payload["accuracy"], dtype=float)
    print(f"\n[anytime] {payload['dataset']} {payload['scheme']} "
          f"n={payload['n_eval']} steps={payload['total_steps']}")
    for k, a, m in zip(
        payload["budget_steps"], payload["accuracy"], payload["median_margin"]
    ):
        print(f"  k={k:>4}: acc={a * 100:5.1f}%  median margin={m:.3f}")
    running_max = np.maximum.accumulate(acc)
    worst_dip = float((running_max - acc).max())
    assert worst_dip <= MONOTONE_TOL, (
        f"anytime curve regressed {worst_dip:.3f} below its running peak "
        f"(tolerance {MONOTONE_TOL}); truncated seals are losing evidence"
    )
    # The full budget must recover the unbudgeted run's accuracy exactly.
    assert acc[-1] == pytest.approx(payload["full_accuracy"], abs=1e-9)
    # And the budget must matter: the curve ends above its floor (the
    # class-prior answer at near-zero evidence) on any trained system.
    assert acc[-1] >= acc[0]
    # A truncated compiled run cuts its drains back to the engine's answer.
    assert payload["compiled_accuracy"] == payload["accuracy"], (
        "compiled plan's anytime curve differs from the engine's: "
        f"{payload['compiled_accuracy']} vs {payload['accuracy']}"
    )
    overhead = payload["compiled_budget_overhead"]
    print(
        f"  compiled, batch 1: "
        f"{overhead['unbudgeted_ms_per_sample']['median']:.3f} ms/sample "
        f"unbudgeted, {overhead['budgeted_ms_per_sample']['median']:.3f} with "
        f"a never-expiring ms budget (ratio {overhead['ratio']})"
    )
    assert overhead["ratio"] <= MAX_BUDGET_RATIO, (
        f"a non-binding wall-clock budget slows the compiled plan "
        f"{overhead['ratio']}x (limit {MAX_BUDGET_RATIO}x); budgeted runs "
        f"have lost the bulk drains"
    )


def write_payload(payload: dict) -> None:
    merged = {}
    if RESULT_PATH.exists():
        merged = json.loads(RESULT_PATH.read_text())
    merged["anytime"] = payload
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")


@pytest.mark.benchmark(group="anytime")
def test_anytime_accuracy_curve(mnist_system):
    payload = measure_curve(mnist_system)
    check_payload(payload)
    write_payload(payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("ci", "paper"), default=None)
    parser.add_argument(
        "--no-write", action="store_true", help="skip writing BENCH_engine.json"
    )
    args = parser.parse_args()
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = args.scale
    from repro.analysis.experiments import get_config, prepare_system

    payload = measure_curve(prepare_system(get_config("mnist")))
    check_payload(payload)
    if not args.no_write:
        write_payload(payload)
        print(f"\nwrote {RESULT_PATH}")
    else:
        print("\n(dry run)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    main()
