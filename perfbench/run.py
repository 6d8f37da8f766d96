"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-baseline --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from a traced run and writes its spans to
``perfbench/out/``.  Detail lines (environment, operations per phase,
calibrated thresholds, per-rate results, profile) come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any operation failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import system  # noqa: E402 - needs the path above; imports no numpy

PRIOR_BLAS = system.pin_blas()

#: New interpreters a run starts (see :func:`_fresh_processes`).
FRESH_PROCESSES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["batch-baseline", "batch-early-firing", "serve-poisson", "http-closed"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: the run's fresh processes (see _fresh_processes).
    parser.add_argument("--probe", choices=["import", "memory"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _detail(label: str, payload) -> None:
    print(f"perfbench {label}: {json.dumps(payload, default=str)}")


def _fresh_processes(workload: str, seed: int, import_s: float) -> dict:
    """Import times of this process (``import_s``) and of
    :data:`FRESH_PROCESSES` new interpreters run one after another, and the
    first new one's :func:`~perfbench.workloads.footprint`.

    One process imports once, so the import part of ``setup_s`` is the
    median over several; the footprint needs a process that holds nothing
    but the program.
    """
    rows = [{"import_s": import_s}]
    for i in range(FRESH_PROCESSES):
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            *("--workload", workload, "--seed", str(seed), "--seconds", "1"),
            *("--probe", "memory" if i == 0 else "import"),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh process failed:\n{proc.stderr[-2000:]}")
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
    return {"import_s": [r["import_s"] for r in rows], "peak_rss_mb": rows[1]["peak_rss_mb"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import numpy  # noqa: F401 - part of the measured import time
    import repro.core.t2fsnn  # noqa: F401
    import repro.runtime  # noqa: F401
    import repro.serve.http  # noqa: F401
    import repro.snn.plan  # noqa: F401

    import_s = time.perf_counter() - t0

    from perfbench import workloads

    if args.probe is not None:
        row = {"import_s": import_s}
        if args.probe == "memory":
            row["peak_rss_mb"] = workloads.footprint(args.workload, args.seed)
        print(json.dumps(row))
        return 0

    trace = bool(args.trace)
    fresh = None if trace else _fresh_processes(args.workload, args.seed, import_s)
    out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, trace)
    values = workloads.finalize(out, trace, fresh)
    units = workloads.PER_LAYER_UNITS if trace else workloads.E2E_UNITS

    _detail("environment", system.environment(args.seed, PRIOR_BLAS))
    _detail("operations", out.ledger.phases)
    if out.ledger.errors:
        _detail("errors", out.ledger.errors)
    flags = system.record_thresholds(args.workload, args.seed, out.report["thresholds"])
    _detail("thresholds", {"plans": out.report.pop("thresholds"), **flags})
    if flags["differs_in_run"] or flags["differs_across_runs"]:
        _detail("warning", "calibration chose different operators for the same code")
    _detail("report", out.report)
    if out.tracer is not None:
        system.OUT_DIR.mkdir(exist_ok=True)
        path = system.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.tracer.dump(path)
        _detail("spans", str(path.relative_to(ROOT)))

    attempted = out.ledger.total("attempted")
    failed = out.ledger.total("failed")
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
