"""The system under test: pinned environment, fixed network, seeded inputs.

Every workload serves the converted ``vgg7(width=0.25)`` on 3x32x32
inputs under TTFS coding with ``window=32``.  The network weights and the
conversion's normalisation data are fixed; only the inputs, the repeat
choices and the arrival schedules come from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

#: BLAS thread pools pinned before numpy loads (OpenBLAS defaults to one
#: thread per core, and its second thread fights the service's own
#: threads on a two-core box).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

WIDTH = 0.25
WINDOW = 32
INPUT_SHAPE = (3, 32, 32)
NUM_CLASSES = 10
WEIGHT_SEED = 7
CONVERSION_SEED = 0
CONVERSION_SAMPLES = 64

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"

__all__ = [
    "pin_blas",
    "environment",
    "build_network",
    "build_model",
    "inputs",
    "reference",
    "code_id",
    "neurons_per_inference",
    "record_thresholds",
]


def pin_blas() -> dict:
    """Pin BLAS threads (call before numpy is imported); returns prior values."""
    prior = {var: os.environ.get(var) for var in BLAS_ENV}
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    return prior


def environment(seed: int, prior_blas: dict) -> dict:
    """What a result depends on besides the code: threads, cores, versions."""
    import numpy as np
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads_before_pinning": prior_blas,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def build_network():
    """Convert the fixed ``vgg7`` (same weights and normalisation every time)."""
    import numpy as np

    from repro.convert.converter import convert_to_snn
    from repro.nn.architectures import vgg7

    dnn = vgg7(
        input_shape=INPUT_SHAPE, num_classes=NUM_CLASSES, width=WIDTH, rng=WEIGHT_SEED
    )
    calib = np.random.default_rng(CONVERSION_SEED).random(
        (CONVERSION_SAMPLES, *INPUT_SHAPE)
    )
    return convert_to_snn(dnn, calib)


def build_model(network, early_firing: bool):
    from repro.core.t2fsnn import T2FSNN

    return T2FSNN(network, window=WINDOW, early_firing=early_firing)


def inputs(rng, count: int):
    """``count`` unit-range images from the workload's generator."""
    return rng.random((count, *INPUT_SHAPE))


def reference(network, early_firing: bool, xs, batch: int):
    """Predictions and per-batch spike counts from the uncompiled engine.

    Runs :class:`~repro.snn.engine.Simulator` — the reference
    implementation the compiled plans must match — once per ``batch``
    rows, so the counts compare exactly with compiled runs of the same
    rows.
    """
    import numpy as np

    from repro.snn.engine import Simulator

    sim = Simulator(network, build_model(network, early_firing).coding())
    predictions, counts = [], []
    for start in range(0, len(xs), batch):
        result = sim.run(xs[start : start + batch])
        predictions.append(result.predictions)
        counts.append(dict(result.spike_counts))
    return np.concatenate(predictions), counts


def neurons_per_inference(network, counted) -> int:
    """Neurons behind the spike-count keys ``counted`` (input pixels + stages)."""
    import numpy as np

    sizes = {"input": int(np.prod(network.input_shape))}
    for stage in network.stages:
        sizes[stage.name] = int(np.prod(stage.out_shape))
    return sum(sizes[name] for name in counted)


def code_id() -> str:
    """Fingerprint of the program's sources (the checkout is not a git repo)."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record_thresholds(workload: str, seed: int, plans: list[dict]) -> dict:
    """Log this run's calibrated thresholds; flag differing operator choices.

    ``plans`` holds one ``{"capacity", "thresholds"}`` record per compiled
    plan.  Appends one line per run to ``out/thresholds.jsonl`` and
    compares, capacity by capacity, the run's plans with each other
    (``differs_in_run``) and with every earlier run of the same code and
    workload (``differs_across_runs``).
    """
    OUT_DIR.mkdir(exist_ok=True)
    log = OUT_DIR / "thresholds.jsonl"
    code = code_id()

    def choices(records) -> set:
        return {(r["capacity"], tuple(r["thresholds"])) for r in records}

    def capacities_split(pairs) -> bool:
        caps = [cap for cap, _ in pairs]
        return len(caps) != len(set(caps))

    mine = choices(plans)
    seen: set = set()
    if log.exists():
        for line in log.read_text().splitlines():
            row = json.loads(line)
            if row["code"] == code and row["workload"] == workload:
                seen |= choices(row["plans"])
    with log.open("a", encoding="utf-8") as fh:
        row = {"code": code, "workload": workload, "seed": seed, "plans": plans}
        fh.write(json.dumps(row) + "\n")
    return {
        "code": code,
        "differs_in_run": capacities_split(mine),
        "differs_across_runs": capacities_split(seen | mine),
        "runs_logged_before": bool(seen),
    }
