"""Unified execution API: RunConfig + Backend registry + per-model Runtime.

One extensible seam for every way inference executes (docs/DESIGN.md §12):

* :class:`~repro.runtime.config.RunConfig` — a validated, immutable
  description of one run (batch size, workers, compiled, steps,
  monitors, dtype, deadline and compute budget), and the one table
  of legal combinations, rejecting illegal ones eagerly;
* :class:`~repro.runtime.backends.Backend` — the execution protocol, with
  a string-keyed registry (``"serial"``, ``"compiled"``, ``"parallel"``,
  ``"service"``) open to third-party registration, mirroring
  :mod:`repro.coding.registry`; a compute budget is an option the
  ``serial`` and ``compiled`` backends run under, not a backend;
* :class:`~repro.runtime.runtime.Runtime` — per-model state: compiled
  simulator/plan caching, coding keys, dtype variants, backend instances
  and lifecycle (``close()`` / context manager).

Entry points: ``T2FSNN.run(x, y, config=RunConfig(...))``,
``T2FSNN.serve(config=...)``, or ``model.runtime`` directly.
"""

from repro.runtime.backends import (
    BACKEND_FACTORIES,
    Backend,
    CompiledBackend,
    ParallelBackend,
    SerialBackend,
    ServiceBackend,
    available_backends,
    make_backend,
    register_backend,
    select_backend,
)
from repro.runtime.config import DEFAULT_BATCH_SIZE, RunConfig
from repro.runtime.runtime import Runtime

__all__ = [
    "RunConfig",
    "DEFAULT_BATCH_SIZE",
    "Runtime",
    "Backend",
    "BACKEND_FACTORIES",
    "register_backend",
    "make_backend",
    "available_backends",
    "select_backend",
    "SerialBackend",
    "CompiledBackend",
    "ParallelBackend",
    "ServiceBackend",
]
