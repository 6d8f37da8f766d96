"""Execution backends: a protocol plus a string-keyed registry.

A :class:`Backend` turns ``(runtime, config, x, y)`` into a
:class:`~repro.snn.results.SimulationResult`.  The four built-ins cover
every execution seam grown so far:

* ``"serial"`` — the reference engine (``Simulator.run`` /
  ``run_batched``), the only backend that attaches monitors per step;
* ``"compiled"`` — cached compiled execution plans: the reference
  engine's kernel decisions on workspace arenas (DESIGN.md §10);
* ``"parallel"`` — multiprocess mini-batch sharding
  (:func:`repro.snn.parallel.run_parallel`), composing with ``compiled``
  via per-worker plans;
* ``"service"`` — the online micro-batching service (DESIGN.md §11); its
  :meth:`ServiceBackend.open` backs ``T2FSNN.serve()``, and its
  ``execute`` routes a batch through a transient service (the parity
  tests lean on this to pin request-path results to the batch engine's).

A compute budget is an option of a run, not a backend: ``serial`` and
``compiled`` turn ``config.budget_ms`` / ``config.min_confidence`` into a
:class:`~repro.snn.budget.Budget` and return an
:class:`~repro.snn.results.AnytimeResult` (DESIGN.md §14).

The registry mirrors :mod:`repro.coding.registry`: third parties register
a factory under a new name (:func:`register_backend`) and select it with
``RunConfig(backend="their-name")`` — streaming, priority or
latency-budgeted runtimes plug in here without touching ``T2FSNN``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.runtime.config import RunConfig
from repro.snn.budget import Budget
from repro.snn.results import SimulationResult

if TYPE_CHECKING:
    from repro.runtime.runtime import Runtime
    from repro.serve.service import InferenceService

__all__ = [
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


@runtime_checkable
class Backend(Protocol):
    """What an execution backend must provide.

    ``execute`` runs one batch under a :class:`RunConfig` using the
    owning :class:`~repro.runtime.runtime.Runtime`'s simulator/plan caches;
    ``close`` releases whatever the backend holds (pools, services) — the
    runtime calls it from its own ``close()``.
    """

    name: str

    def execute(
        self,
        runtime: Runtime,
        config: RunConfig,
        x: np.ndarray,
        y: np.ndarray | None = None,
    ) -> SimulationResult: ...

    def close(self) -> None: ...


BACKEND_FACTORIES: dict[str, Callable[..., Backend]] = {}


def register_backend(
    name: str, factory: Callable[..., Backend], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory()`` must return an object satisfying :class:`Backend`.
    Registering an existing name raises unless ``overwrite=True`` (so a
    typo cannot silently shadow a built-in).
    """
    if not overwrite and name in BACKEND_FACTORIES:
        raise ValueError(
            f"backend {name!r} is already registered; pass overwrite=True "
            "to replace it"
        )
    BACKEND_FACTORIES[name] = factory


def make_backend(name: str, **kwargs: Any) -> Backend:
    """Instantiate a backend by name.

    >>> make_backend("serial").name
    'serial'
    """
    if name not in BACKEND_FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {available_backends()}"
        )
    return BACKEND_FACTORIES[name](**kwargs)


def available_backends() -> list[str]:
    """Sorted backend names."""
    return sorted(BACKEND_FACTORIES)


def select_backend(config: RunConfig, num_samples: int) -> str:
    """The backend name a config resolves to for ``num_samples`` inputs.

    An explicit ``config.backend`` wins.  Otherwise: a parallel request
    that actually resolves to more than one worker (``"auto"`` stays
    serial on single-core hosts, one shard never pools) picks
    ``"parallel"``; ``compiled=True`` picks ``"compiled"``; everything
    else is ``"serial"``.
    """
    if config.backend is not None:
        return config.backend
    if config.parallel_requested:
        from repro.snn.parallel import num_shards, resolve_workers

        shards = num_shards(num_samples, config.resolved_batch_size)
        if resolve_workers(config.workers, shards) > 1:
            return "parallel"
    if config.compiled:
        return "compiled"
    return "serial"


def _budget(config: RunConfig) -> Budget | None:
    """The :class:`~repro.snn.budget.Budget` a config's budget fields ask
    for, or ``None`` for an unbounded run."""
    if config.budget_ms is None and config.min_confidence is None:
        return None
    return Budget(ms=config.budget_ms, min_confidence=config.min_confidence)


class SerialBackend:
    """The reference engine: ``Simulator.run`` / ``run_batched``."""

    name = "serial"

    def execute(
        self,
        runtime: Runtime,
        config: RunConfig,
        x: np.ndarray,
        y: np.ndarray | None = None,
    ) -> SimulationResult:
        sim = runtime.simulator(
            monitors=config.monitors, steps=config.steps, dtype=config.dtype
        )
        budget = _budget(config)
        if config.batch_size is None:
            return sim.run(x, y, budget=budget)
        return sim.run_batched(x, y, batch_size=config.batch_size, budget=budget)

    def close(self) -> None:
        pass


class CompiledBackend:
    """Cached compiled execution plans (DESIGN.md §10).

    Monitor-free runs reuse the runtime's cached compiled simulator —
    constructed lazily, so a cache hit builds nothing — keyed by the
    model's coding configuration; plans themselves cache on the simulator
    per ``(batch, steps)``.  Runs with monitors get a fresh
    simulator (monitors bind per-run state that must not leak across
    calls).
    """

    name = "compiled"

    def execute(
        self,
        runtime: Runtime,
        config: RunConfig,
        x: np.ndarray,
        y: np.ndarray | None = None,
    ) -> SimulationResult:
        if config.monitors:
            sim = runtime.simulator(
                monitors=config.monitors, steps=config.steps, dtype=config.dtype
            )
        else:
            sim = runtime.compiled_simulator(steps=config.steps, dtype=config.dtype)
        return sim.run_compiled(
            x,
            y,
            batch_size=config.resolved_batch_size,
            budget=_budget(config),
        )

    def close(self) -> None:
        pass


class ParallelBackend:
    """Multiprocess mini-batch sharding (:mod:`repro.snn.parallel`).

    ``config.compiled`` composes: every worker compiles (and caches) its
    own plan.  Degrades gracefully — an unpoolable host falls back to the
    serial path inside ``run_parallel`` with a warning.
    """

    name = "parallel"

    def execute(
        self,
        runtime: Runtime,
        config: RunConfig,
        x: np.ndarray,
        y: np.ndarray | None = None,
    ) -> SimulationResult:
        sim = runtime.simulator(steps=config.steps, dtype=config.dtype)
        return sim.run_parallel(
            x,
            y,
            workers=config.workers,
            batch_size=config.resolved_batch_size,
            compiled=config.compiled,
        )

    def close(self) -> None:
        pass


class ServiceBackend:
    """The online inference service as a backend (DESIGN.md §11).

    :meth:`open` builds a persistent
    :class:`~repro.serve.service.InferenceService` — what ``T2FSNN.serve``
    returns.  :meth:`execute` routes a batch through a transient service
    (submit every row, gather, close): slower than the batch engine, but
    it exercises the full request path, which is exactly what the
    cross-backend parity tests need.  Spike counts are not tracked at
    request granularity, so the result's ``spike_counts`` is empty and
    ``total_spikes`` is NaN.
    """

    name = "service"

    def open(
        self, runtime: Runtime, config: RunConfig, **service_kwargs: Any
    ) -> InferenceService:
        """A persistent :class:`InferenceService` for ``runtime``'s model.

        ``service_kwargs`` pass through untouched, so every service knob
        — including the network-edge ones (``adaptive_wait``,
        ``wait_ceiling_ms``, ``max_pending``; DESIGN.md §16) — is
        reachable from ``T2FSNN.serve()`` / ``Runtime.serve()``.
        Per-request ``priority`` is a ``submit()``-time argument, not a
        construction knob.
        """
        from repro.serve.service import InferenceService

        if config.deadline_ms is not None:
            service_kwargs.setdefault("default_deadline_ms", config.deadline_ms)
        if config.budget_ms is not None:
            service_kwargs.setdefault("budget_ms", config.budget_ms)
        return InferenceService(
            runtime.model,
            workers=config.workers,
            steps=config.steps,
            **service_kwargs,
        )

    def execute(self, runtime, config, x, y=None) -> SimulationResult:
        from repro.snn.engine import _check_inputs

        _check_inputs(x, y)
        capacity = min(config.resolved_batch_size, max(1, len(x)))
        with self.open(runtime, config, max_batch=capacity, cache_size=0) as service:
            results = service.predict_many(x, timeout=600.0)
        scores = np.stack([r.scores for r in results])
        predictions = scores.argmax(axis=1)
        accuracy = float((predictions == y).mean()) if y is not None else None
        decision_time = int(getattr(runtime.model, "decision_time", 0))
        return SimulationResult(
            scores=scores,
            predictions=predictions,
            accuracy=accuracy,
            spike_counts={},
            total_spikes=float("nan"),
            steps=decision_time,
            decision_time=decision_time,
        )

    def close(self) -> None:
        pass


register_backend("serial", SerialBackend)
register_backend("compiled", CompiledBackend)
register_backend("parallel", ParallelBackend)
register_backend("service", ServiceBackend)
