"""Multiprocess sharded inference: the throughput runtime's outer layer.

Python's GIL caps a single simulator process at one core, so the road to
"as fast as the hardware allows" on multi-core CPUs is process-level data
parallelism.  :meth:`WorkerPool.run`, the one shard runner, splits a
batch into mini-batch shards, runs each through a per-worker
:class:`~repro.snn.engine.Simulator` (network and scheme pickled once per
worker by the pool initializer), and merges the
:class:`~repro.snn.results.SimulationResult` shards exactly like
``Simulator.run_batched`` — identical scores, predictions and
per-inference spike counts, in the original sample order.
:func:`run_parallel` builds a pool per call; the service
(:mod:`repro.serve.service`) keeps one across flushes.  Stochastic
schemes (Poisson input) cannot reproduce the serial run's draws; they
ship one scheme instance per shard (``CodingScheme.shard_instance``) so
every shard draws an *independent* stream instead of workers replaying
identical noise.

Degradation is graceful by construction: ``workers=1`` (or a test set that
fits one mini-batch) never touches multiprocessing, ``workers="auto"``
resolves to ``min(os.cpu_count(), shards)`` and stays serial on single-core
hosts (where a pool is pure overhead), and pool failures are *supervised*
(docs/DESIGN.md §13): a broken pool is rebuilt with bounded exponential
backoff and only the unfinished shards are re-dispatched
(:class:`~repro.reliability.supervisor.SupervisedPool`), falling back to
the serial path — logged on the ``repro.reliability`` logger, warned once
per process — only when the retry budget is exhausted.

Monitors are a per-process observer protocol and cannot be merged across
address spaces, so parallel runs reject simulators with attached monitors —
attach monitors to a serial run instead.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import repro.reliability.faults as faults
from repro.reliability.errors import PoolUnavailable
from repro.reliability.log import note_serial_fallback
from repro.reliability.supervisor import RetryPolicy, SupervisedPool
from repro.snn.budget import Budget
from repro.snn.results import AnytimeResult, SimulationResult

__all__ = [
    "run_parallel",
    "merge_results",
    "resolve_workers",
    "num_shards",
    "worker_payload",
    "WorkerPool",
]


def num_shards(n: int, batch_size: int) -> int:
    """Number of contiguous mini-batch shards covering ``n`` samples.

    The shared home of the shard-count ceil division: the parallel runner
    and the runtime's backend selection both size their shard plans with
    it.
    """
    if isinstance(batch_size, bool) or batch_size < 1:
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")
    return max(1, -(-int(n) // int(batch_size)))


def resolve_workers(workers: int | str, num_shards: int) -> int:
    """Resolve a worker count, including the ``"auto"`` policy.

    ``"auto"`` resolves to ``min(os.cpu_count(), num_shards)`` and to ``1``
    (the serial path) when only one core is available — a pool on a
    single-core box adds fork/pickle overhead without any parallelism, a
    measured slowdown (``BENCH_engine.json``'s parallel-below-serial rows),
    so it can no longer happen by default.
    """
    if workers == "auto":
        cpus = os.cpu_count() or 1
        return max(1, min(cpus, num_shards))
    if isinstance(workers, bool):
        # bool is an int subclass, so workers=True would silently run as
        # workers=1; almost certainly a call-site bug — reject it loudly.
        raise ValueError(
            f'workers must be an int >= 1 or "auto", got the bool {workers!r}'
        )
    if not isinstance(workers, int):
        raise ValueError(f'workers must be an int or "auto", got {workers!r}')
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers

#: Per-process simulator, built once by the pool initializer so each shard
#: submission only pickles its input arrays, not the network.  The compiled
#: entries make each worker compile (and cache) its own ExecutionPlan — a
#: plan's workspace arenas are process-local and cannot cross a fork/spawn
#: boundary, so "compiled parallel runs" means per-worker compilation.
_WORKER_SIM = None
_WORKER_COMPILED = (False, 64, True)


def worker_payload(
    sim, compiled: bool = False, plan_batch: int = 64, calibrate: bool = True
) -> bytes:
    """Pickle a simulator's replication recipe for :func:`_init_worker`.

    One payload is shipped per pool (via the initializer), not per shard,
    so a *persistent* :class:`WorkerPool` (the serving layer's) reuses it
    across micro-batch flushes.  ``sim._steps_arg``
    travels with the recipe, so a steps override must be baked into ``sim``
    before building the payload; ``calibrate`` controls the workers' plan
    compilation when ``compiled`` is set.  The active fault plan (if one
    is installed, :mod:`repro.reliability.faults`) rides along so worker
    processes consult the same cross-process fault budget as the parent —
    under any start method, not just fork.
    """
    return pickle.dumps(
        (
            sim.network,
            sim.scheme,
            sim._steps_arg,
            sim.event_driven,
            sim.density_threshold,
            sim.early_exit,
            bool(compiled),
            int(plan_batch),
            bool(calibrate),
            faults.active(),
        )
    )


def _init_worker(payload: bytes) -> None:
    from repro.snn.engine import Simulator

    global _WORKER_SIM, _WORKER_COMPILED
    (
        network,
        scheme,
        steps,
        event_driven,
        density_threshold,
        early_exit,
        compiled,
        plan_batch,
        calibrate,
        fault_plan,
    ) = pickle.loads(payload)
    faults.adopt(fault_plan)
    _WORKER_COMPILED = (compiled, plan_batch, calibrate)
    _WORKER_SIM = Simulator(
        network,
        scheme,
        steps=steps,
        event_driven=event_driven,
        density_threshold=density_threshold,
        early_exit=early_exit,
    )


def _run_shard(shard) -> SimulationResult:
    # Fault points (DESIGN.md §13): a crash here surfaces in the parent as
    # BrokenProcessPool (supervised: pool rebuilt, shard re-dispatched); an
    # injected kernel exception is a workload error and propagates verbatim.
    faults.check(faults.WORKER_CRASH)
    faults.check(faults.KERNEL_EXCEPTION)
    # Shards are (scheme, x, y, budget_ms): a budgeted shard's wall-clock
    # countdown starts in the worker (docs/DESIGN.md §14), bounding the
    # execution itself rather than the queue time.
    scheme, xb, yb, budget_ms = shard
    budget = None if budget_ms is None else Budget(ms=float(budget_ms))
    compiled, plan_batch, calibrate = _WORKER_COMPILED
    # Stochastic schemes ship one instance per shard (independent random
    # streams); rebind against the worker's cached network.
    sim = _WORKER_SIM if scheme is None else _WORKER_SIM._replica(scheme)
    if compiled:
        # The worker's plan compiles once (cached on its simulator) and is
        # reused by every shard this process executes.  A fresh scheme
        # instance per shard cannot reuse a cached plan: it skips the
        # calibration probe (the expensive part) and keeps the uncalibrated
        # plan's bit-exact reference decisions.
        calibrate = calibrate and scheme is None
        return sim.run_compiled(
            xb, yb, batch_size=plan_batch, calibrate=calibrate, budget=budget
        )
    return sim.run(xb, yb, budget=budget)


class WorkerPool(SupervisedPool):
    """A supervised pool of worker processes, each replicating one simulator.

    ``sim`` and the plan options ship once per worker through the pool
    initializer (:func:`worker_payload`); :meth:`run` maps shards of
    ``plan_batch`` samples over the workers.  ``prefer`` lists start methods in order of
    preference; an explicit ``start_method`` overrides it.  ``retry`` and
    ``on_rebuild`` configure the supervisor.
    """

    def __init__(
        self,
        sim,
        workers: int,
        compiled: bool = False,
        plan_batch: int = 64,
        calibrate: bool = True,
        start_method: str | None = None,
        prefer: tuple[str, ...] = ("fork",),
        retry: RetryPolicy | None = None,
        on_rebuild=None,
    ):
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = next((m for m in prefer if m in methods), methods[0])
        self.workers = int(workers)
        self.plan_batch = int(plan_batch)
        self._scheme = sim.scheme
        self._decision_time = sim.bound.decision_time
        self._context = multiprocessing.get_context(start_method)
        self._payload = worker_payload(sim, compiled, plan_batch, calibrate)
        super().__init__(self._make_pool, policy=retry, on_rebuild=on_rebuild)

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_init_worker,
            initargs=(self._payload,),
        )

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        budget_ms: float | None = None,
    ) -> SimulationResult:
        """Run ``x`` as contiguous ``plan_batch`` shards over the workers.

        Supervised (DESIGN.md §13): a crash re-dispatches only unfinished
        shards, workload exceptions re-raise verbatim, and
        :class:`PoolUnavailable` escapes once the retry budget is spent.
        ``budget_ms`` bounds each shard's window (shards run concurrently)
        and makes the result an :class:`~repro.snn.results.AnytimeResult`,
        exhausted when any shard's window was truncated.
        """
        stochastic = getattr(self._scheme, "stochastic", False)
        shards, sizes = [], []
        for index, start in enumerate(range(0, len(x), self.plan_batch)):
            xb = x[start : start + self.plan_batch]
            yb = y[start : start + self.plan_batch] if y is not None else None
            scheme = self._scheme.shard_instance(index) if stochastic else None
            shards.append((scheme, xb, yb, budget_ms))
            sizes.append(len(xb))
        results = self.map(_run_shard, shards)
        merged = merge_results(results, sizes, y, self._decision_time)
        if budget_ms is None:
            return merged
        return AnytimeResult.from_result(
            merged, any(r.budget_exhausted for r in results)
        )


def merge_results(
    shards: list[SimulationResult],
    sizes: list[int],
    y: np.ndarray | None,
    decision_time: int,
) -> SimulationResult:
    """Merge per-shard results into one, weighting spike counts by shard size.

    Scores are concatenated in shard order (the sharding is contiguous, so
    this is the original sample order); ``steps`` is the slowest shard's
    executed step count.
    """
    scores = np.concatenate([r.scores for r in shards], axis=0)
    predictions = scores.argmax(axis=1)
    accuracy = float((predictions == y).mean()) if y is not None else None
    total = sum(sizes)
    merged_counts: dict[str, float] = {}
    for res, size in zip(shards, sizes):
        for name, value in res.spike_counts.items():
            merged_counts[name] = merged_counts.get(name, 0.0) + value * size
    per_inference = {name: c / total for name, c in merged_counts.items()}
    return SimulationResult(
        scores=scores,
        predictions=predictions,
        accuracy=accuracy,
        spike_counts=per_inference,
        total_spikes=float(sum(per_inference.values())),
        steps=max(r.steps for r in shards),
        decision_time=decision_time,
    )


def run_parallel(
    sim,
    x: np.ndarray,
    y: np.ndarray | None = None,
    workers: int | str = 2,
    batch_size: int = 64,
    start_method: str | None = None,
    compiled: bool = False,
    calibrate: bool = True,
) -> SimulationResult:
    """Run ``sim`` over ``x`` with mini-batches sharded across processes.

    Parameters
    ----------
    sim:
        A :class:`~repro.snn.engine.Simulator`.  Its network, scheme and
        engine options are replicated into each worker; monitors are not
        supported with ``workers > 1``.
    x, y:
        Test set (and optional labels), exactly as for ``run_batched``.
    workers:
        Worker process count.  ``1`` runs the serial ``run_batched`` path
        in this process — no multiprocessing machinery at all.  ``"auto"``
        resolves to ``min(os.cpu_count(), shards)`` (see
        :func:`resolve_workers`), staying serial on single-core hosts.
    batch_size:
        Mini-batch (shard) size; also the serial fallback's batch size.
    start_method:
        Multiprocessing start method (``"fork"``/``"spawn"``/
        ``"forkserver"``); default prefers fork where available (cheapest,
        and the network is shipped via the pool initializer anyway).
    compiled:
        Run each worker's shards through a compiled
        :class:`~repro.snn.plan.ExecutionPlan`.  Plans hold process-local
        workspace arenas and cannot cross the process boundary, so each
        worker compiles its own plan once (cached on the worker simulator)
        and reuses it for every shard; stochastic schemes, which ship one
        scheme instance per shard, get uncalibrated per-shard plans instead
        (no probe-run cost, reference kernel decisions).  The serial
        fallback path honours ``compiled`` via ``Simulator.run_compiled``.
    calibrate:
        Whether compiled plans run the calibration pass — in the workers
        and on the serial path alike.
    """
    from repro.snn.engine import _check_inputs

    _check_inputs(x, y)
    shards_needed = num_shards(len(x), batch_size)
    workers = resolve_workers(workers, shards_needed)
    if workers > 1 and sim.monitors:
        raise ValueError(
            "monitors observe per-step state inside one process and cannot be "
            "merged across workers; run serially (workers=1) to attach monitors"
        )

    def serial() -> SimulationResult:
        if compiled:
            return sim.run_compiled(x, y, batch_size=batch_size, calibrate=calibrate)
        return sim.run_batched(x, y, batch_size=batch_size)

    if workers == 1 or len(x) <= batch_size:
        return serial()
    # Only an exhausted retry budget reaches the serial fallback.
    with WorkerPool(
        sim,
        min(workers, shards_needed),
        compiled=compiled,
        plan_batch=batch_size,
        calibrate=calibrate,
        start_method=start_method,
    ) as pool:
        try:
            return pool.run(x, y)
        except PoolUnavailable as exc:
            note_serial_fallback("repro.snn.parallel.run_parallel", exc)
    return serial()
