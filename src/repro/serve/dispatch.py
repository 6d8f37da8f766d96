"""Micro-batch dispatchers: in-process plans or a supervised worker pool.

The service's dispatch thread executes flushed micro-batches.  Two modes
(docs/DESIGN.md §11, §13):

* **Serial** (the default): the micro-batch runs through a compiled
  :class:`~repro.snn.plan.ExecutionPlan` in the dispatch thread itself —
  zero IPC, arena reuse across flushes, the latency-optimal choice on
  small boxes.
* **Sharded** (``workers > 1``): flushes are split into shards and mapped
  over a *persistent* :class:`~repro.snn.parallel.WorkerPool` — the same
  pool wrapper ``run_parallel`` uses (pickled-payload initializer,
  per-shard runner, per-worker compiled plans).  Unlike ``run_parallel``
  — which builds and tears down a pool per call — the pool here outlives
  individual flushes, so pool startup is paid once per service, not once
  per request burst.

The pool is **supervised** (:class:`~repro.reliability.supervisor
.SupervisedPool`): a worker crash mid-flush rebuilds the pool with
bounded exponential backoff and re-dispatches only the unfinished shards
— shard results are pure functions of their payload, so the reassembled
flush is bit-identical to an unfaulted one.  Only an exhausted retry
budget raises :class:`~repro.reliability.errors.PoolUnavailable`; the
service's circuit breaker decides what happens next (serial fallback now,
half-open probe later) instead of the old *permanent* serial degradation.
"""

from __future__ import annotations

import numpy as np

from repro.reliability.errors import PoolUnavailable
from repro.reliability.supervisor import RetryPolicy
from repro.snn.parallel import WorkerPool, _run_shard

__all__ = ["PoolUnavailable", "ShardedDispatcher"]


class ShardedDispatcher(WorkerPool):
    """Run micro-batches over a supervised, persistent worker pool.

    A :class:`~repro.snn.parallel.WorkerPool` that splits each micro-batch
    into contiguous shards of ``shard_size`` samples — also the capacity
    each worker compiles its plan for, so each process keeps exactly one
    plan.  ``workers`` must be ``> 1``.  Unlike ``run_parallel`` (whose
    callers are single-threaded, making fork cheap and safe), the service
    is multithreaded when the pool spawns — forking a multithreaded
    process can deadlock children on inherited locks — so the default
    ``start_method`` prefers ``forkserver``, then ``spawn``.
    ``close(force=True)`` is the flush watchdog's recovery path.
    """

    def __init__(
        self,
        sim,
        workers: int,
        shard_size: int,
        compiled: bool = True,
        calibrate: bool = True,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
        on_rebuild=None,
    ):
        if workers < 2:
            raise ValueError(f"ShardedDispatcher needs workers >= 2, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        super().__init__(
            sim,
            workers,
            compiled=compiled,
            plan_batch=shard_size,
            calibrate=calibrate,
            start_method=start_method,
            prefer=("forkserver", "spawn", "fork"),
            retry=retry,
            on_rebuild=on_rebuild,
        )
        self.shard_size = int(shard_size)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute one micro-batch; returns the stacked score matrix.

        Shards are contiguous, so concatenating shard scores preserves the
        submission order (the same invariant ``merge_results`` relies on).
        A mid-flush worker crash is absorbed here — rebuild, re-dispatch,
        same scores; :class:`PoolUnavailable` escapes only when the
        supervisor's retry budget is spent.
        """
        return self.run_budgeted(x, None)[0]

    def run_budgeted(self, x: np.ndarray, budget_ms: float | None):
        """Execute one micro-batch under a per-shard compute budget.

        Each shard carries ``budget_ms`` in its payload and runs as an
        anytime window in its worker (shards execute concurrently, so the
        wall-clock budget applies to each, not to their sum).  Returns
        ``(scores, exhausted)`` where ``exhausted`` is True when *any*
        shard's window was truncated by the budget — the flush's rows are
        then partial answers (sealed early, never cached by the service).
        ``budget_ms=None`` runs unbudgeted.
        """
        results = self.map(
            _run_shard,
            [
                (None, x[start : start + self.shard_size], None, budget_ms)
                for start in range(0, len(x), self.shard_size)
            ],
        )
        scores = np.concatenate([r.scores for r in results], axis=0)
        return scores, any(getattr(r, "budget_exhausted", False) for r in results)
