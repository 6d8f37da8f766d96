"""Supervised worker pools: rebuild on breakage, re-dispatch in-flight work.

Before this layer, a single worker crash was terminal: ``run_parallel``
abandoned the whole parallel run (serial fallback re-ran *everything*)
and the serving dispatcher degraded to serial for the rest of the
service's life.  :class:`SupervisedPool` fixes the mechanism layer:

* work is submitted per item (not ``pool.map``), so results that
  completed before a crash are **kept**;
* a broken pool (``BrokenProcessPool``/``OSError``) is discarded and
  rebuilt with **bounded exponential backoff** (:class:`RetryPolicy`),
  and only the still-unfinished items are re-dispatched;
* workload exceptions — anything that is not a pool-infrastructure
  error — propagate verbatim and are never retried (re-running a
  deterministic failure buys nothing and hides bugs);
* when the retry budget is exhausted, :class:`PoolUnavailable` is raised
  and the caller decides (serial fallback in ``run_parallel``, circuit
  breaker in the service).

Re-dispatch is safe because shards are pure functions of their payload:
deterministic schemes trivially, stochastic schemes because the per-shard
scheme instance (seeded by shard index) travels *in* the item.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

import repro.reliability.faults as faults
from repro.reliability.errors import PoolUnavailable
from repro.reliability.log import LOGGER

__all__ = ["RetryPolicy", "SupervisedPool", "DEFAULT_RETRY"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for pool rebuilds."""

    max_retries: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 1.0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_backoff_s < 0:
            raise ValueError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before rebuild ``attempt`` (0-based), capped."""
        return min(self.backoff_s * self.multiplier**attempt, self.max_backoff_s)


DEFAULT_RETRY = RetryPolicy()


class SupervisedPool:
    """Owns an executor built by ``factory`` and supervises mapped work.

    Parameters
    ----------
    factory:
        Zero-argument callable returning a fresh
        ``concurrent.futures.Executor``.  ``OSError``/``ValueError`` from
        the factory count as pool failures (retried with backoff).
    policy:
        Rebuild :class:`RetryPolicy`; ``None`` uses :data:`DEFAULT_RETRY`.
    on_rebuild:
        ``on_rebuild(attempt, exc)`` observer invoked before each rebuild
        (the service counts these into ``ServiceStats.pool_rebuilds``).
    sleep:
        Injectable ``time.sleep`` for deterministic tests.
    """

    def __init__(self, factory, policy: RetryPolicy | None = None, on_rebuild=None,
                 sleep=time.sleep):
        self._factory = factory
        self._policy = policy if policy is not None else DEFAULT_RETRY
        self._on_rebuild = on_rebuild
        self._sleep = sleep
        self._pool = None
        self.rebuilds = 0
        #: Permanently shut down (see :meth:`close`).  A closed supervisor
        #: refuses to build pools: the watchdog's force-kill of an
        #: abandoned pool must not be raced by a zombie flush thread
        #: quietly respawning workers through the old supervisor.
        self.closed = False

    def _ensure_pool(self):
        if self.closed:
            raise PoolUnavailable("supervised pool is closed")
        if self._pool is None:
            faults.check(faults.POOL_SPAWN)
            self._pool = self._factory()
        return self._pool

    def map(self, fn, items) -> list:
        """``[fn(item) for item in items]`` via the pool, supervised.

        Keeps results completed before a pool breakage, rebuilds the pool
        with bounded backoff, and re-dispatches only unfinished items.
        Raises :class:`PoolUnavailable` once the retry budget is spent;
        workload exceptions propagate immediately and verbatim.
        """
        items = list(items)
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        attempt = 0
        while True:
            failure: BaseException | None = None
            try:
                pool = self._ensure_pool()
            except (OSError, ValueError) as exc:
                failure = exc
            if failure is None:
                futures = [(i, pool.submit(fn, items[i])) for i in pending]
                still_pending = []
                for i, future in futures:
                    if failure is not None:
                        # The pool already broke; don't block on futures
                        # that can only raise the same breakage.
                        if not self._collect(future, results, i):
                            still_pending.append(i)
                        continue
                    try:
                        results[i] = future.result()
                    except (OSError, BrokenExecutor) as exc:
                        failure = exc
                        still_pending.append(i)
                pending = still_pending
                if failure is None:
                    return results
                self._discard_pool(force=True)  # the broken pool is unsalvageable
            if attempt >= self._policy.max_retries:
                raise PoolUnavailable(
                    f"worker pool failed after {attempt} rebuild "
                    f"attempt(s): {failure}"
                ) from failure
            delay = self._policy.delay(attempt)
            LOGGER.warning(
                "worker pool failed (%s); rebuilding in %.3fs "
                "(attempt %d/%d, %d item(s) to re-dispatch)",
                failure,
                delay,
                attempt + 1,
                self._policy.max_retries,
                len(pending),
            )
            if self._on_rebuild is not None:
                self._on_rebuild(attempt, failure)
            self._sleep(delay)
            attempt += 1
            self.rebuilds += 1

    @staticmethod
    def _collect(future, results: list, i: int) -> bool:
        """Harvest an already-finished future; True when a result landed."""
        if future.done():
            try:
                results[i] = future.result()
                return True
            except BaseException:
                return False
        future.cancel()
        return False

    def _discard_pool(self, force: bool = False) -> None:
        """Drop the current pool (a fresh one is built on next use).

        ``force=True`` (broken or abandoned pools) also kills the worker
        processes: a worker that died abruptly can corrupt the shared
        call queue, leaving its siblings blocked forever on ``get()`` —
        which wedges the executor's management thread (and, at
        interpreter exit, the whole process) joining them.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if force:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:  # pragma: no cover - already-reaped worker
                    pass
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self, force: bool = False) -> None:
        """Shut down permanently: discard the pool and refuse rebuilds.

        After ``close()``, :meth:`map` raises :class:`PoolUnavailable`
        instead of quietly spawning fresh workers — essential when the
        flush watchdog abandons a hung pool: the abandoned thread
        may still be inside :meth:`map`, and must not resurrect the pool
        the watchdog just force-killed.
        """
        self.closed = True
        self._discard_pool(force=force)

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
