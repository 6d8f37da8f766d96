"""Online inference service over compiled execution plans (DESIGN.md §11).

:class:`InferenceService` turns the batch engine into a request-serving
runtime: callers submit *single samples* from any thread and get a
:class:`~repro.serve.batcher.ServedFuture`; a
:class:`~repro.serve.batcher.MicroBatcher` coalesces submissions into
micro-batches (flush on ``max_batch`` or ``max_wait_ms``, whichever first)
that execute through a pool of pre-compiled
:class:`~repro.snn.plan.ExecutionPlan` s keyed by
``(coding_key, batch_capacity, steps)``.  A flush of ``n`` samples runs
at size ``n`` on the smallest compiled capacity ``>= n``, as leading views
of that plan's arenas — ``ExecutionPlan.run`` returns rows bit-identical
to ``Simulator.run`` at every size up to its capacity, so nothing is
padded.  A digest-keyed LRU :class:`~repro.serve.cache.ResultCache`
replays repeated inputs without touching the engine, and ``workers > 1``
shards flushes over a persistent :class:`~repro.snn.parallel.WorkerPool`
— the same shard runner ``run_parallel`` uses, built once per service.

The service tracks its source's coding configuration: serving a
:class:`~repro.core.t2fsnn.T2FSNN` whose kernels / early-firing mode /
network change between requests transparently compiles fresh plans under
the new coding key (stale plans and cache entries can never be replayed —
the key embeds the network identity token).  Model-backed services source
their simulators and coding keys from the model's
:class:`~repro.runtime.runtime.Runtime` — one cache, one invalidation
rule, shared with ``T2FSNN.run(config=RunConfig(compiled=True))``.

In-flight deduplication: identical samples submitted concurrently (same
bytes under the same coding key) coalesce onto the *first* request's
flush — followers never enter a micro-batch, they are resolved with a
private copy of the primary's scores the moment its flush lands
(``ServedResult.deduped``, counted in ``ServiceStats.dedup_hits``).

Reliability (docs/DESIGN.md §13): the worker pool is supervised
(crash → rebuild → re-dispatch), and pool attempts are gated
by a :class:`~repro.reliability.breaker.CircuitBreaker` — a flush whose
pool retries are exhausted serves serially and records a failure;
``failure_threshold`` consecutive failures trip the breaker open (all
flushes serial, no spawn latency paid), and after the cooldown one
half-open probe flush attempts the pool again, restoring parallel service
on success.  Requests carry optional deadlines
(``submit(deadline_ms=...)``), the pending queue can be bounded
(``max_pending`` → :class:`~repro.reliability.errors.QueueFull`), and
:meth:`InferenceService.health` reports the breaker state and drop
counters.

Deadline enforcement end to end (docs/DESIGN.md §14): ``deadline_ms``
bounds *queue* time (stale requests culled before compute);
``budget_ms`` bounds *execution*.  A budgeted flush runs on a dedicated
runner thread as an anytime window (the engine, or each pool shard,
gets a fraction of the tightest member budget), while the dispatch
thread doubles as a **flush watchdog**: a flush still executing past its full budget is abandoned —
members settle with :class:`DeadlineExceeded` within one flush deadline,
the abandoned runner is fenced off by a flush *epoch* (it can never
touch shared state again), and plans/pool are force-rebuilt so the next
flush starts clean.  Sustained overruns engage a degrade ladder that
halves the compute window (graceful degradation — partial anytime
answers, flagged ``ServedResult.partial`` and never cached) before
admission control starts rejecting outright.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

import repro.reliability.faults as faults
from repro.reliability.breaker import CLOSED, CircuitBreaker
from repro.reliability.errors import (
    DeadlineExceeded,
    PoolUnavailable,
    QueueFull,
    ServiceClosed,
)
from repro.reliability.log import note_serial_fallback
from repro.reliability.supervisor import RetryPolicy
from repro.serve.batcher import MicroBatcher, ServedFuture
from repro.serve.cache import ResultCache, input_digest
from repro.snn.budget import Budget
from repro.snn.engine import Simulator, _check_batch_size
from repro.snn.parallel import WorkerPool, resolve_workers
from repro.snn.results import confidence_margins

__all__ = ["ServedResult", "ServiceStats", "ServiceHealth", "InferenceService"]


@dataclass
class ServedResult:
    """Outcome of one served request.

    ``scores`` is the request's class-score vector (a private copy),
    ``prediction`` its argmax, ``latency_s`` the submit-to-resolve wall
    time, ``cached`` whether the result was replayed from the LRU cache,
    ``deduped`` whether it was coalesced onto an identical in-flight
    request's flush, and ``batch_size`` the micro-batch the sample rode in
    (``0`` for cache hits, which never enter a batch; deduped results
    report the primary's batch).

    Budgeted requests additionally carry ``partial`` — True when the
    compute budget truncated the flush's window, making ``scores`` an
    anytime answer (evidence so far plus the readout prior) rather than
    the full run's — and ``margin``, the top-2 confidence margin of the
    sealed scores (``None`` for unbudgeted requests).
    """

    scores: np.ndarray
    prediction: int
    latency_s: float
    cached: bool = False
    deduped: bool = False
    batch_size: int = 0
    partial: bool = False
    margin: float | None = None


def _export_fields(record, **derived) -> dict:
    """Every dataclass field of ``record`` (dicts re-keyed to str) + extras."""
    out: dict = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
        out[f.name] = value
    out.update(derived)
    return out


@dataclass
class ServiceStats:
    """Service-lifetime counters (see :meth:`InferenceService.stats`)."""

    requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0
    flushes: int = 0
    flushed_samples: int = 0
    #: Always 0: flushes run unpadded.  Kept because the benchmark reads
    #: it (``batcher.padding_share``); drop it with the next benchmark change.
    padded_samples: int = 0
    plans_compiled: int = 0
    workers: int = 1
    serial_fallbacks: int = 0
    pool_rebuilds: int = 0
    deadline_expired: int = 0
    cancelled: int = 0
    cancelled_after_dispatch: int = 0
    rejected_full: int = 0
    watchdog_timeouts: int = 0
    partial_results: int = 0
    degrade_level: int = 0
    adaptive_wait_ms: float = 0.0
    arrival_rate_per_s: float = 0.0
    breaker_state: str = "disabled"
    flush_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def mean_flush_size(self) -> float:
        """Average samples per micro-batch flush (0.0 before any flush)."""
        return self.flushed_samples / self.flushes if self.flushes else 0.0

    def as_dict(self) -> dict:
        """Flat, JSON-ready export of **every** field plus derived values.

        Built from :func:`dataclasses.fields`, so a counter added to the
        dataclass shows up in the HTTP ``/metrics`` export automatically —
        no hand-picked field list to rot.  Dict-valued fields get string
        keys (JSON objects cannot have int keys).
        """
        return _export_fields(self, mean_flush_size=self.mean_flush_size)


@dataclass(frozen=True)
class ServiceHealth:
    """Point-in-time health snapshot (see :meth:`InferenceService.health`).

    ``status`` is ``"ok"`` when the service is operating as configured and
    ``"degraded"`` when a tripped (or probing) circuit breaker has it
    serving serially despite ``workers > 1``, **or** when the flush
    watchdog's degrade ladder is engaged (``degrade_level > 0``: recent
    budgeted flushes overran and the compute window is shrunk until clean
    flushes walk it back).  ``breaker`` is the breaker state string, or
    ``"disabled"`` for serial services that have no parallel path to
    protect.  ``watchdog_timeouts`` counts flushes the watchdog abandoned.
    """

    status: str
    breaker: str
    parallel_active: bool
    workers: int
    pending: int
    pool_rebuilds: int
    serial_fallbacks: int
    deadline_expired: int
    cancelled: int
    rejected_full: int
    watchdog_timeouts: int = 0
    degrade_level: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict:
        """Flat, JSON-ready export of every field plus the ``ok`` flag.

        Same contract as :meth:`ServiceStats.as_dict`: driven by
        :func:`dataclasses.fields`, so the HTTP ``/health`` payload can
        never silently miss a field.
        """
        return _export_fields(self, ok=self.ok)


#: Fraction of the flush deadline handed to the engine as its compute
#: budget — the remainder is headroom for stacking, plan lookup and
#: settlement, so a well-behaved budgeted flush finishes *inside* the
#: watchdog's deadline instead of racing it.
_ENGINE_FRACTION = 0.5

#: Floor for the degraded engine budget: the degrade ladder halves the
#: window under sustained overload but never below this, so a degraded
#: flush still executes at least a sliver of the schedule (sealing the
#: readout prior) rather than spinning on a zero-step window.
_MIN_ENGINE_BUDGET_MS = 0.05

#: Degrade-ladder depth cap; at 2**8 the window is already at the floor
#: for any sane budget, deeper levels only slow re-escalation.
_MAX_DEGRADE_LEVEL = 8


class _FlushAbandoned(Exception):
    """Internal: a zombie flush thread noticed the watchdog moved on.

    Raised inside ``_execute_budgeted`` when the flush epoch advanced —
    i.e. the watchdog already abandoned this flush, settled its members
    and rebuilt the execution state.  The runner thread swallows it via
    the ticket (whose ``try_finish`` is a no-op after abandonment).
    """


class _FlushTicket:
    """First-wins settlement token shared by a flush runner and the watchdog.

    Exactly one of :meth:`try_finish` (runner: result or error) and
    :meth:`try_abandon` (watchdog: deadline blown) claims the ticket; the
    loser's outcome is discarded.  This is what makes the runner finishing
    *just* as the watchdog fires race-free: members are settled by
    whichever side won, exactly once.
    """

    __slots__ = ("_lock", "_state", "result", "error")

    def __init__(self):
        self._lock = threading.Lock()
        self._state = "pending"  # guarded-by: _lock
        self.result = None
        self.error: BaseException | None = None

    def try_finish(self, result, error: BaseException | None) -> bool:
        with self._lock:
            if self._state != "pending":
                return False
            self._state = "finished"
            self.result = result
            self.error = error
            return True

    def try_abandon(self) -> bool:
        with self._lock:
            if self._state != "pending":
                return False
            self._state = "abandoned"
            return True


def _default_capacities(max_batch: int) -> tuple[int, ...]:
    """Powers of two up to ``max_batch``, always including ``max_batch``."""
    caps = {1, int(max_batch)}
    c = 2
    while c < max_batch:
        caps.add(c)
        c *= 2
    return tuple(sorted(caps))


class InferenceService:
    """Serve single-sample requests through micro-batched compiled plans.

    Parameters
    ----------
    source:
        What to serve: a :class:`~repro.core.t2fsnn.T2FSNN` model (its
        coding configuration is re-checked every flush, so mutating the
        model between requests is safe), the model's
        :class:`~repro.runtime.runtime.Runtime`, or a bare
        :class:`~repro.snn.engine.Simulator` for any coding scheme.
        Model- and runtime-backed services source generation simulators
        and coding keys from the runtime — one cache and one invalidation
        rule shared with compiled batch runs.  A simulator-backed service
        runs on private replicas of the simulator, never on it.
        Monitors are not supported — they observe per-step state and have
        no meaning at request granularity.
    max_batch:
        Largest micro-batch (and the largest compiled plan capacity).
    capacities:
        Batch capacities to compile plans for; a flush of ``k`` samples
        runs on the smallest capacity ``>= k``.  Default: powers of
        two up to ``max_batch``.  When given, overrides ``max_batch`` with
        ``max(capacities)``.
    max_wait_ms:
        Flush deadline for a partially filled micro-batch — the
        latency/throughput trade-off knob.  With ``adaptive_wait`` this
        is the base (and floor) wait.
    adaptive_wait:
        Arrival-rate-adaptive flush wait (DESIGN.md §16): the batcher
        tracks an EWMA of request inter-arrival gaps and stretches the
        wait toward the expected batch-fill time — clamped to
        ``wait_ceiling_ms`` — when traffic is dense enough that waiting
        buys fuller (cheaper-per-sample) flushes; sparse traffic keeps
        the base ``max_wait_ms``.  Off by default.
    wait_ceiling_ms:
        Cap on the adaptive wait (``None`` = ``12.5 * max_wait_ms``).
    cache_size:
        LRU result-cache entries (``0`` disables caching).
    workers:
        ``1`` (default) executes flushes in the dispatch thread; ``N > 1``
        or ``"auto"`` shards flushes over a persistent worker pool with
        per-worker compiled plans (``"auto"`` stays serial on single-core
        hosts).  Pool failure degrades to serial dispatch with a warning.
    steps:
        Optional time-budget override for free-running schemes; part of
        the plan-pool key.
    start_method:
        Multiprocessing start method for the worker pool.
    dedupe:
        Coalesce identical concurrent submissions onto one in-flight
        request (see module docstring).  On by default; ``False`` gives
        every submission its own micro-batch slot.
    default_deadline_ms:
        Deadline applied to every submission that does not pass its own
        ``deadline_ms`` (``None`` = no default deadline).
    budget_ms:
        Default *execution* budget applied to every submission that does
        not pass its own ``budget_ms`` (``None`` = unbudgeted flushes,
        no watchdog).  Where ``deadline_ms`` bounds time spent *queued*
        (stale requests are culled before compute), ``budget_ms`` bounds
        the dispatched flush itself: the engine runs the micro-batch as
        an anytime window under a fraction of the budget, and a flush
        watchdog abandons any flush that overruns the full budget —
        settling members with a partial result when one exists, or
        :class:`DeadlineExceeded` otherwise — then force-rebuilds the
        execution state so the next flush starts clean.  Under sustained
        overruns the watchdog degrades by halving the compute window
        before admission control starts rejecting with ``QueueFull``.
    max_pending:
        Bound on the pending queue; ``submit`` raises
        :class:`~repro.reliability.errors.QueueFull` when saturated
        (``None`` = unbounded).
    breaker:
        :class:`~repro.reliability.breaker.CircuitBreaker` guarding the
        parallel dispatch path; ``None`` builds one with defaults.  Only
        consulted when ``workers > 1``.
    retry:
        :class:`~repro.reliability.supervisor.RetryPolicy` for pool
        rebuilds inside the worker pool; ``None`` uses the
        supervisor default.
    """

    def __init__(
        self,
        source,
        max_batch: int = 16,
        capacities: tuple[int, ...] | None = None,
        max_wait_ms: float = 2.0,
        adaptive_wait: bool = False,
        wait_ceiling_ms: float | None = None,
        cache_size: int = 256,
        workers: int | str = 1,
        steps: int | None = None,
        start_method: str | None = None,
        dedupe: bool = True,
        default_deadline_ms: float | None = None,
        budget_ms: float | None = None,
        max_pending: int | None = None,
        breaker: CircuitBreaker | None = None,
        retry: RetryPolicy | None = None,
    ):
        runtime = getattr(source, "runtime", None)
        if runtime is None and hasattr(source, "coding_key") and hasattr(
            source, "network_for"
        ):
            runtime = source  # a Runtime passed directly
        if runtime is not None:
            self._runtime = runtime
            self._base_sim = None
            network = runtime.model.network
        elif isinstance(source, Simulator):
            if source.monitors:
                raise ValueError(
                    "monitors observe per-step state and cannot be attached "
                    "to a request-serving simulator; use Simulator.run"
                )
            self._runtime = None
            self._base_sim = source
            network = source.network
        else:
            raise TypeError(
                "source must be a T2FSNN model, a Runtime or a Simulator, "
                f"got {source!r}"
            )
        if capacities:
            caps = tuple(sorted({_check_batch_size(c, "capacities") for c in capacities}))
        else:
            caps = _default_capacities(_check_batch_size(max_batch, "max_batch"))
        self.capacities = caps
        self.max_batch = caps[-1]
        self.input_shape = tuple(network.input_shape)
        self._steps = steps
        self._cache = ResultCache(cache_size)
        # submit() increments counters from arbitrary caller threads while
        # the dispatch thread updates flush counters, so every touch takes
        # the stats lock.
        self._stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._plans: dict = {}
        self._gen_key = None
        self._gen_sim: Simulator | None = None
        self._closed = False
        # In-flight dedup: digest -> follower futures of a pending request.
        # Guarded by its own lock (submit runs on caller threads, resolution
        # on the dispatch thread).
        self._dedupe = bool(dedupe)
        self._inflight: dict[bytes, list[ServedFuture]] = {}  # guarded-by: _inflight_lock
        self._inflight_lock = threading.Lock()

        scheme = source.scheme if self._runtime is None else None
        self._workers = resolve_workers(workers, self.max_batch)
        self._start_method = start_method
        self._pool: WorkerPool | None = None
        self._pool_key = None
        if self._workers > 1 and scheme is not None and getattr(
            scheme, "stochastic", False
        ):
            warnings.warn(
                "stochastic schemes draw per-run noise and cannot share a "
                "persistent worker pool; serving serially",
                RuntimeWarning,
                stacklevel=2,
            )
            self._workers = 1
        self._stats.workers = self._workers
        for name, value in (
            ("default_deadline_ms", default_deadline_ms),
            ("budget_ms", budget_ms),
        ):
            if value is not None and not (
                isinstance(value, (int, float))
                and not isinstance(value, bool)
                and value > 0
                and np.isfinite(value)
            ):
                raise ValueError(
                    f"{name} must be a positive number or None, got {value!r}"
                )
        self._default_deadline_ms = default_deadline_ms
        self._budget_ms = None if budget_ms is None else float(budget_ms)
        # Flush-watchdog state (dispatch-thread writers; the epoch is read
        # by abandoned runner threads to detect they are zombies).
        self._flush_epoch = 0
        self._degrade_level = 0
        self._breaker = breaker if breaker is not None else CircuitBreaker()
        self._retry = retry
        self._batcher = MicroBatcher(
            self._flush,
            max_batch=self.max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            on_drop=self._on_drop,
            adaptive_wait=adaptive_wait,
            wait_ceiling_ms=wait_ceiling_ms,
        )

    # ------------------------------------------------------------------ #
    # request path (caller threads)
    # ------------------------------------------------------------------ #

    def submit(
        self,
        x: np.ndarray,
        deadline_ms: float | None = None,
        budget_ms: float | None = None,
        priority: int = 0,
    ) -> ServedFuture:
        """Enqueue one sample; returns a future resolving to a result.

        Cache hits resolve immediately (never entering a micro-batch); the
        digest embeds the current coding key, so hits can only replay
        scores computed under the *current* configuration.  A sample
        identical to one already in flight coalesces onto that request's
        flush instead of occupying its own batch slot (``dedupe=True``).

        ``deadline_ms`` bounds the time the request may spend queued
        (falling back to the service's ``default_deadline_ms``): if its
        micro-batch has not started executing by then, the future is
        rejected with :class:`DeadlineExceeded` and no compute is spent on
        it.  ``budget_ms`` (falling back to the service's ``budget_ms``)
        bounds *execution*: the flush carrying the sample runs under the
        tightest member budget, watchdog-enforced — see the constructor.
        Raises :class:`QueueFull` when ``max_pending`` is configured and
        the queue is saturated.

        ``priority`` orders flush assembly when the backlog exceeds one
        micro-batch: lower values are more urgent (default ``0``; negative
        values jump the queue).  It changes *which* pending requests fill
        the next flush, never admission — a dedup follower rides its
        primary's flush regardless of either request's priority.
        """
        if self._closed:
            raise ServiceClosed("InferenceService is closed")
        if deadline_ms is None:
            deadline_ms = self._default_deadline_ms
        elif not (
            isinstance(deadline_ms, (int, float))
            and not isinstance(deadline_ms, bool)
            and deadline_ms > 0
        ):
            raise ValueError(
                f"deadline_ms must be a positive number, got {deadline_ms!r}"
            )
        if budget_ms is None:
            budget_ms = self._budget_ms
        elif not (
            isinstance(budget_ms, (int, float))
            and not isinstance(budget_ms, bool)
            and budget_ms > 0
            and np.isfinite(budget_ms)
        ):
            raise ValueError(
                f"budget_ms must be a positive number, got {budget_ms!r}"
            )
        if isinstance(priority, bool) or not isinstance(priority, (int, np.integer)):
            raise ValueError(f"priority must be an int, got {priority!r}")
        x = np.asarray(x)
        if x.shape == (1, *self.input_shape):
            x = x[0]
        if x.shape != self.input_shape:
            raise ValueError(
                f"expected one sample of shape {self.input_shape}, "
                f"got {x.shape}"
            )
        # Private copy: the sample sits in the queue until the flush (up to
        # max_wait_ms); a caller reusing its buffer must not corrupt it.
        x = np.array(x, copy=True)
        with self._stats_lock:
            self._stats.requests += 1
        future = ServedFuture()
        future.priority = int(priority)
        if deadline_ms is not None:
            future.deadline_at = time.monotonic() + deadline_ms / 1000.0
        if budget_ms is not None:
            future.budget_ms = float(budget_ms)
        # The coding key and the sample digest serve both the cache lookup
        # and the dedup registration; compute each at most once per submit.
        key = digest = None
        if self._cache.capacity > 0 or self._dedupe:
            key = self._coding_key()
            digest = input_digest(x, key)
        # Cache lookups are only trusted under the *current generation's*
        # key: the generation simulator pins its network object (so its id
        # cannot be recycled), whereas an arbitrary coding key could —
        # after a swap away and back — collide with a freed network's
        # recycled id and replay the old network's scores.  (The gate is
        # equivalent to digesting under self._gen_key: when it passes, the
        # current key *is* the generation key.)
        if self._cache.capacity > 0 and key == self._gen_key:
            scores = self._cache.get(digest)
            if scores is not None:
                future.submitted_at = time.monotonic()
                future._resolve(
                    ServedResult(
                        scores=scores.copy(),
                        prediction=int(scores.argmax()),
                        latency_s=0.0,
                        cached=True,
                        batch_size=0,
                    )
                )
                return future
        if self._dedupe:
            # Dedup is safe regardless of concurrent reconfiguration: a
            # follower rides the primary's flush, so both resolve from the
            # one execution that actually ran — identical input, identical
            # answer.  The digest embeds the submit-time coding key only to
            # keep requests from different configurations apart.
            with self._inflight_lock:
                followers = self._inflight.get(digest)
                if followers is not None:
                    followers.append(future)
                    future.submitted_at = time.monotonic()
                    with self._stats_lock:
                        self._stats.dedup_hits += 1
                    return future
                self._inflight[digest] = []
        try:
            return self._batcher.submit((x, digest), future)
        except QueueFull:
            # Admission was refused after the in-flight registration: take
            # the registration back out (and reject any follower that
            # attached in the window) so the digest doesn't point at a
            # primary that never entered the queue.
            for follower in self._pop_followers(digest):
                follower._reject(
                    QueueFull("coalesced primary was rejected: queue full")
                )
            raise

    def predict(self, x: np.ndarray, timeout: float | None = 30.0) -> ServedResult:
        """Submit one sample and block for its result."""
        return self.submit(x).result(timeout)

    def predict_many(
        self, x: np.ndarray, timeout: float | None = 30.0
    ) -> list[ServedResult]:
        """Submit a batch of samples concurrently and gather the results."""
        futures = [self.submit(sample) for sample in x]
        return [f.result(timeout) for f in futures]

    # ------------------------------------------------------------------ #
    # flush path (dispatch thread)
    # ------------------------------------------------------------------ #

    def _coding_key(self):
        if self._runtime is not None:
            return self._runtime.coding_key()
        sim = self._base_sim
        network = sim.network
        token = (
            network.identity_token()
            if hasattr(network, "identity_token")
            else (id(network),)
        )
        return ("simulator", id(sim), id(sim.scheme), token)

    def _sim_for(self, key) -> Simulator:
        if key == self._gen_key and self._gen_sim is not None:
            return self._gen_sim
        # A caller's own simulator is never run here: its bound state would
        # race the caller's runs, and after a hang the abandoned runner
        # still holds it.  Each generation serves a private replica.
        sim = (
            self._runtime.simulator()
            if self._runtime is not None
            else self._base_sim._replica()
        )
        # A new generation orphans the old coding key's plans and cache
        # entries; drop both so a long-lived service cannot accumulate
        # stale arenas, and so old-generation digests (whose network may be
        # freed, its id recyclable) can never be replayed.
        self._plans = {k: v for k, v in self._plans.items() if k[0] == key}
        self._cache.clear()
        self._gen_key, self._gen_sim = key, sim
        return sim

    def _plan_for(self, key, capacity: int):
        plan_key = (key, capacity, self._steps)
        plan = self._plans.get(plan_key)
        if plan is None:
            sim = self._sim_for(key)
            plan = sim.compile(batch_size=capacity, steps=self._steps)
            self._plans[plan_key] = plan
            with self._stats_lock:
                self._stats.plans_compiled += 1
        return plan

    def _capacity_for(self, n: int) -> int:
        for cap in self.capacities:
            if cap >= n:
                return cap
        return self.capacities[-1]  # pragma: no cover - n <= max_batch always

    def _note_rebuild(self, attempt: int, exc: BaseException) -> None:
        """Worker-pool supervisor observer: count pool rebuilds."""
        with self._stats_lock:
            self._stats.pool_rebuilds += 1

    def _execute(self, key, xs: np.ndarray) -> np.ndarray:
        """Run one stacked micro-batch; returns its rows' scores."""
        return self._execute_budgeted(key, xs, None, self._flush_epoch)[0]

    def _drop_pool(self, force: bool = False) -> None:
        """Close and forget the worker pool, if any."""
        pool, self._pool = self._pool, None
        self._pool_key = None
        if pool is not None:
            pool.close(force=force)

    def _ensure_pool(self, key) -> WorkerPool:
        if self._pool is None:
            sim = self._sim_for(key)
            if self._steps is not None and sim._steps_arg != self._steps:
                # The payload ships sim._steps_arg, so the service's
                # steps override must be baked into the replica.
                sim = sim._replica(steps=self._steps)
            # One plan per worker, sized to its shard.  Fork comes last:
            # forking this multithreaded process can deadlock children.
            self._pool = WorkerPool(
                sim,
                self._workers,
                compiled=True,
                plan_batch=max(1, -(-self.max_batch // self._workers)),
                start_method=self._start_method,
                prefer=("forkserver", "spawn", "fork"),
                retry=self._retry,
                on_rebuild=self._note_rebuild,
            )
            self._pool_key = key
        return self._pool

    def _execute_budgeted(
        self, key, xs: np.ndarray, engine_ms: float | None, epoch: int
    ):
        """Run one micro-batch, as an anytime window when ``engine_ms`` is
        set; returns ``(scores, exhausted)``.

        With ``workers > 1`` the parallel path is gated by the circuit
        breaker: a flush whose supervised pool retries are exhausted
        serves serially *this flush* and records a failure; once tripped,
        flushes go serial without paying spawn latency until the cooldown
        admits a half-open probe, whose success restores parallel service.

        A budgeted flush runs on a per-flush *runner* thread under the
        flush watchdog.  The ``epoch`` snapshot detects abandonment: if the
        watchdog gave up on this flush it already settled the members and
        rebuilt the execution state, so a late-waking runner (a *zombie*)
        must not touch the service's shared plans/pool/breaker — it
        bails out with :class:`_FlushAbandoned` instead.
        """
        if engine_ms is not None:
            faults.check(faults.FLUSH_HANG)
        if epoch != self._flush_epoch:
            raise _FlushAbandoned()
        if self._pool is not None and self._pool_key != key:
            # The model was reconfigured: workers hold plans for the old
            # coding key, so the pool must be rebuilt.
            self._drop_pool()
        if self._workers > 1 and self._breaker.allow():
            try:
                result = self._ensure_pool(key).run(xs, budget_ms=engine_ms)
            except PoolUnavailable as exc:
                if epoch != self._flush_epoch:
                    # The watchdog force-closed our pool out from under us;
                    # that is abandonment, not a pool failure — recording
                    # it would charge the breaker for the watchdog's kill.
                    raise _FlushAbandoned() from None
                self._breaker.record_failure()
                note_serial_fallback("repro.serve.InferenceService", exc)
                with self._stats_lock:
                    self._stats.serial_fallbacks += 1
                self._drop_pool()
            else:
                self._breaker.record_success()
                return result.scores, getattr(result, "budget_exhausted", False)
        faults.check(faults.KERNEL_EXCEPTION)
        plan = self._plan_for(key, self._capacity_for(len(xs)))
        budget = None if engine_ms is None else Budget(ms=engine_ms)
        result = plan.run(xs, budget=budget)
        return result.scores, getattr(result, "budget_exhausted", False)

    def _pop_followers(self, digest) -> list:
        if digest is None:
            return []
        with self._inflight_lock:
            return self._inflight.pop(digest, [])

    def _on_drop(self, payload, future: ServedFuture, exc) -> None:
        """A queued primary was culled (cancelled/expired) before flushing.

        Its dedup followers must not be orphaned: expired or cancelled
        followers are settled accordingly, and the first still-viable
        follower is *promoted* — it enters the micro-batch queue as the
        new primary (keeping its original ``submitted_at``), with the
        remaining followers re-registered to ride its flush.  Called from
        the dispatch thread with no batcher lock held.
        """
        _, digest = payload
        followers = self._pop_followers(digest)
        if not followers:
            return
        now = time.monotonic()
        promoted = False
        riders: list[ServedFuture] = []
        for follower in followers:
            if follower.done():
                continue
            if follower.expired(now):
                follower._reject(
                    DeadlineExceeded(
                        f"deadline expired after {now - follower.submitted_at:.3f}s "
                        "coalesced behind a dropped request"
                    )
                )
                continue
            if promoted:
                riders.append(follower)
                continue
            with self._inflight_lock:
                self._inflight[digest] = []
            try:
                self._batcher.submit(payload, follower)
            except BaseException as submit_exc:  # noqa: BLE001 - settle caller
                with self._inflight_lock:
                    self._inflight.pop(digest, None)
                follower._reject(submit_exc)
            else:
                promoted = True
        if riders:
            with self._inflight_lock:
                self._inflight.setdefault(digest, []).extend(riders)

    def _flush_budget_ms(self, requests) -> float | None:
        """The flush's execution deadline: the tightest member budget."""
        budgets = [f.budget_ms for _, f in requests if f.budget_ms is not None]
        return min(budgets) if budgets else None

    def _engine_budget_ms(self, budget_ms: float) -> float:
        """The engine's slice of the flush deadline, degrade-adjusted."""
        engine = budget_ms * _ENGINE_FRACTION / (1 << self._degrade_level)
        return max(engine, _MIN_ENGINE_BUDGET_MS)

    def _flush(self, requests) -> None:
        faults.check(faults.SLOW_FLUSH)
        budget_ms = self._flush_budget_ms(requests)
        if budget_ms is not None:
            self._flush_budgeted(requests, budget_ms)
            return
        try:
            key = self._coding_key()
            xs = np.stack([x for (x, _), _ in requests])
            scores = self._execute(key, xs)
        except BaseException as exc:
            # The batcher rejects the primaries; followers coalesced onto
            # them must be rejected too, not left hanging.
            self._reject_followers(requests, exc)
            raise
        self._settle_flush(requests, key, scores)

    def _flush_budgeted(self, requests, budget_ms: float) -> None:
        """Execute one flush under the watchdog (see constructor docs).

        The micro-batch runs on a dedicated runner thread with an engine
        budget of a *fraction* of ``budget_ms`` (degrade-adjusted); the
        dispatch thread doubles as the watchdog, joining the runner for
        the full budget.  A runner that returns in time settles members
        normally (partial results flagged, never cached).  A runner that
        overruns — a hung worker, a wedged pool, an engine that cannot
        honour its budget — is *abandoned*: the flush epoch advances (so
        the zombie can never touch shared state again), the execution
        state is force-rebuilt, the degrade ladder deepens, and every
        member is settled with :class:`DeadlineExceeded` within one flush
        deadline of dispatch.
        """
        key = self._coding_key()
        xs = np.stack([x for (x, _), _ in requests])
        engine_ms = self._engine_budget_ms(budget_ms)
        epoch = self._flush_epoch
        ticket = _FlushTicket()

        def _runner():
            try:
                out = self._execute_budgeted(key, xs, engine_ms, epoch)
            except BaseException as exc:  # noqa: BLE001 - forwarded via ticket
                ticket.try_finish(None, exc)
            else:
                ticket.try_finish(out, None)

        thread = threading.Thread(
            target=_runner, name="repro-serve-flush", daemon=True
        )
        thread.start()
        thread.join(budget_ms / 1000.0)
        if ticket.try_abandon():
            # Watchdog fired: the runner is hung past the flush deadline.
            self._flush_epoch += 1  # fence the zombie out of shared state
            self._recover_from_hang()
            self._degrade_level = min(self._degrade_level + 1, _MAX_DEGRADE_LEVEL)
            with self._stats_lock:
                self._stats.watchdog_timeouts += 1
                self._stats.degrade_level = self._degrade_level
            exc = DeadlineExceeded(
                f"flush watchdog abandoned a micro-batch still executing "
                f"after its {budget_ms:.3f} ms budget; no partial result "
                "was recoverable"
            )
            for (_, _digest), future in requests:
                future._reject(exc)
            self._reject_followers(requests, exc)
            return
        if isinstance(ticket.error, _FlushAbandoned):  # pragma: no cover
            # Settled by a previous watchdog pass; nothing left to do.
            return
        if ticket.error is not None:
            self._reject_followers(requests, ticket.error)
            raise ticket.error
        scores, exhausted = ticket.result
        if self._degrade_level:
            # A clean budgeted flush walks the degrade ladder back up.
            self._degrade_level -= 1
            with self._stats_lock:
                self._stats.degrade_level = self._degrade_level
        self._settle_flush(requests, key, scores, partial=exhausted)

    def _recover_from_hang(self) -> None:
        """Orphan every execution object a zombie flush might still touch.

        The abandoned runner cannot be interrupted — it may be deep inside
        a compiled plan or blocked on a wedged pool.  Instead of sharing
        state with it, the service walks away: plans, the generation
        simulator and the worker pool are dropped (the pool force-killed
        and its supervisor *closed*, so the zombie's next pool touch
        raises instead of respawning workers), and the next
        flush rebuilds everything fresh under the new epoch.
        """
        self._plans = {}
        self._gen_sim = None
        self._gen_key = None
        self._drop_pool(force=True)

    def _settle_flush(
        self, requests, key, scores, partial: bool = False
    ) -> None:
        """Resolve every member (and follower) of one executed flush."""
        now = time.monotonic()
        n = len(requests)
        with self._stats_lock:
            self._stats.flushes += 1
            self._stats.flushed_samples += n
            self._stats.flush_sizes[n] = self._stats.flush_sizes.get(n, 0) + 1
            if partial:
                self._stats.partial_results += n
        margins = None
        if self._flush_budget_ms(requests) is not None:
            margins = confidence_margins(np.asarray(scores))
        for i, ((x, digest), future) in enumerate(requests):
            row = np.array(scores[i], copy=True)
            margin = None if margins is None else float(margins[i])
            if self._cache.capacity > 0 and not partial:
                # Digest under the key the flush actually executed with —
                # a submit-time digest could cache scores computed after a
                # concurrent reconfiguration under the old key.  Partial
                # (budget-truncated) scores are never cached: a later
                # unbudgeted request must not replay a degraded answer.
                self._cache.put(input_digest(x, key), row)
            future._resolve(
                ServedResult(
                    scores=row,
                    prediction=int(row.argmax()),
                    latency_s=now - future.submitted_at,
                    cached=False,
                    batch_size=n,
                    partial=partial,
                    margin=margin,
                )
            )
            # Followers attached up to this instant ride this flush; the
            # pop closes the window, so later identical submissions open a
            # fresh in-flight entry.
            for follower in self._pop_followers(digest):
                copy = row.copy()
                follower._resolve(
                    ServedResult(
                        scores=copy,
                        prediction=int(copy.argmax()),
                        latency_s=now - follower.submitted_at,
                        cached=False,
                        deduped=True,
                        batch_size=n,
                        partial=partial,
                        margin=margin,
                    )
                )

    def _reject_followers(self, requests, exc: BaseException) -> None:
        """Propagate a flush failure to coalesced followers."""
        for (_, digest), _ in requests:
            for follower in self._pop_followers(digest):
                follower._reject(exc)

    # ------------------------------------------------------------------ #
    # lifecycle / introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> ServiceStats:
        """A snapshot of the service counters (cache stats folded in).

        The returned object is a copy — safe to read while the dispatch
        thread keeps serving.  Hit/miss counts come from the cache itself,
        drop counts from the batcher, and the breaker state from the
        breaker (each the single source of truth).
        """
        with self._stats_lock:
            return replace(
                self._stats,
                cache_hits=self._cache.hits,
                cache_misses=self._cache.misses,
                deadline_expired=self._batcher.expired,
                cancelled=self._batcher.cancelled_dropped,
                cancelled_after_dispatch=self._batcher.cancelled_late,
                rejected_full=self._batcher.rejected_full,
                degrade_level=self._degrade_level,
                adaptive_wait_ms=self._batcher.current_wait_ms,
                arrival_rate_per_s=self._batcher.arrival_rate_per_s,
                breaker_state=(
                    self._breaker.state if self._workers > 1 else "disabled"
                ),
                flush_sizes=dict(self._stats.flush_sizes),
            )

    def health(self) -> ServiceHealth:
        """Liveness/degradation snapshot for operators and probes.

        ``status == "ok"`` means the service is operating as configured:
        serial services are always ``"ok"`` while accepting work; a
        parallel service is ``"degraded"`` while its breaker is open or
        probing (flushes serve serially until the probe succeeds).
        """
        breaker_state = self._breaker.state if self._workers > 1 else "disabled"
        parallel_active = self._workers > 1 and breaker_state == CLOSED
        degraded = (self._workers > 1 and not parallel_active) or (
            self._degrade_level > 0
        )
        stats = self.stats()
        return ServiceHealth(
            status="degraded" if degraded else "ok",
            breaker=breaker_state,
            parallel_active=parallel_active,
            workers=self._workers,
            pending=self._batcher.pending,
            pool_rebuilds=stats.pool_rebuilds,
            serial_fallbacks=stats.serial_fallbacks,
            deadline_expired=stats.deadline_expired,
            cancelled=stats.cancelled,
            rejected_full=stats.rejected_full,
            watchdog_timeouts=stats.watchdog_timeouts,
            degrade_level=stats.degrade_level,
        )

    def close(self) -> None:
        """Flush the backlog, stop the dispatch thread, shut the pool."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()
        self._drop_pool()

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceService(capacities={self.capacities}, "
            f"max_wait_ms={self._batcher.max_wait_s * 1000:.1f}, "
            f"workers={self._workers}, cache={self._cache.capacity})"
        )
