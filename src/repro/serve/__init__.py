"""Online inference serving: micro-batching over compiled execution plans.

The batch engine (``repro.snn``) answers "how fast can we sweep a test
set"; this package answers "how fast can we answer *one request*" — the
deployment scenario TTFS coding is built for (one spike per neuron, the
decision available at a fixed schedule depth).  See docs/DESIGN.md §11.

* :class:`~repro.serve.service.InferenceService` — the facade: submit
  single samples from any thread, get futures; plans are pre-compiled per
  ``(coding_key, batch_capacity, steps)`` and a partial batch runs
  unpadded on the smallest capacity that holds it;
* :class:`~repro.serve.batcher.MicroBatcher` — flush on ``max_batch`` or
  ``max_wait_ms``, whichever first;
* :class:`~repro.serve.cache.ResultCache` — digest-keyed LRU replay of
  repeated inputs;
* flushes execute in the dispatch thread or, with ``workers > 1``, over
  a persistent :class:`~repro.snn.parallel.WorkerPool` — the one shard
  runner, shared with ``run_parallel``;
* :class:`~repro.serve.aio.AsyncInferenceService` — asyncio adapter
  (``await aio.predict(x)``) bridging served futures onto the event loop;
* :mod:`~repro.serve.http` — dependency-free HTTP edge
  (``python -m repro.serve.http``): /predict, /health, /metrics with
  admission control and taxonomy-mapped status codes (DESIGN.md §16).

Entry point: ``T2FSNN.serve()`` or ``InferenceService(simulator)``.
The HTTP layer is imported lazily (``repro.serve.http``), keeping the
in-process serving path free of the network modules.
"""

from repro.reliability.errors import (
    DeadlineExceeded,
    PoolUnavailable,
    QueueFull,
    ServiceClosed,
)
from repro.serve.aio import AsyncInferenceService
from repro.serve.batcher import MicroBatcher, ServedFuture
from repro.serve.cache import ResultCache, input_digest
from repro.serve.service import (
    InferenceService,
    ServedResult,
    ServiceHealth,
    ServiceStats,
)

__all__ = [
    "AsyncInferenceService",
    "InferenceService",
    "ServedResult",
    "ServiceStats",
    "ServiceHealth",
    "MicroBatcher",
    "ServedFuture",
    "ResultCache",
    "input_digest",
    "PoolUnavailable",
    "DeadlineExceeded",
    "QueueFull",
    "ServiceClosed",
]
