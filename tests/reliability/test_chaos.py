"""Heavier chaos scenarios, run by the CI chaos job (``REPRO_CHAOS=1``).

These compose multiple fault points and exercise repeated
trip/recover cycles; they spawn several real process pools, so they are
opt-in rather than part of the default tier-1 run.  Everything here is
seeded — a failure replays identically.
"""

import os
import time

import numpy as np
import pytest

from repro.coding.ttfs import TTFSCoding
from repro.reliability import (
    CircuitBreaker,
    FaultSpec,
    RetryPolicy,
    faults,
    reset_fallback_warnings,
)
from repro.serve import InferenceService
from repro.snn.engine import Simulator

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS"),
    reason="chaos scenarios are opt-in: set REPRO_CHAOS=1 (the CI chaos job does)",
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    reset_fallback_warnings()
    yield
    faults.uninstall()


def make_service(tiny_network, **kwargs):
    kwargs.setdefault("cache_size", 0)
    return InferenceService(Simulator(tiny_network, TTFSCoding(window=12)), **kwargs)


def test_repeated_worker_crashes_stay_bit_identical(tiny_network, tiny_data):
    """Three worker kills spread across a longer request stream: every
    crash is absorbed by rebuild + re-dispatch, scores stay bit-identical
    to the fault-free service."""
    x = tiny_data[2][:24]
    with make_service(
        tiny_network, max_batch=8, max_wait_ms=10.0, workers=2
    ) as clean:
        ref = clean.predict_many(x, timeout=300.0)
    with make_service(
        tiny_network,
        max_batch=8,
        max_wait_ms=10.0,
        workers=2,
        retry=RetryPolicy(max_retries=4, backoff_s=0.01),
    ) as svc:
        with faults.inject(FaultSpec(faults.WORKER_CRASH, times=3)):
            got = svc.predict_many(x, timeout=300.0)
        stats = svc.stats()
        health = svc.health()
    # Three kills with two workers: at least two rebuild rounds (two
    # crash tokens may be claimed within one round, absorbed by one rebuild).
    assert stats.pool_rebuilds >= 2
    assert stats.serial_fallbacks == 0  # ...and were absorbed in-pool
    assert health.ok
    np.testing.assert_array_equal(
        np.stack([r.scores for r in got]), np.stack([r.scores for r in ref])
    )


def test_two_trip_recover_cycles(tiny_network, tiny_data):
    """A breaker shared across services must survive more than one
    outage: trip, recover, trip again, recover again — ending healthy.
    (Per-cycle services because ``pool.spawn`` only fires while a pool is
    being built; a recovered service's pool is already alive.)"""
    x = tiny_data[2]
    ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x[:4])
    breaker = CircuitBreaker(failure_threshold=1, reset_after_s=0.05)
    for cycle in range(2):
        with make_service(
            tiny_network,
            max_batch=4,
            max_wait_ms=5.0,
            workers=2,
            breaker=breaker,
            retry=RetryPolicy(max_retries=0, backoff_s=0.0),
        ) as svc:
            faults.install(
                faults.FaultPlan([FaultSpec(faults.POOL_SPAWN, times=50)])
            )
            result = svc.predict(x[2 * cycle], timeout=120.0)
            assert result.prediction == ref.predictions[2 * cycle]
            assert svc.health().status == "degraded"
            faults.uninstall()
            time.sleep(0.06)
            result = svc.predict(x[2 * cycle + 1], timeout=120.0)
            assert result.prediction == ref.predictions[2 * cycle + 1]
            assert svc.health().ok, f"cycle {cycle} did not recover"
    assert breaker.recoveries == 2
    assert breaker.trips == 2


def test_hung_flush_mid_service_recovers_within_two_deadlines(
    tiny_network, tiny_data
):
    """The acceptance scenario for the flush watchdog: a sharded service
    is serving happily when a dispatched flush hangs (``flush.hang``).
    Every member of the hung flush must settle — partial result or
    :class:`DeadlineExceeded` — within 2x the flush deadline, the worker
    shard must be rebuilt, and subsequent requests must succeed with
    bit-identical scores, the service reporting healthy again."""
    from repro.reliability.errors import DeadlineExceeded

    budget_ms = 250.0
    x = tiny_data[2][:12]
    ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
    with make_service(
        tiny_network,
        max_batch=4,
        max_wait_ms=5.0,
        workers=2,
        dedupe=False,
        retry=RetryPolicy(max_retries=1, backoff_s=0.01),
    ) as svc:
        # Phase 1: healthy budgeted serving (spawns the worker pool).
        warm = [
            svc.submit(sample, budget_ms=5000.0) for sample in x[:4]
        ]
        for i, future in enumerate(warm):
            assert future.result(timeout=300.0).prediction == ref.predictions[i]
        assert svc.health().ok
        # Phase 2: the next dispatched flush hangs well past its budget.
        with faults.inject(
            FaultSpec(faults.FLUSH_HANG, times=1, delay_ms=4000.0)
        ):
            start = time.monotonic()
            doomed = [svc.submit(sample, budget_ms=budget_ms) for sample in x[4:8]]
            outcomes = []
            for future in doomed:
                try:
                    result = future.result(timeout=300.0)
                    outcomes.append("partial" if result.partial else "served")
                except DeadlineExceeded:
                    outcomes.append("deadline")
            settled_ms = (time.monotonic() - start) * 1000.0
            # Every member settled, within 2x the flush deadline — not the
            # 4s the hang itself would have imposed.
            assert len(outcomes) == 4
            assert settled_ms < 2 * budget_ms, f"settled in {settled_ms:.0f}ms"
            assert "deadline" in outcomes
            health = svc.health()
            assert health.watchdog_timeouts >= 1
            assert not health.ok
            # Phase 3: recovery on rebuilt state — the watchdog killed the
            # old shard pool; these flushes bring up a fresh one.
            after = [svc.submit(sample, budget_ms=5000.0) for sample in x[8:]]
            for i, future in enumerate(after):
                result = future.result(timeout=300.0)
                assert result.prediction == ref.predictions[8 + i]
                assert result.partial is False
                # Budgeted execution skips deferred-drain merging (it must
                # be interruptible per step), so parity with the batch
                # engine is up to float reassociation, argmax exact.
                np.testing.assert_allclose(
                    result.scores, ref.scores[8 + i], atol=1e-12
                )
        health = svc.health()
        assert health.ok, f"service did not recover: {health}"
        assert health.parallel_active  # the shard pool is live again
        assert health.watchdog_timeouts == 1
        assert health.degrade_level == 0


def test_slow_flush_with_deadlines_drops_only_stale_requests(
    tiny_network, tiny_data
):
    """A stalled dispatch thread (slow flush) backs the queue up; requests
    with tight deadlines are culled, requests without deadlines all land
    with correct predictions."""
    x = tiny_data[2][:6]
    ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
    with faults.inject(
        FaultSpec(faults.SLOW_FLUSH, times=2, delay_ms=120.0)
    ):
        with make_service(
            tiny_network, max_batch=1, max_wait_ms=0.0, dedupe=False
        ) as svc:
            durable = [svc.submit(sample) for sample in x[:3]]
            doomed = [
                svc.submit(sample, deadline_ms=10) for sample in x[3:]
            ]
            settled = [f.result(timeout=120.0) for f in durable]
            outcomes = []
            for future in doomed:
                try:
                    future.result(timeout=120.0)
                    outcomes.append("served")
                except Exception as exc:
                    outcomes.append(type(exc).__name__)
            stats = svc.stats()
    for i, result in enumerate(settled):
        assert result.prediction == ref.predictions[i]
    # At least one doomed request expired behind the stalled flushes
    # (both flush.slow tokens fire before their 10ms deadlines allow).
    assert "DeadlineExceeded" in outcomes
    assert stats.deadline_expired >= 1
