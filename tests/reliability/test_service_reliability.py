"""End-to-end reliability acceptance: the ISSUE's headline scenarios.

* a killed worker mid-flush is absorbed — rebuild + re-dispatch produce
  scores bit-identical to a fault-free run;
* exhausted pool retries trip the circuit breaker to serial service, and
  the half-open probe restores parallel service (observable via
  ``service.health()``);
* an expired deadline rejects the request *without* it ever being
  flushed;
* a saturated bounded queue rejects new work with ``QueueFull``.
"""

import time

import numpy as np
import pytest

from repro.coding.ttfs import TTFSCoding
from repro.reliability import (
    CircuitBreaker,
    DeadlineExceeded,
    FaultSpec,
    QueueFull,
    RetryPolicy,
    faults,
    reset_fallback_warnings,
)
from repro.runtime import RunConfig
from repro.serve import InferenceService
from repro.snn.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    reset_fallback_warnings()
    yield
    faults.uninstall()


def make_service(tiny_network, **kwargs):
    kwargs.setdefault("cache_size", 0)
    return InferenceService(Simulator(tiny_network, TTFSCoding(window=12)), **kwargs)


class TestWorkerCrashParity:
    def test_killed_worker_is_bit_identical_to_clean_run(
        self, tiny_network, tiny_data
    ):
        """Kill exactly one worker mid-flush: the supervisor rebuilds the
        pool and re-dispatches the unfinished shards, and predict_many
        returns scores bit-identical to a fault-free service."""
        x = tiny_data[2][:8]
        with make_service(
            tiny_network, max_batch=8, max_wait_ms=20.0, workers=2
        ) as clean:
            ref = clean.predict_many(x, timeout=120.0)
        with make_service(
            tiny_network,
            max_batch=8,
            max_wait_ms=20.0,
            workers=2,
            retry=RetryPolicy(max_retries=3, backoff_s=0.01),
        ) as svc:
            with faults.inject(FaultSpec(faults.WORKER_CRASH, times=1)):
                got = svc.predict_many(x, timeout=120.0)
            stats = svc.stats()
            health = svc.health()
        assert stats.pool_rebuilds >= 1  # the crash really happened
        assert stats.serial_fallbacks == 0  # ...and was absorbed in-pool
        assert health.ok and health.breaker == "closed"
        np.testing.assert_array_equal(
            np.stack([r.scores for r in got]),
            np.stack([r.scores for r in ref]),
        )


class TestBreakerTripAndRecovery:
    def test_trip_to_serial_then_half_open_probe_restores_parallel(
        self, tiny_network, tiny_data
    ):
        x = tiny_data[2][:6]
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=0.05)
        with make_service(
            tiny_network,
            max_batch=4,
            max_wait_ms=5.0,
            workers=2,
            breaker=breaker,
            retry=RetryPolicy(max_retries=1, backoff_s=0.001),
        ) as svc:
            ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
            # Every spawn attempt fails: retries exhaust, the flush serves
            # serially (correct answers!) and the breaker trips open.
            plan = faults.install(
                faults.FaultPlan([FaultSpec(faults.POOL_SPAWN, times=50)])
            )
            with pytest.warns(RuntimeWarning, match="falling back"):
                first = svc.predict(x[0], timeout=60.0)
            assert first.prediction == ref.predictions[0]
            health = svc.health()
            assert health.status == "degraded"
            assert health.breaker == "open"
            assert not health.parallel_active
            assert health.serial_fallbacks >= 1
            # While open, flushes go serial without touching the pool: the
            # spawn-fault budget is not consumed further.
            budget_before = plan.remaining(faults.POOL_SPAWN)
            second = svc.predict(x[1], timeout=60.0)
            assert second.prediction == ref.predictions[1]
            assert plan.remaining(faults.POOL_SPAWN) == budget_before
            # Heal the host, wait out the cooldown: the next flush is the
            # half-open probe, and its success restores parallel service.
            faults.uninstall()
            time.sleep(0.06)
            probe = svc.predict(x[2], timeout=60.0)
            assert probe.prediction == ref.predictions[2]
            health = svc.health()
            assert health.ok
            assert health.breaker == "closed"
            assert health.parallel_active
            assert breaker.recoveries == 1
            assert svc.stats().breaker_state == "closed"


class TestDeadlines:
    def test_expired_deadline_rejects_without_flushing(
        self, tiny_network, tiny_data
    ):
        with make_service(tiny_network, max_batch=8, max_wait_ms=40.0) as svc:
            future = svc.submit(tiny_data[2][0], deadline_ms=1)
            with pytest.raises(DeadlineExceeded, match="never flushed"):
                future.result(timeout=10.0)
            stats = svc.stats()
        assert stats.flushes == 0  # no compute was spent
        assert stats.deadline_expired == 1
        assert svc.health().deadline_expired == 1

    def test_default_deadline_from_runconfig(self, tiny_network, tiny_data):
        from repro.core.t2fsnn import T2FSNN

        model = T2FSNN(tiny_network, window=12)
        with model.serve(
            max_wait_ms=40.0, cache_size=0, config=RunConfig(deadline_ms=1)
        ) as svc:
            with pytest.raises(DeadlineExceeded):
                svc.predict(tiny_data[2][0], timeout=10.0)
            assert svc.stats().flushes == 0

    def test_generous_deadline_serves_normally(self, tiny_network, tiny_data):
        with make_service(tiny_network, max_batch=4, max_wait_ms=1.0) as svc:
            result = svc.predict(tiny_data[2][0], timeout=30.0)
            ref = svc.submit(tiny_data[2][0], deadline_ms=60_000).result(30.0)
        np.testing.assert_array_equal(result.scores, ref.scores)

    def test_invalid_deadline_rejected(self, tiny_network, tiny_data):
        with make_service(tiny_network) as svc:
            with pytest.raises(ValueError, match="deadline_ms"):
                svc.submit(tiny_data[2][0], deadline_ms=0)
            with pytest.raises(ValueError, match="deadline_ms"):
                svc.submit(tiny_data[2][0], deadline_ms=True)


class TestAdmissionControl:
    def test_queue_full_rejects_synchronously(self, tiny_network, tiny_data):
        x = tiny_data[2]
        with faults.inject(
            FaultSpec(faults.SLOW_FLUSH, times=20, delay_ms=150.0)
        ):
            with make_service(
                tiny_network,
                max_batch=1,
                max_wait_ms=0.0,
                dedupe=False,
                max_pending=2,
            ) as svc:
                futures = []
                with pytest.raises(QueueFull, match="full"):
                    for i in range(6):
                        futures.append(svc.submit(x[i]))
                assert svc.stats().rejected_full >= 1
                for future in futures:
                    future.result(timeout=30.0)  # admitted work still lands
