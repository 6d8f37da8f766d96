"""Flush watchdog: execution budgets, partial results, hang recovery.

``deadline_ms`` (queue admission) is covered by the batcher tests; here
we pin the *execution* half of deadline enforcement (docs/DESIGN.md §14):
budgeted flushes run as anytime windows, overruns are abandoned by the
watchdog with every member settled, and the service degrades gracefully
instead of wedging.
"""

import time

import numpy as np
import pytest

from repro.coding.rate import RateCoding
from repro.coding.ttfs import TTFSCoding
from repro.reliability import FaultSpec, faults
from repro.reliability.errors import DeadlineExceeded
from repro.serve import InferenceService
from repro.serve.batcher import ServedFuture
from repro.snn.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.uninstall()
    yield
    faults.uninstall()


def make_service(tiny_network, scheme=None, **kwargs):
    kwargs.setdefault("cache_size", 0)
    scheme = scheme if scheme is not None else TTFSCoding(window=12)
    return InferenceService(Simulator(tiny_network, scheme), **kwargs)


class TestBudgetValidation:
    def test_constructor_rejects_bad_budget(self, tiny_network):
        for bad in (0, -5, float("nan"), float("inf"), True):
            with pytest.raises(ValueError, match="budget_ms"):
                make_service(tiny_network, budget_ms=bad)

    def test_submit_rejects_bad_budget(self, tiny_network, tiny_data):
        with make_service(tiny_network) as svc:
            for bad in (0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="budget_ms"):
                    svc.submit(tiny_data[2][0], budget_ms=bad)

    def test_tightest_member_budget_wins(self, tiny_network):
        with make_service(tiny_network) as svc:
            futures = []
            for budget in (250.0, 80.0, None):
                future = ServedFuture()
                future.budget_ms = budget
                futures.append((None, future))
            assert svc._flush_budget_ms(futures) == 80.0
            assert svc._flush_budget_ms([futures[-1]]) is None


class TestBudgetedServing:
    def test_generous_budget_serves_the_full_answer(self, tiny_network, tiny_data):
        x = tiny_data[2][:4]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        with make_service(tiny_network, max_wait_ms=1.0) as svc:
            results = [
                svc.submit(sample, budget_ms=5000.0).result(timeout=120.0)
                for sample in x
            ]
            stats = svc.stats()
        for i, result in enumerate(results):
            assert result.prediction == ref.predictions[i]
            assert result.partial is False
            assert result.margin is not None and result.margin >= 0.0
        assert stats.watchdog_timeouts == 0
        assert stats.partial_results == 0
        assert stats.degrade_level == 0

    def test_service_default_budget_applies_to_every_submit(
        self, tiny_network, tiny_data
    ):
        with make_service(tiny_network, budget_ms=5000.0) as svc:
            result = svc.predict(tiny_data[2][0], timeout=120.0)
        assert result.margin is not None  # budgeted path → anytime metadata

    def test_tight_budget_returns_a_flagged_partial(self, tiny_network, tiny_data):
        """An engine budget far below the window cost truncates the run:
        the member settles with partial=True inside the flush deadline
        (the schedule needs ~140ms here; the engine gets ~50ms)."""
        x = tiny_data[2][:2]
        with make_service(
            tiny_network,
            scheme=RateCoding(),
            steps=2000,
            max_wait_ms=1.0,
            cache_size=8,
        ) as svc:
            svc.predict(x[0], timeout=120.0)  # prewarm: compile the plan
            result = svc.submit(x[1], budget_ms=100.0).result(timeout=120.0)
            stats = svc.stats()
            # Partial answers are never cached: re-serving the same sample
            # unbudgeted must execute the full window, not replay.
            full = svc.predict(x[1], timeout=120.0)
        assert result.partial is True
        assert result.margin is not None and result.margin >= 0.0
        assert np.isfinite(result.scores).all()
        assert stats.partial_results >= 1
        assert stats.watchdog_timeouts == 0
        assert full.cached is False
        assert full.partial is False


class TestWatchdog:
    def test_hung_flush_is_abandoned_and_the_service_recovers(
        self, tiny_network, tiny_data
    ):
        """A committed flush that hangs past its budget: the watchdog
        settles every member with DeadlineExceeded well before the hang
        clears, counts the timeout, engages the degrade ladder, and the
        next flush serves cleanly off rebuilt state."""
        x = tiny_data[2][:3]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        with make_service(tiny_network, max_wait_ms=1.0, dedupe=False) as svc:
            with faults.inject(
                FaultSpec(faults.FLUSH_HANG, times=1, delay_ms=1500.0)
            ):
                start = time.monotonic()
                future = svc.submit(x[0], budget_ms=120.0)
                with pytest.raises(DeadlineExceeded, match="watchdog"):
                    future.result(timeout=120.0)
                settled_ms = (time.monotonic() - start) * 1000.0
                health = svc.health()
                assert health.watchdog_timeouts == 1
                assert health.degrade_level == 1
                assert health.status == "degraded"
                # Settled by the watchdog, not by the hang clearing.
                assert settled_ms < 1500.0
                # Recovery: the very next request succeeds on fresh state
                # (the remaining hang budget is exhausted, so no re-fire).
                result = svc.submit(x[1], budget_ms=5000.0).result(timeout=120.0)
                assert result.prediction == ref.predictions[1]
                assert result.partial is False
                # A clean budgeted flush walks the degrade ladder back up.
                health = svc.health()
                assert health.degrade_level == 0
                assert health.ok
                # Unbudgeted serving is untouched by the episode.
                plain = svc.predict(x[2], timeout=120.0)
                assert plain.prediction == ref.predictions[2]
            stats = svc.stats()
        assert stats.watchdog_timeouts == 1

    def test_unbudgeted_requests_never_engage_the_watchdog(
        self, tiny_network, tiny_data
    ):
        with make_service(tiny_network) as svc:
            with faults.inject(
                FaultSpec(faults.FLUSH_HANG, times=1, delay_ms=1000.0)
            ):
                result = svc.predict(tiny_data[2][0], timeout=120.0)
                plan = faults.active()
                # flush.hang sits on the budgeted path only: an unbudgeted
                # flush never consults it, so the token survives.
                assert plan.remaining(faults.FLUSH_HANG) == 1
        assert result.scores.shape == (3,)


class TestCancelAfterDispatch:
    def test_cancel_before_dispatch_withdraws(self, tiny_network, tiny_data):
        with make_service(tiny_network, max_wait_ms=500.0) as svc:
            future = svc.submit(tiny_data[2][0])
            assert future.cancel() is True
            with pytest.raises(BaseException, match="cancelled"):
                future.result(timeout=10.0)

    def test_cancel_after_dispatch_is_refused_and_counted(
        self, tiny_network, tiny_data
    ):
        """Once the micro-batch dispatches, its compute is committed:
        cancel() returns False, the flush's result stands, and the late
        attempt is counted."""
        with make_service(tiny_network, max_wait_ms=0.0, dedupe=False) as svc:
            with faults.inject(
                FaultSpec(faults.SLOW_FLUSH, times=1, delay_ms=200.0)
            ):
                future = svc.submit(tiny_data[2][0])
                deadline = time.monotonic() + 5.0
                while not future._dispatched and time.monotonic() < deadline:
                    time.sleep(0.002)
                assert future._dispatched, "flush never dispatched"
                assert future.cancel() is False
                result = future.result(timeout=120.0)
            stats = svc.stats()
        assert result.scores.shape == (3,)
        assert stats.cancelled_after_dispatch == 1
        assert stats.cancelled == 0  # no pre-dispatch drop happened
