"""AsyncInferenceService: event-loop bridge, parity, dedup, cancellation.

The async adapter must add *nothing* to the numerical story: concurrent
``await aio.predict(x)`` callers get bit-identical scores to
``Simulator.run``, dedup coalescing works across coroutines exactly as it
does across threads, and cancelling an awaited request pre-dispatch
withdraws it cleanly (no compute, counters intact).
"""

import asyncio
from concurrent.futures import CancelledError as ServedCancelled

import numpy as np
import pytest

from repro.coding.ttfs import TTFSCoding
from repro.reliability.errors import QueueFull
from repro.serve import InferenceService
from repro.serve.aio import AsyncInferenceService
from repro.snn.engine import Simulator


def make_aio(network, **overrides):
    """An adapter-owned service over a fresh TTFS simulator."""
    kwargs = dict(
        capacities=(1, 2, 4),
        max_wait_ms=5.0,
        cache_size=0,
    )
    kwargs.update(overrides)
    return AsyncInferenceService(
        Simulator(network, TTFSCoding(window=12)), **kwargs
    )


class TestAsyncParity:
    def test_concurrent_predict_bit_identical(self, tiny_network, tiny_data):
        """Many coroutines awaiting predict() concurrently reproduce
        Simulator.run exactly."""
        x = tiny_data[2][:6]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)

        async def run():
            async with make_aio(tiny_network) as aio:
                return await asyncio.gather(
                    *(aio.predict(sample) for sample in x)
                )

        results = asyncio.run(run())
        scores = np.stack([r.scores for r in results])
        np.testing.assert_allclose(scores, ref.scores, rtol=1e-9, atol=1e-12)
        got = np.array([r.prediction for r in results])
        np.testing.assert_array_equal(got, ref.predictions)

    def test_predict_many_matches_reference(self, tiny_network, tiny_data):
        x = tiny_data[2][:5]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)

        async def run():
            async with make_aio(tiny_network) as aio:
                return await aio.predict_many(x)

        results = asyncio.run(run())
        got = np.array([r.prediction for r in results])
        np.testing.assert_array_equal(got, ref.predictions)

    def test_dedup_coalesces_across_coroutines(self, tiny_network, tiny_data):
        """Identical samples submitted from concurrent coroutines ride one
        flush: exactly one primary executes, the rest are deduped copies
        with identical scores."""
        sample = tiny_data[2][0]

        async def run():
            async with make_aio(
                tiny_network, max_wait_ms=50.0, dedupe=True
            ) as aio:
                results = await asyncio.gather(
                    *(aio.predict(sample) for _ in range(8))
                )
                return results, aio.stats()

        results, stats = asyncio.run(run())
        scores = np.stack([r.scores for r in results])
        assert (scores == scores[0]).all()
        deduped = sum(r.deduped for r in results)
        assert deduped == stats.dedup_hits and deduped >= 1
        assert sum(not r.deduped for r in results) == 8 - deduped


class TestAsyncCancellation:
    def test_cancel_pre_dispatch_settles_cleanly(self, tiny_network, tiny_data):
        """Cancelling the awaited future before its micro-batch dispatches
        withdraws the request: the await raises CancelledError and the
        batcher counts a cancellation drop, not a flush."""
        sample = tiny_data[2][0]

        async def run():
            async with make_aio(
                tiny_network, max_wait_ms=5000.0, capacities=(64,)
            ) as aio:
                future = aio.submit(sample)
                await asyncio.sleep(0)  # let the submission settle in
                assert future.cancel()
                # One loop tick: done callbacks (cancel back-propagation)
                # run via call_soon, not synchronously inside cancel().
                await asyncio.sleep(0)
                with pytest.raises(asyncio.CancelledError):
                    await future
                return aio

        aio = asyncio.run(run())
        stats = aio.stats()
        assert stats.cancelled == 1
        assert stats.flushes == 0  # the request never cost compute

    def test_served_side_cancel_reaches_the_loop(self, tiny_network, tiny_data):
        """A served future cancelled out from under the loop (e.g. an
        operator tool) cancels the awaiting coroutine."""
        sample = tiny_data[2][0]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(64,),
            max_wait_ms=5000.0,
            cache_size=0,
        )

        async def run():
            aio = AsyncInferenceService(service)
            served = service.submit(sample)
            loop = asyncio.get_running_loop()
            from repro.serve.aio import _bridge

            bridged = _bridge(served, loop)
            served.cancel()
            with pytest.raises(asyncio.CancelledError):
                await bridged
            await aio.close()

        try:
            asyncio.run(run())
        finally:
            service.close()

    def test_failed_admission_mid_batch_cancels_earlier_submits(
        self, tiny_network, tiny_data
    ):
        """predict_many admission failure (queue full partway) cancels the
        already-admitted requests instead of orphaning them."""
        x = tiny_data[2][:4]

        async def run():
            async with make_aio(
                tiny_network,
                max_wait_ms=5000.0,
                capacities=(64,),
                max_pending=2,
                dedupe=False,
            ) as aio:
                with pytest.raises(QueueFull):
                    await aio.predict_many(x)
                await asyncio.sleep(0.05)
                return aio.stats()

        stats = asyncio.run(run())
        assert stats.rejected_full >= 1
        assert stats.flushes == 0  # nothing half-admitted ran


class TestLifecycle:
    def test_wrapping_rejects_service_kwargs(self, tiny_network):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)), capacities=(1,)
        )
        try:
            with pytest.raises(ValueError, match="service_kwargs"):
                AsyncInferenceService(service, max_batch=4)
        finally:
            service.close()

    def test_wrapped_service_outlives_the_adapter(self, tiny_network, tiny_data):
        """Wrapping (not owning) leaves shutdown to the caller."""
        sample = tiny_data[2][0]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1,),
            max_wait_ms=1.0,
        )
        try:

            async def run():
                async with AsyncInferenceService(service) as aio:
                    await aio.predict(sample)

            asyncio.run(run())
            # The adapter closed; the service did not.
            assert service.predict(sample).prediction is not None
        finally:
            service.close()

    def test_submit_after_close_raises(self, tiny_network, tiny_data):
        sample = tiny_data[2][0]

        async def run():
            aio = make_aio(tiny_network)
            await aio.close()
            with pytest.raises(RuntimeError, match="closed"):
                aio.submit(sample)

        asyncio.run(run())

    def test_health_and_stats_passthrough(self, tiny_network):
        async def run():
            async with make_aio(tiny_network) as aio:
                return aio.health(), aio.stats()

        health, stats = asyncio.run(run())
        assert health.ok and stats.requests == 0

    def test_cancelled_error_type_is_catchable_both_ways(self):
        # The bridge maps a served-side CancelledError (concurrent.futures)
        # onto asyncio cancellation; both names must stay importable for
        # callers that catch either.
        assert issubclass(ServedCancelled, BaseException)
