"""In-flight request deduplication (ROADMAP open item, DESIGN.md §11).

Identical samples submitted concurrently (same bytes under the same
coding key) coalesce onto the first request's flush: followers never
occupy a micro-batch slot, resolve with a private copy of the primary's
scores, are counted in ``ServiceStats.dedup_hits`` and marked
``ServedResult.deduped``.  Flush failures propagate to followers.
"""

import numpy as np
import pytest

from repro.coding.ttfs import TTFSCoding
from repro.serve import InferenceService
from repro.snn.engine import Simulator


def _service(tiny_network, **kwargs):
    defaults = dict(
        capacities=(4,), max_wait_ms=100.0, cache_size=0
    )
    defaults.update(kwargs)
    return InferenceService(
        Simulator(tiny_network, TTFSCoding(window=12)), **defaults
    )


class TestDeduplication:
    def test_identical_concurrent_submissions_coalesce(
        self, tiny_network, tiny_data
    ):
        x = tiny_data[2][0]
        with _service(tiny_network) as service:
            futures = [service.submit(x) for _ in range(4)]
            results = [f.result(60.0) for f in futures]
            stats = service.stats()
        assert stats.requests == 4
        assert stats.dedup_hits == 3
        # Only the primary entered a micro-batch.
        assert stats.flushed_samples == 1
        assert not results[0].deduped
        for r in results[1:]:
            assert r.deduped and not r.cached
            np.testing.assert_array_equal(r.scores, results[0].scores)

    def test_deduped_scores_are_private_copies(self, tiny_network, tiny_data):
        x = tiny_data[2][0]
        with _service(tiny_network) as service:
            futures = [service.submit(x) for _ in range(2)]
            primary, follower = [f.result(60.0) for f in futures]
        follower.scores[:] = 123.0
        assert not np.any(primary.scores == 123.0)

    def test_distinct_samples_do_not_coalesce(self, tiny_network, tiny_data):
        with _service(tiny_network) as service:
            results = service.predict_many(tiny_data[2][:4])
            stats = service.stats()
        assert stats.dedup_hits == 0
        assert stats.flushed_samples == 4
        assert not any(r.deduped for r in results)

    def test_sequential_repeats_do_not_coalesce(self, tiny_network, tiny_data):
        """Dedup covers *in-flight* requests only: once the primary's flush
        resolved, a repeat opens its own entry (the LRU cache, when
        enabled, is the replay path for completed requests)."""
        x = tiny_data[2][0]
        with _service(tiny_network, max_wait_ms=5.0) as service:
            first = service.predict(x)
            second = service.predict(x)
            stats = service.stats()
        assert stats.dedup_hits == 0
        assert stats.flushed_samples == 2
        np.testing.assert_array_equal(first.scores, second.scores)
        assert not second.deduped

    def test_dedupe_disabled(self, tiny_network, tiny_data):
        x = tiny_data[2][0]
        with _service(tiny_network, dedupe=False) as service:
            futures = [service.submit(x) for _ in range(3)]
            for f in futures:
                f.result(60.0)
            stats = service.stats()
        assert stats.dedup_hits == 0
        assert stats.flushed_samples == 3

    def test_dedup_respects_coding_key(self, tiny_network, tiny_data):
        """Requests under different coding configurations never coalesce:
        the in-flight digest embeds the submit-time coding key."""
        from repro.core.t2fsnn import T2FSNN

        x = tiny_data[2][0]
        model = T2FSNN(tiny_network, window=12)
        with model.serve(max_batch=4, max_wait_ms=100.0, cache_size=0) as service:
            f0 = service.submit(x)
            model.early_firing = True
            f1 = service.submit(x)
            r0, r1 = f0.result(60.0), f1.result(60.0)
            assert service.stats().dedup_hits == 0
        assert not r1.deduped
        # Both flushed under the key seen at flush time; predictions agree
        # with a fresh early-firing run.
        ef_ref = T2FSNN(tiny_network, window=12, early_firing=True).run(
            x[None]
        )
        assert r1.prediction == int(ef_ref.predictions[0])

    def test_flush_failure_rejects_followers(self, tiny_network, tiny_data):
        x = tiny_data[2][0]
        service = _service(tiny_network)
        try:
            boom = RuntimeError("engine exploded")

            def failing_execute(key, xs):
                raise boom

            service._execute = failing_execute
            futures = [service.submit(x) for _ in range(3)]
            for f in futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    f.result(60.0)
        finally:
            service.close()

    def test_cache_hit_wins_over_dedup(self, tiny_network, tiny_data):
        """A completed identical request replays from the cache without
        registering an in-flight entry."""
        x = tiny_data[2][0]
        with _service(tiny_network, cache_size=8, max_wait_ms=5.0) as service:
            service.predict(x)
            repeat = service.predict(x)
            stats = service.stats()
        assert repeat.cached and not repeat.deduped
        assert stats.dedup_hits == 0
        assert stats.cache_hits == 1
