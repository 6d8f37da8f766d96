"""InferenceService: request/batch parity, partial flushes, caching,
reconfiguration.

The load-bearing contract: predictions served through the micro-batching
service are **bit-identical** to ``Simulator.run`` on every coding scheme,
at every batch size from 1 up to the largest compiled capacity — a partial
batch runs unpadded on the smallest plan that holds it, as leading views
of that plan's arenas.
"""

import numpy as np
import pytest

from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.reverse import ReverseCoding
from repro.coding.ttfs import TTFSCoding
from repro.core.t2fsnn import T2FSNN
from repro.serve import InferenceService
from repro.snn.engine import Simulator

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=12), None),
    "ttfs_early": (lambda: TTFSCoding(window=12, early_firing=True), None),
    "reverse": (lambda: ReverseCoding(window=10), None),
    "rate": (lambda: RateCoding(), 30),
    "phase": (lambda: PhaseCoding(), 24),
    "burst": (lambda: BurstCoding(), 24),
}


class TestServiceParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_predictions_bit_identical_at_every_batch_size(
        self, tiny_network, tiny_data, scheme_key
    ):
        """Service predictions == Simulator.run predictions for every
        submission size 1..capacity (partial sizes run below capacity)."""
        factory, steps = SCHEMES[scheme_key]
        capacity = 4
        service = InferenceService(
            Simulator(tiny_network, factory(), steps=steps),
            capacities=(1, 2, capacity),
            max_wait_ms=5.0,
            cache_size=0,
        )
        with service:
            for k in range(1, capacity + 1):
                x = tiny_data[2][:k]
                ref = Simulator(tiny_network, factory(), steps=steps).run(x)
                results = service.predict_many(x)
                got = np.array([r.prediction for r in results])
                np.testing.assert_array_equal(got, ref.predictions)
                scores = np.stack([r.scores for r in results])
                np.testing.assert_allclose(
                    scores, ref.scores, rtol=1e-9, atol=1e-12
                )

    def test_full_capacity_scores_bit_identical(self, tiny_network, tiny_data):
        """At exactly the compiled capacity (no padding, same GEMM shapes),
        the service is bit-identical in scores too."""
        x = tiny_data[2][:6]
        ref = Simulator(
            tiny_network, TTFSCoding(window=12), early_exit=False
        ).run(x)
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(6,),
            max_wait_ms=50.0,
            cache_size=0,
        )
        with service:
            results = service.predict_many(x)
        scores = np.stack([r.scores for r in results])
        np.testing.assert_array_equal(scores, ref.scores)

    def test_partial_flush_runs_unpadded(self, tiny_network, tiny_data, monkeypatch):
        """A 3-sample flush runs as 3 rows on the capacity-4 plan, with no
        padding, and its rows are bit-identical to ``Simulator.run``."""
        from repro.snn.plan import ExecutionPlan

        runs = []
        original = ExecutionPlan.run

        def recording(plan, x, *args, **kwargs):
            runs.append((plan.batch_size, len(x)))
            return original(plan, x, *args, **kwargs)

        monkeypatch.setattr(ExecutionPlan, "run", recording)
        x = tiny_data[2][:3]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(2, 4, 8),
            max_wait_ms=50.0,
            cache_size=0,
        )
        with service:
            results = service.predict_many(x)
            stats = service.stats()
        assert runs == [(4, 3)]
        assert stats.padded_samples == 0
        assert stats.flush_sizes == {3: 1}
        ref = Simulator(tiny_network, TTFSCoding(window=12), early_exit=False).run(x)
        np.testing.assert_array_equal(np.stack([r.scores for r in results]), ref.scores)
        np.testing.assert_array_equal(
            np.array([r.prediction for r in results]), ref.predictions
        )


class TestModelService:
    def test_t2fsnn_serve_matches_run(self, tiny_network, tiny_data):
        x = tiny_data[2][:10]
        model = T2FSNN(tiny_network, window=12)
        ref = model.run(x)
        with model.serve(max_batch=4, max_wait_ms=5.0, cache_size=0) as service:
            results = service.predict_many(x)
        np.testing.assert_array_equal(
            np.array([r.prediction for r in results]), ref.predictions
        )

    def test_model_reconfiguration_compiles_new_plans(
        self, tiny_network, tiny_data
    ):
        """Toggling early_firing mid-service must serve the new schedule
        (fresh plans under the new coding key), not stale plans."""
        x = tiny_data[2][:6]
        model = T2FSNN(tiny_network, window=12)
        with model.serve(max_batch=6, max_wait_ms=5.0, cache_size=0) as service:
            base = service.predict_many(x)
            plans_before = service.stats().plans_compiled
            model.early_firing = True
            ef_ref = model.run(x)
            ef = service.predict_many(x)
            assert service.stats().plans_compiled > plans_before
        np.testing.assert_array_equal(
            np.array([r.prediction for r in ef]), ef_ref.predictions
        )
        base_ref = T2FSNN(tiny_network, window=12).run(x)
        np.testing.assert_array_equal(
            np.array([r.prediction for r in base]), base_ref.predictions
        )

    def test_network_swap_serves_new_network(self, tiny_network, tiny_data):
        """The plan-pool key embeds the network identity token (same bug
        class as T2FSNN's compiled-run cache)."""
        x = tiny_data[2][:4]
        model = T2FSNN(tiny_network, window=12)
        with model.serve(max_batch=4, max_wait_ms=5.0, cache_size=8) as service:
            r64 = service.predict_many(x)
            model.network = tiny_network.astype(np.float32)
            r32 = service.predict_many(x)
        assert r64[0].scores.dtype == np.float64
        assert r32[0].scores.dtype == np.float32
        assert not any(r.cached for r in r32)  # old-config cache not replayed


class TestServiceCache:
    def test_repeat_requests_hit_cache(self, tiny_network, tiny_data):
        x = tiny_data[2][:4]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(4,),
            max_wait_ms=5.0,
            cache_size=16,
        )
        with service:
            first = service.predict_many(x)
            again = service.predict_many(x)
            stats = service.stats()
        assert not any(r.cached for r in first)
        assert all(r.cached for r in again)
        assert stats.cache_hits == 4
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a.scores, b.scores)
            assert b.batch_size == 0  # cache hits never enter a batch

    def test_reconfiguration_invalidates_cache(self, tiny_network, tiny_data):
        x = tiny_data[2][:2]
        model = T2FSNN(tiny_network, window=12)
        with model.serve(max_batch=2, max_wait_ms=5.0, cache_size=16) as service:
            service.predict_many(x)
            model.early_firing = True
            results = service.predict_many(x)
        assert not any(r.cached for r in results)

    def test_cached_scores_are_private_copies(self, tiny_network, tiny_data):
        x = tiny_data[2][:1]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1,),
            max_wait_ms=2.0,
            cache_size=4,
        )
        with service:
            first = service.predict(x[0])
            first.scores[:] = 123.0  # caller scribbles on its result
            again = service.predict(x[0])
        assert again.cached
        assert not np.any(again.scores == 123.0)


class TestWorkerDispatch:
    def test_sharded_dispatch_parity(self, tiny_network, tiny_data):
        """workers=2 shards flushes over a persistent pool (per-worker
        compiled plans); falls back to serial if the host cannot pool —
        parity must hold either way.  A non-binding budget_ms runs each
        shard as an anytime window in its worker and must change nothing:
        same scores as the serial service, and no partial flag."""
        x = tiny_data[2][:8]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)

        def service(workers):
            return InferenceService(
                Simulator(tiny_network, TTFSCoding(window=12)),
                capacities=(8,),
                max_wait_ms=10.0,
                cache_size=0,
                workers=workers,
            )

        def scores(results):
            return np.stack([r.scores for r in results])

        with service(1) as serial:
            serial_scores = scores(serial.predict_many(x, timeout=120.0))
        with service(2) as sharded:
            for budget_ms in (None, 5000.0):
                futures = [sharded.submit(s, budget_ms=budget_ms) for s in x]
                results = [f.result(120.0) for f in futures]
                np.testing.assert_array_equal(
                    np.array([r.prediction for r in results]), ref.predictions
                )
                # Shard widths differ from the serial service's flush width,
                # so scores agree to BLAS-shape reassociation error.
                np.testing.assert_allclose(
                    scores(results), serial_scores, rtol=1e-9, atol=1e-12
                )
                assert not any(r.partial for r in results)

    def test_auto_workers_single_core_stays_serial(
        self, tiny_network, monkeypatch
    ):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(4,),
            workers="auto",
        )
        with service:
            assert service.stats().workers == 1


class TestValidation:
    def test_wrong_shape_rejected(self, tiny_network):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)), capacities=(2,)
        )
        with service:
            with pytest.raises(ValueError, match="shape"):
                service.submit(np.zeros((3, 3)))

    def test_batch_dim_of_one_accepted(self, tiny_network, tiny_data):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1,),
            max_wait_ms=2.0,
        )
        with service:
            result = service.predict(tiny_data[2][:1])  # (1, C, H, W)
        assert result.scores.shape == (3,)

    def test_submitted_buffer_can_be_reused_by_caller(
        self, tiny_network, tiny_data
    ):
        """submit() must copy the sample: a client reusing one buffer for
        consecutive requests (overwriting it before the flush fires) must
        still get each request's own answer."""
        x0, x1 = tiny_data[2][0], tiny_data[2][1]
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(2,),
            max_wait_ms=50.0,
            cache_size=0,
        )
        buf = np.array(x0)
        with service:
            f0 = service.submit(buf)
            buf[:] = x1  # overwritten while the request is still queued
            f1 = service.submit(buf)
            r0, r1 = f0.result(30.0), f1.result(30.0)
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(
            np.stack([x0, x1])
        )
        np.testing.assert_allclose(r0.scores, ref.scores[0], rtol=1e-9)
        np.testing.assert_allclose(r1.scores, ref.scores[1], rtol=1e-9)

    def test_monitored_simulator_rejected(self, tiny_network):
        from repro.snn.monitors import SpikeCountMonitor

        sim = Simulator(
            tiny_network, TTFSCoding(window=12), monitors=[SpikeCountMonitor()]
        )
        with pytest.raises(ValueError, match="monitors"):
            InferenceService(sim)

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError, match="T2FSNN model, a Runtime or a Simulator"):
            InferenceService(object())

    def test_submit_after_close_raises(self, tiny_network, tiny_data):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)), capacities=(2,)
        )
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(tiny_data[2][0])

    def test_bool_workers_rejected(self, tiny_network):
        with pytest.raises(ValueError, match="bool"):
            InferenceService(
                Simulator(tiny_network, TTFSCoding(window=12)), workers=True
            )

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            (dict(capacities=(2.5,)), "capacities"),
            (dict(capacities=(True, 4)), "capacities"),
            (dict(max_batch=2.5), "max_batch"),
            (dict(max_batch=True), "max_batch"),
        ],
        ids=["float-capacity", "bool-capacity", "float-max-batch", "bool-max-batch"],
    )
    def test_non_int_capacities_rejected(self, tiny_network, kwargs, name):
        """Capacities are batch sizes: a float or bool is an error, not a
        value to truncate."""
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            InferenceService(Simulator(tiny_network, TTFSCoding(window=12)), **kwargs)


class TestSimulatorIsolation:
    def test_service_runs_on_a_private_replica(self, tiny_network, tiny_data):
        """The caller's simulator stays the caller's: the service compiles
        and runs its plans on a replica, and a plan fetched after hang
        recovery shares no execution state with the abandoned one."""
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with InferenceService(sim, capacities=(2,)) as service:
            key = service._coding_key()
            before = service._plan_for(key, 2)
            assert before.simulator is not sim
            assert before.bound is not sim.bound
            service._recover_from_hang()
            after = service._plan_for(key, 2)
            assert after.bound is not before.bound
            assert after.workspace is not before.workspace
            result = service.predict(tiny_data[2][0])
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(tiny_data[2][:1])
        assert result.prediction == ref.predictions[0]


class TestStatsExports:
    def test_stats_as_dict_covers_every_field(self, tiny_network):
        """The /metrics contract: every ServiceStats dataclass field (and
        the derived mean) appears in the flat export — a counter added to
        the dataclass can never silently miss the HTTP surface."""
        import dataclasses

        from repro.serve import ServiceStats

        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1, 2),
            max_wait_ms=1.0,
        )
        with service:
            exported = service.stats().as_dict()
        field_names = {f.name for f in dataclasses.fields(ServiceStats)}
        assert field_names <= set(exported)
        assert "mean_flush_size" in exported
        # JSON-ready: dict-valued fields carry string keys.
        assert all(
            isinstance(k, str)
            for v in exported.values()
            if isinstance(v, dict)
            for k in v
        )

    def test_health_as_dict_covers_every_field(self, tiny_network):
        import dataclasses

        from repro.serve import ServiceHealth

        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1,),
            max_wait_ms=1.0,
        )
        with service:
            exported = service.health().as_dict()
        field_names = {f.name for f in dataclasses.fields(ServiceHealth)}
        assert field_names <= set(exported)
        assert exported["ok"] is True


class TestPriorityAndAdaptiveKnobs:
    def test_priority_validation(self, tiny_network):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1,),
            max_wait_ms=1.0,
        )
        x = np.zeros(service.input_shape, dtype=np.float64)
        with service:
            with pytest.raises(ValueError, match="priority"):
                service.submit(x, priority=1.5)
            with pytest.raises(ValueError, match="priority"):
                service.submit(x, priority=True)
            future = service.submit(x, priority=-3)
            assert future.priority == -3
            future.result(timeout=30)

    def test_adaptive_knobs_reach_batcher_and_stats(self, tiny_network):
        service = InferenceService(
            Simulator(tiny_network, TTFSCoding(window=12)),
            capacities=(1, 4),
            max_wait_ms=2.0,
            adaptive_wait=True,
            wait_ceiling_ms=40.0,
        )
        with service:
            assert service._batcher.adaptive_wait
            assert service._batcher.wait_ceiling_s == pytest.approx(0.040)
            stats = service.stats()
            # Before two arrivals the adaptive wait is the base wait.
            assert stats.adaptive_wait_ms == pytest.approx(2.0)
            assert stats.arrival_rate_per_s == 0.0
            x = np.zeros(service.input_shape, dtype=np.float64)
            service.predict_many(np.stack([x] * 3 ) + np.arange(3)[:, None, None, None])
            assert service.stats().arrival_rate_per_s > 0.0
        # Exported flat dict carries both fields.
        exported = stats.as_dict()
        assert "adaptive_wait_ms" in exported and "arrival_rate_per_s" in exported
