"""Runtime: caching, laziness, dtype variants, lifecycle."""

import numpy as np
import pytest

from repro.core.t2fsnn import T2FSNN
from repro.runtime import RunConfig, Runtime


class TestCompiledCache:
    def test_cache_hit_builds_no_simulator(self, tiny_network, tiny_data, monkeypatch):
        """Regression: the old T2FSNN.run built a throwaway Simulator on
        every compiled-cache hit; construction is now lazy in the backend."""
        x = tiny_data[2][:8]
        model = T2FSNN(tiny_network, window=12)
        config = RunConfig(compiled=True, batch_size=8)
        model.run(x, config=config)  # populate the cache

        built = []
        original = Runtime.simulator

        def spy(self, *args, **kwargs):
            built.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Runtime, "simulator", spy)
        model.run(x, config=config)
        assert built == []

    def test_steps_override_is_part_of_cache_key(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=12)
        runtime = model.runtime
        first = runtime.compiled_simulator()
        assert runtime.compiled_simulator() is first
        assert runtime.compiled_simulator(steps=None) is first


class TestDtypeVariants:
    def test_dtype_config_runs_in_float32(self, tiny_network, tiny_data):
        x = tiny_data[2][:8]
        model = T2FSNN(tiny_network, window=12)
        r32 = model.run(x, config=RunConfig(dtype=np.float32))
        assert r32.scores.dtype == np.float32
        # The model's own network is untouched by the variant run.
        assert model.network.dtype == np.float64
        assert model.network is tiny_network

    def test_variant_matches_explicit_cast(self, tiny_network, tiny_data):
        x = tiny_data[2][:8]
        model = T2FSNN(tiny_network, window=12)
        via_config = model.run(x, config=RunConfig(dtype=np.float32))
        via_cast = T2FSNN(tiny_network.astype(np.float32), window=12).run(x)
        np.testing.assert_array_equal(
            via_config.predictions, via_cast.predictions
        )
        np.testing.assert_array_equal(via_config.scores, via_cast.scores)

    def test_variant_network_is_cached(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        runtime = model.runtime
        first = runtime.network_for(np.float32)
        assert runtime.network_for(np.float32) is first
        assert runtime.network_for(None) is tiny_network

    def test_native_dtype_passes_through(self, tiny_network):
        runtime = T2FSNN(tiny_network, window=12).runtime
        assert runtime.network_for(np.float64) is tiny_network


class TestLifecycle:
    def test_closed_runtime_refuses_runs(self, tiny_network, tiny_data):
        runtime = Runtime(T2FSNN(tiny_network, window=12))
        runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            runtime.run(tiny_data[2][:2])
        runtime.close()  # idempotent

    def test_model_replaces_closed_runtime(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=12)
        first = model.runtime
        first.close()
        assert model.runtime is not first
        model.run(tiny_data[2][:2])  # fresh runtime serves again

    def test_close_shuts_down_open_services(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=12)
        service = model.serve(max_batch=2, max_wait_ms=2.0)
        model.runtime.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(tiny_data[2][0])

    def test_context_manager(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=12)
        with model.runtime as runtime:
            runtime.run(tiny_data[2][:2])
        assert runtime.closed

    def test_reset_drops_caches(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=12)
        model.run(tiny_data[2][:4], config=RunConfig(compiled=True))
        runtime = model.runtime
        assert runtime._compiled_sim is not None
        runtime.reset()
        assert runtime._compiled_sim is None
        assert not runtime.closed


class TestServeConfigRejections:
    """serve() rejects config options it cannot honour instead of
    silently ignoring them (the failure mode this PR exists to kill)."""

    def test_serve_rejects_dtype(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with pytest.raises(ValueError, match="dtype"):
            model.serve(config=RunConfig(dtype=np.float32))

    def test_serve_rejects_foreign_backend(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with pytest.raises(ValueError, match="backend"):
            model.serve(config=RunConfig(backend="compiled", compiled=True))

    def test_serve_accepts_service_backend_name(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with model.serve(
            max_batch=2, max_wait_ms=2.0, config=RunConfig(backend="service")
        ):
            pass

    def test_serve_rejects_monitors(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with pytest.raises(ValueError, match="monitors"):
            model.serve(config=RunConfig(monitors=(object(),)))


class TestInputValidation:
    """The service backend checks inputs against labels before it opens a
    service (the Simulator entry points are covered in test_engine)."""

    CONFIG = RunConfig(backend="service", batch_size=4)

    @pytest.mark.parametrize("num_labels", [13, 5])
    def test_label_count_mismatch(self, tiny_network, tiny_data, num_labels):
        model = T2FSNN(tiny_network, window=12)
        x, y = tiny_data[2][:12], np.resize(tiny_data[3], num_labels)
        with pytest.raises(
            ValueError, match=f"labels length {num_labels} != number of samples 12"
        ):
            model.run(x, y, config=self.CONFIG)

    def test_empty_input(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with pytest.raises(ValueError, match="no samples"):
            model.run(np.zeros((0, 1, 8, 8)), config=self.CONFIG)


class TestServiceSourcing:
    def test_service_shares_runtime_coding_key(self, tiny_network, tiny_data):
        """Model-backed services source simulators and keys from the same
        Runtime the compiled path uses — one invalidation rule."""
        model = T2FSNN(tiny_network, window=12)
        with model.serve(max_batch=4, max_wait_ms=5.0, cache_size=0) as service:
            assert service._runtime is model.runtime
            assert service._coding_key() == model.runtime.coding_key()

    def test_runtime_passed_directly_as_source(self, tiny_network, tiny_data):
        from repro.serve.service import InferenceService

        model = T2FSNN(tiny_network, window=12)
        x = tiny_data[2][:4]
        ref = model.run(x)
        with InferenceService(
            model.runtime, max_batch=4, max_wait_ms=5.0, cache_size=0
        ) as service:
            results = service.predict_many(x)
        np.testing.assert_array_equal(
            np.array([r.prediction for r in results]), ref.predictions
        )


class TestAnytimeBackend:
    def test_budget_config_returns_anytime_result(self, tiny_network, tiny_data):
        from repro.snn import AnytimeResult

        model = T2FSNN(tiny_network, window=12)
        x = tiny_data[2][:8]
        ref = model.run(x)
        result = model.run(x, config=RunConfig(budget_ms=60_000.0))
        assert isinstance(result, AnytimeResult)
        assert not result.budget_exhausted
        np.testing.assert_array_equal(result.predictions, ref.predictions)
        assert result.margins.shape == (8,)

    def test_compiled_budget_routes_through_plan(self, tiny_network, tiny_data):
        from repro.snn import AnytimeResult

        model = T2FSNN(tiny_network, window=12)
        x = tiny_data[2][:8]
        config = RunConfig(compiled=True, budget_ms=60_000.0)
        result = model.run(x, config=config)
        assert isinstance(result, AnytimeResult)
        assert not result.budget_exhausted

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(),
            RunConfig(batch_size=4),
            RunConfig(compiled=True, batch_size=4),
        ],
        ids=["serial", "serial-batched", "compiled"],
    )
    def test_non_binding_budget_is_bit_identical(
        self, tiny_network, tiny_data, config
    ):
        """A budget is an option of the serial and compiled backends: one
        that never binds changes nothing but the result's type."""
        from dataclasses import replace

        from repro.snn import AnytimeResult

        model = T2FSNN(tiny_network, window=12)
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        ref = model.run(x, y, config=config)
        result = model.run(x, y, config=replace(config, budget_ms=60_000.0))
        assert isinstance(result, AnytimeResult)
        assert not isinstance(ref, AnytimeResult)
        assert not result.budget_exhausted
        np.testing.assert_array_equal(result.scores, ref.scores)
        np.testing.assert_array_equal(result.predictions, ref.predictions)
        assert result.spike_counts == ref.spike_counts
        assert result.steps == ref.steps

    def test_auto_selected_batch_backend_rejects_deadline(
        self, tiny_network, tiny_data
    ):
        """Runtime.run re-validates the config under the backend it
        resolved, so RunConfig's deadline rule covers auto-selection."""
        model = T2FSNN(tiny_network, window=12)
        for config in (
            RunConfig(deadline_ms=10.0),
            RunConfig(deadline_ms=10.0, budget_ms=10.0),
            RunConfig(deadline_ms=10.0, compiled=True),
        ):
            with pytest.raises(ValueError, match="deadline_ms"):
                model.run(tiny_data[2][:4], config=config)

    def test_min_confidence_config(self, tiny_network, tiny_data):
        from repro.snn import AnytimeResult

        model = T2FSNN(tiny_network, window=12)
        x, y = tiny_data[2], tiny_data[3]
        full = model.run(x, y)
        result = model.run(x, y, config=RunConfig(min_confidence=0.3))
        assert isinstance(result, AnytimeResult)
        assert result.accuracy >= full.accuracy - 0.04

    def test_serve_rejects_min_confidence(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with pytest.raises(ValueError, match="min_confidence"):
            model.serve(config=RunConfig(min_confidence=0.3))

    def test_serve_threads_budget_to_the_service(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        with model.serve(
            config=RunConfig(budget_ms=5_000.0), max_batch=4, cache_size=0
        ) as service:
            assert service._budget_ms == 5_000.0
