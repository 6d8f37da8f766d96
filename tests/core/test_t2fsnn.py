"""T2FSNN high-level model."""

import numpy as np
import pytest

from repro.core.kernels import KernelParams
from repro.core.t2fsnn import T2FSNN
from repro.runtime import RunConfig


class TestConstruction:
    def test_default_kernel_count(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        assert model.num_sources == 3
        assert len(model.kernel_params) == 3

    def test_kernel_count_validation(self, tiny_network):
        with pytest.raises(ValueError, match="kernel parameter"):
            T2FSNN(tiny_network, window=12, kernel_params=[KernelParams(2.0)])

    def test_repr_mentions_pipeline(self, tiny_network):
        model = T2FSNN(tiny_network, window=12, early_firing=True)
        assert "EF" in repr(model)


class TestLatency:
    def test_baseline_decision_time(self, tiny_network):
        # L = 3 weight layers, T = 12 -> 36.
        assert T2FSNN(tiny_network, window=12).decision_time == 36

    def test_early_firing_decision_time(self, tiny_network):
        # (L-1) * T/2 + T = 2*6 + 12 = 24.
        model = T2FSNN(tiny_network, window=12, early_firing=True)
        assert model.decision_time == 24

    def test_custom_fire_offset(self, tiny_network):
        model = T2FSNN(tiny_network, window=12, early_firing=True, fire_offset=9)
        assert model.decision_time == 2 * 9 + 12

    def test_toggling_ef_changes_latency(self, tiny_network):
        model = T2FSNN(tiny_network, window=12)
        base = model.decision_time
        model.early_firing = True
        assert model.decision_time < base


class TestInference:
    def test_run_returns_result(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=16)
        result = model.run(tiny_data[2][:20], tiny_data[3][:20])
        assert result.accuracy is not None
        assert result.decision_time == model.decision_time

    def test_batched_run_matches(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=16)
        x, y = tiny_data[2][:30], tiny_data[3][:30]
        whole = model.run(x, y)
        batched = model.run(x, y, config=RunConfig(batch_size=7))
        np.testing.assert_allclose(batched.scores, whole.scores, atol=1e-9)

    def test_accuracy_tracks_analog(self, tiny_network, tiny_data):
        x, y = tiny_data[2], tiny_data[3]
        model = T2FSNN(tiny_network, window=24)
        result = model.run(x, y)
        analog = float((tiny_network.predict_analog(x) == y).mean())
        assert result.accuracy >= analog - 0.12

    def test_larger_window_not_worse(self, tiny_network, tiny_data):
        x, y = tiny_data[2], tiny_data[3]
        small = T2FSNN(tiny_network, window=6).run(x, y)
        large = T2FSNN(tiny_network, window=32).run(x, y)
        assert large.accuracy >= small.accuracy - 0.05


class TestCompiledRunCache:
    def test_network_swap_invalidates_compiled_cache(self, tiny_network, tiny_data):
        """Regression: the coding key ignored network identity, so swapping
        self.network (e.g. an astype cast) after a compiled run reused the
        simulator/plan built for the OLD network."""
        x = tiny_data[2][:12]
        compiled = RunConfig(compiled=True)
        model = T2FSNN(tiny_network, window=12)
        r64 = model.run(x, config=compiled)
        assert model.runtime._compiled_sim is not None

        model.network = tiny_network.astype(np.float32)
        r32 = model.run(x, config=compiled)
        # The cached simulator must now be bound to the new network ...
        assert model.runtime._compiled_sim.network is model.network
        # ... and the results must come from the float32 network, not the
        # stale float64 plan.
        fresh = T2FSNN(tiny_network.astype(np.float32), window=12).run(
            x, config=compiled
        )
        assert r32.scores.dtype == np.float32
        np.testing.assert_array_equal(r32.scores, fresh.scores)
        np.testing.assert_array_equal(r32.predictions, fresh.predictions)
        # Sanity: the float64 run was produced by the old network.
        assert r64.scores.dtype == np.float64

    def test_bump_version_invalidates_compiled_cache(self, tiny_network, tiny_data):
        """In-place parameter mutation is invisible to id(); bump_version is
        the declared way to invalidate compiled caches after it."""
        x = tiny_data[2][:8]
        compiled = RunConfig(compiled=True)
        model = T2FSNN(tiny_network, window=12)
        model.run(x, config=compiled)
        first = model.runtime._compiled_sim
        model.run(x, config=compiled)
        assert model.runtime._compiled_sim is first  # stable while unchanged
        model.network.bump_version()
        model.run(x, config=compiled)
        assert model.runtime._compiled_sim is not first
        tiny_network.version = 0  # session-scoped fixture: restore

    def test_kernel_change_still_invalidates(self, tiny_network, tiny_data):
        x = tiny_data[2][:8]
        compiled = RunConfig(compiled=True)
        model = T2FSNN(tiny_network, window=12)
        model.run(x, config=compiled)
        first = model.runtime._compiled_sim
        model.early_firing = True
        model.run(x, config=compiled)
        assert model.runtime._compiled_sim is not first

    def test_compiled_composes_with_workers(self, tiny_network, tiny_data):
        """Regression: compiled + workers silently dropped the compiled
        flag; now workers compile per-process plans."""
        x, y = tiny_data[2][:16], tiny_data[3][:16]
        model = T2FSNN(tiny_network, window=12)
        ref = model.run(x, y, config=RunConfig(batch_size=4))
        got = model.run(
            x, y, config=RunConfig(batch_size=4, workers=2, compiled=True)
        )
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == pytest.approx(ref.spike_counts)

    def test_bool_workers_rejected(self, tiny_network, tiny_data):
        with pytest.raises(ValueError, match="bool"):
            RunConfig(workers=True)


class TestOptimizeKernels:
    def test_parameters_move(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=16)
        before = [(p.tau, p.t_delay) for p in model.kernel_params]
        model.optimize_kernels(tiny_data[0][:128], epochs=3, lr_tau=4.0, lr_td=0.5)
        after = [(p.tau, p.t_delay) for p in model.kernel_params]
        assert before != after

    def test_histories_returned(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=16)
        histories = model.optimize_kernels(tiny_data[0][:64], epochs=1)
        assert len(histories) == model.num_sources
        assert all(len(h) > 0 for h in histories)

    def test_losses_improve(self, tiny_network, tiny_data):
        model = T2FSNN(tiny_network, window=16)
        histories = model.optimize_kernels(
            tiny_data[0][:256], epochs=4, lr_tau=4.0, lr_td=0.5
        )
        # Total loss (averaged over sources) decreases from first to last step.
        first = np.mean([h.precision[0] + h.minimum[0] + h.maximum[0] for h in histories])
        last = np.mean([h.precision[-1] + h.minimum[-1] + h.maximum[-1] for h in histories])
        assert last <= first

    def test_empty_data_rejected(self, tiny_network):
        model = T2FSNN(tiny_network, window=16)
        with pytest.raises(ValueError):
            model.optimize_kernels(np.zeros((0, 1, 8, 8)))

    def test_go_does_not_break_accuracy(self, tiny_network, tiny_data):
        x, y = tiny_data[2], tiny_data[3]
        model = T2FSNN(tiny_network, window=16)
        base_acc = model.run(x, y).accuracy
        model.optimize_kernels(tiny_data[0][:256], epochs=2)
        go_acc = model.run(x, y).accuracy
        assert go_acc >= base_acc - 0.1
