"""Simulation engine: correctness against analog references and bookkeeping."""

import numpy as np
import pytest

from repro.coding.rate import RateCoding
from repro.coding.ttfs import TTFSCoding
from repro.snn.engine import Simulator
from repro.snn.monitors import SpikeCountMonitor


class TestRateSimulation:
    def test_matches_analog_predictions(self, tiny_network, tiny_data):
        """Long rate simulation converges to the analog network's argmax."""
        x, y = tiny_data[2][:40], tiny_data[3][:40]
        sim = Simulator(tiny_network, RateCoding(), steps=300)
        result = sim.run(x, y)
        analog = tiny_network.predict_analog(x)
        assert (result.predictions == analog).mean() >= 0.9

    def test_accuracy_close_to_analog(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:40], tiny_data[3][:40]
        result = Simulator(tiny_network, RateCoding(), steps=300).run(x, y)
        analog_acc = float((tiny_network.predict_analog(x) == y).mean())
        assert result.accuracy >= analog_acc - 0.1

    def test_spike_counts_scale_with_steps(self, tiny_network, tiny_data):
        x = tiny_data[2][:10]
        short = Simulator(tiny_network, RateCoding(), steps=50).run(x)
        long = Simulator(tiny_network, RateCoding(), steps=200).run(x)
        assert long.total_spikes > 2 * short.total_spikes

    def test_no_input_spikes_counted_for_analog(self, tiny_network, tiny_data):
        result = Simulator(tiny_network, RateCoding(), steps=20).run(tiny_data[2][:5])
        assert result.spike_counts["input"] == 0.0

    def test_per_stage_counts_present(self, tiny_network, tiny_data):
        result = Simulator(tiny_network, RateCoding(), steps=30).run(tiny_data[2][:5])
        assert set(result.spike_counts) == {"input", "conv1", "conv2"}


class TestEngineValidation:
    def test_wrong_input_shape_rejected(self, tiny_network):
        sim = Simulator(tiny_network, RateCoding(), steps=10)
        with pytest.raises(ValueError, match="input shape"):
            sim.run(np.zeros((2, 3, 8, 8)))

    def test_label_length_mismatch_rejected(self, tiny_network, tiny_data):
        sim = Simulator(tiny_network, RateCoding(), steps=10)
        with pytest.raises(ValueError, match="labels"):
            sim.run(tiny_data[2][:4], tiny_data[3][:3])

    def test_accuracy_none_without_labels(self, tiny_network, tiny_data):
        result = Simulator(tiny_network, RateCoding(), steps=10).run(tiny_data[2][:4])
        assert result.accuracy is None

    @staticmethod
    def _no_pool(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a pool was spawned for invalid inputs")

        monkeypatch.setattr("repro.snn.parallel.ProcessPoolExecutor", boom)

    ENTRY_POINTS = {
        "run": lambda sim, x, y: sim.run(x, y),
        "batched": lambda sim, x, y: sim.run_batched(x, y, batch_size=4),
        "compiled": lambda sim, x, y: sim.run_compiled(x, y, batch_size=4),
        "parallel": lambda sim, x, y: sim.run_parallel(
            x, y, workers=2, batch_size=4
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("num_labels", [13, 5])
    def test_label_count_checked_for_the_whole_call(
        self, tiny_network, tiny_data, monkeypatch, entry, num_labels
    ):
        """Checked once, before any window runs or any pool spawns, with
        both lengths of the call in the message."""
        self._no_pool(monkeypatch)
        x = tiny_data[2][:12]
        y = np.resize(tiny_data[3], num_labels)
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(
            ValueError, match=f"labels length {num_labels} != number of samples 12"
        ):
            self.ENTRY_POINTS[entry](sim, x, y)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_empty_input_rejected(self, tiny_network, monkeypatch, entry):
        self._no_pool(monkeypatch)
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="no samples"):
            self.ENTRY_POINTS[entry](sim, np.zeros((0, 1, 8, 8)), None)


class TestBatchedRun:
    def test_batched_matches_single(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:30], tiny_data[3][:30]
        sim = Simulator(tiny_network, RateCoding(), steps=60)
        whole = sim.run(x, y)
        batched = sim.run_batched(x, y, batch_size=7)
        np.testing.assert_allclose(batched.scores, whole.scores, atol=1e-9)
        assert batched.accuracy == whole.accuracy
        assert batched.total_spikes == pytest.approx(whole.total_spikes)

    def test_small_batch_passthrough(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:5], tiny_data[3][:5]
        sim = Simulator(tiny_network, RateCoding(), steps=20)
        result = sim.run_batched(x, y, batch_size=64)
        assert len(result.predictions) == 5

    def test_monitors_see_one_merged_run_end(self, tiny_network, tiny_data):
        """Monitors get exactly one on_run_end, carrying the merged result
        (regression: they used to receive one per mini-batch)."""

        class EndRecorder(SpikeCountMonitor):
            def __init__(self):
                super().__init__()
                self.end_results = []

            def on_run_end(self, result):
                self.end_results.append(result)

        x, y = tiny_data[2][:30], tiny_data[3][:30]
        monitor = EndRecorder()
        sim = Simulator(tiny_network, RateCoding(), steps=40, monitors=[monitor])
        merged = sim.run_batched(x, y, batch_size=7)
        assert len(monitor.end_results) == 1
        final = monitor.end_results[0]
        assert final is merged
        assert len(final.predictions) == len(x)
        # The monitor still observed every batch's steps.
        assert monitor.samples == len(x)

    def test_monitors_see_one_run_start_and_per_batch_starts(
        self, tiny_network, tiny_data
    ):
        """run_batched gives exactly one on_run_start carrying the *whole*
        test set, plus one on_batch_start per mini-batch (regression:
        on_run_start used to fire once per mini-batch)."""

        class LifecycleRecorder(SpikeCountMonitor):
            def __init__(self):
                super().__init__()
                self.run_starts = []
                self.batch_starts = []

            def on_run_start(self, sim, x, y):
                super().on_run_start(sim, x, y)
                self.run_starts.append(len(x))

            def on_batch_start(self, sim, x, y):
                self.batch_starts.append(len(x))

        x, y = tiny_data[2][:30], tiny_data[3][:30]
        monitor = LifecycleRecorder()
        sim = Simulator(tiny_network, RateCoding(), steps=30, monitors=[monitor])
        sim.run_batched(x, y, batch_size=7)
        assert monitor.run_starts == [30]
        assert monitor.batch_starts == [7, 7, 7, 7, 2]
        assert monitor.samples == 30


class TestMonitorsIntegration:
    def test_spike_count_monitor_agrees_with_result(self, tiny_network, tiny_data):
        x = tiny_data[2][:8]
        monitor = SpikeCountMonitor()
        sim = Simulator(tiny_network, RateCoding(), steps=40, monitors=[monitor])
        result = sim.run(x)
        per_inf = monitor.per_inference()
        assert per_inf[0] == pytest.approx(result.spike_counts["conv1"])
        assert per_inf[1] == pytest.approx(result.spike_counts["conv2"])


class TestResultSummary:
    def test_summary_string(self, tiny_network, tiny_data):
        result = Simulator(tiny_network, RateCoding(), steps=20).run(
            tiny_data[2][:4], tiny_data[3][:4]
        )
        text = result.summary()
        assert "accuracy=" in text and "latency=20" in text


class TestBatchSizeValidation:
    """No silent `batch_size or 64` fallback anywhere on the batched paths."""

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_run_batched_rejects_bad_batch_size(self, tiny_network, tiny_data, bad):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="batch_size"):
            sim.run_batched(tiny_data[2][:4], batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -8, True])
    def test_run_compiled_rejects_bad_batch_size(self, tiny_network, tiny_data, bad):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="batch_size"):
            sim.run_compiled(tiny_data[2][:4], batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -8, True, 2.5])
    def test_compile_rejects_bad_batch_size(self, tiny_network, bad):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="batch_size"):
            sim.compile(batch_size=bad)

    @pytest.mark.parametrize("bad", [0, True, 2.5])
    def test_compile_plan_rejects_bad_batch_size(self, tiny_network, bad):
        from repro.snn.plan import compile_plan

        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="batch_size"):
            compile_plan(sim, batch_size=bad, calibrate=False)

    @pytest.mark.parametrize("bad", [0, -2, True, 2.5])
    def test_plan_run_batched_rejects_bad_batch_size(
        self, tiny_network, tiny_data, bad
    ):
        plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
            batch_size=4, calibrate=False
        )
        with pytest.raises(ValueError, match="batch_size"):
            plan.run_batched(tiny_data[2][:4], batch_size=bad)
