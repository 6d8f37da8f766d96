"""Multiprocess sharded runner: exact merge parity with the serial engine."""

import numpy as np
import pytest

from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.ttfs import TTFSCoding
from repro.reliability import (
    FaultSpec,
    InjectedFault,
    faults,
    reset_fallback_warnings,
)
from repro.snn.engine import Simulator
from repro.snn.monitors import SpikeCountMonitor
from repro.snn.parallel import (
    merge_results,
    resolve_workers,
    run_parallel,
    worker_payload,
)

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=12), None),
    "ttfs_early": (lambda: TTFSCoding(window=12, early_firing=True), None),
    "rate": (lambda: RateCoding(), 30),
    "phase": (lambda: PhaseCoding(), 24),
}


class TestRunParallel:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_matches_serial_dense_engine(self, tiny_network, tiny_data, scheme_key):
        """Sharded multiprocess runs reproduce the serial dense engine
        exactly: predictions, spike counts, accuracy, sample order."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:21], tiny_data[3][:21]
        ref = Simulator(
            tiny_network, factory(), steps=steps, event_driven=False, early_exit=False
        ).run(x, y)
        par = Simulator(tiny_network, factory(), steps=steps).run_parallel(
            x, y, workers=2, batch_size=6
        )
        np.testing.assert_array_equal(par.predictions, ref.predictions)
        assert par.spike_counts == pytest.approx(ref.spike_counts)
        assert par.accuracy == ref.accuracy
        np.testing.assert_allclose(par.scores, ref.scores, rtol=1e-9, atol=1e-12)

    def test_workers_one_is_serial_passthrough(self, tiny_network, tiny_data, monkeypatch):
        """workers=1 must not touch multiprocessing at all."""
        import concurrent.futures

        def boom(*a, **k):  # pragma: no cover - would fail the test if hit
            raise AssertionError("ProcessPoolExecutor used with workers=1")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(
            "repro.snn.parallel.ProcessPoolExecutor", boom
        )
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        serial = sim.run_batched(x, y, batch_size=4)
        par = sim.run_parallel(x, y, workers=1, batch_size=4)
        np.testing.assert_array_equal(par.predictions, serial.predictions)

    def test_single_shard_skips_pool(self, tiny_network, tiny_data):
        x = tiny_data[2][:5]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        par = sim.run_parallel(x, workers=4, batch_size=64)
        assert len(par.predictions) == 5

    def test_monitors_rejected_with_workers(self, tiny_network, tiny_data):
        sim = Simulator(
            tiny_network, TTFSCoding(window=12), monitors=[SpikeCountMonitor()]
        )
        with pytest.raises(ValueError, match="monitors"):
            sim.run_parallel(tiny_data[2][:10], workers=2, batch_size=2)

    def test_invalid_arguments_rejected(self, tiny_network, tiny_data):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(ValueError, match="workers"):
            sim.run_parallel(tiny_data[2][:4], workers=0)
        with pytest.raises(ValueError, match="workers"):
            sim.run_parallel(tiny_data[2][:4], workers="many")
        with pytest.raises(ValueError, match="batch_size"):
            sim.run_parallel(tiny_data[2][:4], batch_size=0)

    def test_bool_workers_rejected(self, tiny_network, tiny_data):
        """bool is an int subclass: workers=True used to slip through as
        workers=1 (and False as an invalid count); both are call-site bugs
        and must be rejected loudly."""
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        for value in (True, False):
            with pytest.raises(ValueError, match="bool"):
                sim.run_parallel(tiny_data[2][:4], workers=value)
            with pytest.raises(ValueError, match="bool"):
                resolve_workers(value, 4)


class TestCompiledParallel:
    def test_compiled_workers_compose(self, tiny_network, tiny_data):
        """compiled=True with workers>1 must run compiled per-worker plans
        (previously one of the two flags was silently dropped), with
        prediction and spike-count parity against the serial engine."""
        x, y = tiny_data[2][:18], tiny_data[3][:18]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        ref = sim.run_batched(x, y, batch_size=6)
        got = sim.run_parallel(x, y, workers=2, batch_size=6, compiled=True)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == pytest.approx(ref.spike_counts)
        np.testing.assert_allclose(got.scores, ref.scores, rtol=1e-9, atol=1e-12)

    def test_compiled_serial_fallback_uses_plan(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """workers resolving to 1 with compiled=True must still honour the
        compiled flag (run through Simulator.run_compiled)."""
        calls = []
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        original = Simulator.run_compiled

        def spy(self, *args, **kwargs):
            calls.append(kwargs.get("batch_size"))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run_compiled", spy)
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        ref = sim.run_batched(x, y, batch_size=4)
        got = run_parallel(sim, x, y, workers=1, batch_size=4, compiled=True)
        assert calls, "serial fallback ignored compiled=True"
        np.testing.assert_array_equal(got.predictions, ref.predictions)

    def test_worker_payload_carries_plan_options(self, tiny_network):
        """The replication recipe must ship compiled/plan_batch — a worker
        that defaulted them would silently run uncompiled or at another
        capacity."""
        import pickle

        sim = Simulator(tiny_network, TTFSCoding(window=12))
        fields = pickle.loads(worker_payload(sim, compiled=True, plan_batch=4))
        assert fields[6] is True  # compiled
        assert fields[7] == 4  # plan batch capacity

    def test_compiled_pool_failure_falls_back_compiled(
        self, tiny_network, tiny_data, monkeypatch, fast_retry
    ):
        def broken_pool(*a, **k):
            raise OSError("no process support")

        monkeypatch.setattr("repro.snn.parallel.ProcessPoolExecutor", broken_pool)
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="falling back"):
            got = run_parallel(sim, x, y, workers=2, batch_size=3, compiled=True)
        ref = sim.run_batched(x, y, batch_size=3)
        np.testing.assert_array_equal(got.predictions, ref.predictions)


class TestAutoWorkers:
    def test_auto_resolution_policy(self, monkeypatch):
        """auto = min(cpu_count, shards); single-core boxes stay serial."""
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        assert resolve_workers("auto", 3) == 3
        assert resolve_workers("auto", 20) == 8
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert resolve_workers("auto", 20) == 1
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert resolve_workers("auto", 20) == 1
        assert resolve_workers(3, 20) == 3  # explicit counts pass through

    def test_auto_stays_serial_on_single_core(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """The BENCH-observed parallel-below-serial regression on 1-core
        hosts cannot happen by default: auto never builds a pool there."""
        def boom(*a, **k):  # pragma: no cover - would fail the test if hit
            raise AssertionError("pool built with auto workers on 1 core")

        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setattr("repro.snn.parallel.ProcessPoolExecutor", boom)
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        par = sim.run_parallel(x, y, workers="auto", batch_size=4)
        serial = sim.run_batched(x, y, batch_size=4)
        np.testing.assert_array_equal(par.predictions, serial.predictions)

    def test_auto_matches_serial_when_parallel(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:12], tiny_data[3][:12]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        par = sim.run_parallel(x, y, workers="auto", batch_size=4)
        serial = sim.run_batched(x, y, batch_size=4)
        np.testing.assert_array_equal(par.predictions, serial.predictions)
        assert par.spike_counts == pytest.approx(serial.spike_counts)

    def test_t2fsnn_run_accepts_auto(self, tiny_network, tiny_data, monkeypatch):
        from repro.core.t2fsnn import T2FSNN
        from repro.runtime import RunConfig

        monkeypatch.setattr("os.cpu_count", lambda: 1)
        model = T2FSNN(tiny_network, window=12)
        x, y = tiny_data[2][:8], tiny_data[3][:8]
        res = model.run(x, y, config=RunConfig(workers="auto", batch_size=4))
        ref = model.run(x, y, config=RunConfig(batch_size=4))
        np.testing.assert_array_equal(res.predictions, ref.predictions)

    def test_pool_failure_falls_back_to_serial(
        self, tiny_network, tiny_data, monkeypatch, fast_retry
    ):
        def broken_pool(*a, **k):
            raise OSError("no process support")

        monkeypatch.setattr("repro.snn.parallel.ProcessPoolExecutor", broken_pool)
        x, y = tiny_data[2][:10], tiny_data[3][:10]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        reset_fallback_warnings()
        with pytest.warns(RuntimeWarning, match="falling back"):
            par = run_parallel(sim, x, y, workers=2, batch_size=3)
        serial = sim.run_batched(x, y, batch_size=3)
        np.testing.assert_array_equal(par.predictions, serial.predictions)


class TestFaultInjection:
    """Deterministic crash injection through the real pool machinery —
    the BrokenExecutor paths that were untestable before the harness."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.uninstall()
        yield
        faults.uninstall()

    def test_killed_worker_run_is_bit_identical_to_clean(
        self, tiny_network, tiny_data, fast_retry, recwarn
    ):
        """Kill exactly one worker mid-shard: the supervisor rebuilds the
        pool, re-dispatches only the unfinished shards, and the merged
        result is bit-identical to the fault-free run — no serial
        fallback, no warning."""
        x, y = tiny_data[2][:18], tiny_data[3][:18]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        ref = sim.run_batched(x, y, batch_size=6)
        with faults.inject(FaultSpec(faults.WORKER_CRASH, times=1)) as plan:
            got = run_parallel(sim, x, y, workers=2, batch_size=6)
            assert plan.remaining(faults.WORKER_CRASH) == 0  # it really fired
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == pytest.approx(ref.spike_counts)
        assert got.accuracy == ref.accuracy
        fallback_warnings = [
            w for w in recwarn if "falling back" in str(w.message)
        ]
        assert not fallback_warnings  # absorbed in-pool, never went serial

    def test_injected_kernel_exception_propagates_verbatim(
        self, tiny_network, tiny_data, fast_retry
    ):
        """A workload error inside a worker is NOT a pool failure: it must
        reach the caller unretried instead of burning the rebuild budget."""
        x = tiny_data[2][:18]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with faults.inject(FaultSpec(faults.KERNEL_EXCEPTION, times=1)) as plan:
            with pytest.raises(InjectedFault, match="kernel.exception"):
                run_parallel(sim, x, workers=2, batch_size=6)
            assert plan.remaining(faults.KERNEL_EXCEPTION) == 0


class TestMergeResults:
    def test_weighted_spike_count_merge(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:14], tiny_data[3][:14]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        a = sim._run(x[:8], y[:8])
        b = sim._run(x[8:], y[8:])
        merged = merge_results([a, b], [8, 6], y, sim.bound.decision_time)
        whole = sim.run(x, y)
        np.testing.assert_array_equal(merged.predictions, whole.predictions)
        assert merged.total_spikes == pytest.approx(whole.total_spikes)
        assert merged.steps == max(a.steps, b.steps)

