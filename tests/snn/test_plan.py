"""Compiled execution plans: parity, calibration, arenas, zero allocation.

The parity contract (docs/DESIGN.md §10) has two tiers:

* an *uncalibrated* plan makes exactly the reference engine's kernel
  decisions and must be **bit-identical** — predictions, per-stage spike
  counts and scores — to the uncompiled engine run with ``early_exit=False``
  on every coding scheme (including the phased TTFS/reverse fast loop with
  its bulk drains);
* a *calibrated* plan may pick different kernels per stage, which
  re-associates floating-point sums: predictions and spike counts stay
  exact, scores agree to reassociation error.

The workspace arena must make steady-state inference allocation-free:
repeated ``run_batched`` calls on a compiled plan reuse every buffer
(``Workspace.allocations`` static, state arrays share memory) and retain no
net heap growth (tracemalloc).
"""

import tracemalloc

import numpy as np
import pytest

from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.reverse import ReverseCoding
from repro.coding.ttfs import TTFSCoding
from repro.snn import events as ev
from repro.snn.engine import Simulator
from repro.snn.plan import Workspace

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=16), None),
    "ttfs_early": (lambda: TTFSCoding(window=16, early_firing=True), None),
    "reverse": (lambda: ReverseCoding(window=12), None),
    "rate": (lambda: RateCoding(), 40),
    "phase": (lambda: PhaseCoding(), 32),
    "burst": (lambda: BurstCoding(), 32),
}


def reference(tiny_network, factory, steps, x, y=None):
    return Simulator(
        tiny_network, factory(), steps=steps, early_exit=False
    ).run(x, y)


class TestPlanParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_uncalibrated_plan_is_bit_identical(
        self, tiny_network, tiny_data, scheme_key
    ):
        """Same kernel decisions => same bits, on every coding scheme."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:24], tiny_data[3][:24]
        ref = reference(tiny_network, factory, steps, x, y)
        plan = Simulator(tiny_network, factory(), steps=steps).compile(
            batch_size=24, calibrate=False
        )
        got = plan.run(x, y)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == ref.spike_counts
        assert got.accuracy == ref.accuracy

    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_calibrated_plan_is_loss_free(self, tiny_network, tiny_data, scheme_key):
        """Calibration may re-associate float sums but never changes what
        the run computes."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:16], tiny_data[3][:16]
        ref = reference(tiny_network, factory, steps, x, y)
        plan = Simulator(tiny_network, factory(), steps=steps).compile(
            batch_size=8, calibrate=True
        )
        got = plan.run_batched(x, y, batch_size=8)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == pytest.approx(ref.spike_counts)
        np.testing.assert_allclose(got.scores, ref.scores, rtol=1e-9, atol=1e-12)

    def test_plan_matches_early_exit_runtime(self, tiny_network, tiny_data):
        """The compiled plan and the retirement/early-exit runtime are two
        loss-free views of the same run (silent samples retire mid-run in
        the reference)."""
        x = np.concatenate(
            [np.zeros((2,) + tuple(tiny_network.input_shape)), tiny_data[2][:6]]
        )
        scheme = lambda: TTFSCoding(window=16)  # noqa: E731
        runtime = Simulator(tiny_network, scheme()).run(x)
        plan = Simulator(tiny_network, scheme()).compile(batch_size=8)
        got = plan.run(x)
        np.testing.assert_array_equal(got.predictions, runtime.predictions)
        assert got.spike_counts == pytest.approx(runtime.spike_counts)
        np.testing.assert_allclose(
            got.scores, runtime.scores, rtol=1e-9, atol=1e-12
        )

    def test_overprovisioned_budget_is_trimmed(self, tiny_network, tiny_data):
        """The phased executor stops at the end of the schedule, not at the
        budget — with bit-identical results."""
        x = tiny_data[2][:8]
        scheme = TTFSCoding(window=12)
        decision = scheme.bind(tiny_network).decision_time
        budget = decision + 40
        ref = reference(tiny_network, lambda: TTFSCoding(window=12), budget, x)
        plan = Simulator(tiny_network, TTFSCoding(window=12), steps=budget).compile(
            batch_size=8, calibrate=False
        )
        got = plan.run(x)
        assert got.steps <= decision < budget == ref.steps
        np.testing.assert_array_equal(got.scores, ref.scores)
        assert got.spike_counts == ref.spike_counts

    def test_ragged_last_batch_reuses_arenas(self, tiny_network, tiny_data):
        """A final smaller mini-batch runs as leading views of the same
        arena capacity."""
        x, y = tiny_data[2][:21], tiny_data[3][:21]  # 8 + 8 + 5
        factory = lambda: TTFSCoding(window=16)  # noqa: E731
        ref = reference(tiny_network, factory, None, x, y)
        plan = Simulator(tiny_network, factory()).compile(batch_size=8)
        allocs_before = None
        got = plan.run_batched(x, y, batch_size=8)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        allocs_before = plan.workspace.allocations
        again = plan.run_batched(x, y, batch_size=8)
        np.testing.assert_array_equal(again.scores, got.scores)
        assert plan.workspace.allocations == allocs_before

    def test_plan_with_monitors_uses_generic_path(self, tiny_network, tiny_data):
        """Monitors force the generic per-step loop; observations match the
        uncompiled engine's."""
        from repro.snn.monitors import SpikeCountMonitor

        x = tiny_data[2][:8]
        m_ref, m_plan = SpikeCountMonitor(), SpikeCountMonitor()
        Simulator(tiny_network, TTFSCoding(window=12), monitors=[m_ref]).run(x)
        sim = Simulator(tiny_network, TTFSCoding(window=12), monitors=[m_plan])
        sim.compile(batch_size=8, calibrate=False).run(x)
        assert m_plan.counts == m_ref.counts

    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_every_partial_batch_size_matches_reference(
        self, tiny_network, tiny_data, scheme_key
    ):
        """A plan compiled at capacity C, run at every batch size 1..C
        (leading arena views), reproduces the uncompiled serial engine
        bit-exactly: scores, predictions and per-stage spike counts.  This
        is the invariant the serving layer's partial micro-batches lean on."""
        factory, steps = SCHEMES[scheme_key]
        capacity = 6
        plan = Simulator(tiny_network, factory(), steps=steps).compile(
            batch_size=capacity, calibrate=False
        )
        for k in range(1, capacity + 1):
            x, y = tiny_data[2][:k], tiny_data[3][:k]
            ref = reference(tiny_network, factory, steps, x, y)
            got = plan.run(x, y)
            np.testing.assert_array_equal(got.scores, ref.scores)
            np.testing.assert_array_equal(got.predictions, ref.predictions)
            assert got.spike_counts == ref.spike_counts

    def test_zero_padded_rows_leave_real_rows_intact(self, tiny_network, tiny_data):
        """Row independence: padding a partial batch with zero samples (the
        service's capacity-padding rule) never changes the real rows'
        predictions or their share of the spike totals."""
        k, capacity = 3, 8
        x = tiny_data[2][:k]
        padded = np.zeros((capacity,) + tuple(tiny_network.input_shape))
        padded[:k] = x
        factory = lambda: TTFSCoding(window=12)  # noqa: E731
        plan = Simulator(tiny_network, factory()).compile(
            batch_size=capacity, calibrate=False
        )
        ref = reference(tiny_network, factory, None, x)
        got = plan.run(padded)
        np.testing.assert_array_equal(
            got.predictions[:k], ref.predictions
        )
        np.testing.assert_allclose(
            got.scores[:k], ref.scores, rtol=1e-9, atol=1e-12
        )

    def test_compile_caches_plans(self, tiny_network):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        p1 = sim.compile(batch_size=8, calibrate=False)
        p2 = sim.compile(batch_size=8, calibrate=False)
        assert p1 is p2
        assert sim.compile(batch_size=16, calibrate=False) is not p1

    def test_oversized_batch_rejected(self, tiny_network, tiny_data):
        """plan.run must not silently grow the arenas past the compiled
        capacity; run_batched splits instead."""
        plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
            batch_size=4, calibrate=False
        )
        x = tiny_data[2][:9]
        with pytest.raises(ValueError, match="compiled capacity"):
            plan.run(x)
        got = plan.run_batched(x, batch_size=4)  # the sanctioned route
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        np.testing.assert_array_equal(got.predictions, ref.predictions)


class TestCalibration:
    def test_calibration_records_probed_densities(self, tiny_network):
        plan = Simulator(tiny_network, TTFSCoding(window=16)).compile(
            batch_size=8, calibrate=True
        )
        for pstage in [*plan.stage_plans, plan.readout_plan]:
            assert pstage.calibration is not None
            assert 0.0 <= pstage.threshold <= 1.0
        assert "operator=" in plan.describe()

    def test_uncalibrated_keeps_global_threshold(self, tiny_network):
        sim = Simulator(tiny_network, TTFSCoding(window=16), density_threshold=0.07)
        plan = sim.compile(batch_size=8, calibrate=False)
        assert all(p.threshold == 0.07 for p in plan.stage_plans)
        assert plan.readout_plan.calibration is None


class TestWorkspace:
    def test_buffer_reuse_and_growth(self):
        ws = Workspace()
        a = ws.buffer("k", (4, 8), np.float64)
        b = ws.buffer("k", (4, 8), np.float64)
        assert np.shares_memory(a, b)
        assert ws.allocations == 1
        small = ws.buffer("k", (2, 8), np.float64)  # leading view, no alloc
        assert np.shares_memory(a, small)
        assert ws.allocations == 1
        ws.buffer("k", (8, 8), np.float64)  # capacity grows
        assert ws.allocations == 2

    def test_zeroed_buffer_stays_zero_across_batch_sizes(self):
        ws = Workspace()
        pad = ws.buffer("p", (4, 2, 6, 6), np.float64, zeroed=True)
        pad[:, :, 1:-1, 1:-1] = 7.0  # interior writes only
        pad2 = ws.buffer("p", (2, 2, 6, 6), np.float64, zeroed=True)
        border = np.ones((2, 2, 6, 6), dtype=bool)
        border[:, :, 1:-1, 1:-1] = False
        assert (pad2[border] == 0.0).all()

    def test_cache_memoizes(self):
        ws = Workspace()
        calls = []
        v1 = ws.cache("c", lambda: calls.append(1) or np.arange(3))
        v2 = ws.cache("c", lambda: calls.append(1) or np.arange(3))
        assert v1 is v2 and len(calls) == 1


class TestZeroAllocationSteadyState:
    def test_no_new_arena_allocations_after_warmup(self, tiny_network, tiny_data):
        """Steady state: repeated compiled runs perform zero arena
        allocations and reuse the neuron/readout state storage in place."""
        x = tiny_data[2][:16]
        sim = Simulator(tiny_network, TTFSCoding(window=16))
        plan = sim.compile(batch_size=8)
        plan.run_batched(x, batch_size=8)  # warmup sizes every buffer
        allocs = plan.workspace.allocations
        potential_before = plan.bound.readout.potential
        u_before = [dyn.u for dyn in plan.bound.dynamics]
        plan.run_batched(x, batch_size=8)
        assert plan.workspace.allocations == allocs
        # State arenas are reused across runs, not reallocated.
        assert np.shares_memory(plan.bound.readout.potential, potential_before)
        for dyn, before in zip(plan.bound.dynamics, u_before):
            assert np.shares_memory(dyn.u, before)

    def test_early_firing_event_path_has_no_new_allocations(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """Early firing overlaps the fire windows, so the phased loop delivers
        spikes per step; with every stage pinned to the event kernel, its
        accumulator and drive buffers come from the arena and reach a steady
        state just like the GEMM path's."""
        x = tiny_data[2][:16]
        sim = Simulator(tiny_network, TTFSCoding(window=16, early_firing=True))
        plan = sim.compile(batch_size=8)
        assert plan.phased
        reference = plan.run_batched(x, batch_size=8)
        for pstage in [*plan.stage_plans, plan.readout_plan]:
            pstage.threshold = 1.0  # event kernel at every density
        arena_calls = []
        propagate = ev.apply_stage_events

        def recording(stage, packet, ws=None, index=None):
            arena_calls.append(ws is plan.workspace)
            return propagate(stage, packet, ws, index)

        monkeypatch.setattr(ev, "apply_stage_events", recording)
        plan.run_batched(x, batch_size=8)  # warmup sizes the event buffers
        allocs = plan.workspace.allocations
        arena_calls.clear()
        result = plan.run_batched(x, batch_size=8)
        assert len(arena_calls) > len(plan.stage_plans) and all(arena_calls)
        assert plan.workspace.allocations == allocs
        np.testing.assert_array_equal(result.predictions, reference.predictions)
        assert result.spike_counts == reference.spike_counts

    def test_no_net_heap_growth_across_runs(self, tiny_network, tiny_data):
        """tracemalloc: after warmup, further compiled runs retain no new
        heap memory — per-step temporaries are all transient and every
        persistent buffer comes from the arenas."""
        x = tiny_data[2][:16]
        sim = Simulator(tiny_network, TTFSCoding(window=16))
        plan = sim.compile(batch_size=8)
        for _ in range(2):
            plan.run_batched(x, batch_size=8)
        tracemalloc.start()
        try:
            base = tracemalloc.take_snapshot()
            for _ in range(3):
                plan.run_batched(x, batch_size=8)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        growth = sum(
            s.size_diff for s in after.compare_to(base, "filename")
            if s.size_diff > 0
        )
        # Only interpreter bookkeeping noise (ndarray view headers, dict
        # entries — tens of bytes each) may remain; an uncompiled run
        # reallocates hundreds of KB of state/drive tensors per batch, so a
        # leak of even one real buffer across three runs blows this bound.
        assert growth < 16384, f"retained {growth} bytes across runs"
