"""Compiled execution plans: parity, kernel rule, arenas, zero allocation.

The parity contract (docs/DESIGN.md §10): a plan makes exactly the
reference engine's kernel decisions and must be **bit-identical** —
predictions, per-stage spike counts and scores — to the uncompiled engine
run with ``early_exit=False`` on every coding scheme (including the phased
TTFS/reverse fast loop with its bulk drains).

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
from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons
from repro.nn.layers import AvgPool2D, Conv2D, Dense
from repro.snn import events as ev
from repro.snn import plan as plan_mod
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
            batch_size=24
        )
        got = plan.run(x, y)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == ref.spike_counts
        assert got.accuracy == ref.accuracy

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
            batch_size=8
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
        sim.compile(batch_size=8).run(x)
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
            batch_size=capacity
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
            batch_size=capacity
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
        p1 = sim.compile(batch_size=8)
        p2 = sim.compile(batch_size=8)
        assert p1 is p2
        assert sim.compile(batch_size=16) is not p1

    def test_oversized_batch_rejected(self, tiny_network, tiny_data):
        """plan.run must not silently grow the arenas past the compiled
        capacity; run_batched splits instead."""
        plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
            batch_size=4
        )
        x = tiny_data[2][:9]
        with pytest.raises(ValueError, match="compiled capacity"):
            plan.run(x)
        got = plan.run_batched(x, batch_size=4)  # the sanctioned route
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        np.testing.assert_array_equal(got.predictions, ref.predictions)


def pinned_plan(tiny_network, threshold: float, batch_size: int = 8):
    """A baseline TTFS plan with every stage's threshold pinned: 0.0 sends
    every bulk drain dense (GEMM receivers), 1.0 keeps them packets."""
    plan = Simulator(tiny_network, TTFSCoding(window=16)).compile(
        batch_size=batch_size
    )
    for pstage in [*plan.stage_plans, plan.readout_plan]:
        pstage.threshold = threshold
    return plan


@pytest.fixture()
def drain_log(monkeypatch):
    """Records the form (packet or dense array) of every bulk drain."""
    log = []

    def spy(cls, name):
        original = getattr(cls, name)

        def recording(self, *args, **kwargs):
            spikes, count = original(self, *args, **kwargs)
            log.append(type(spikes))
            return spikes, count

        monkeypatch.setattr(cls, name, recording)

    spy(TTFSInputEncoder, "drain_events")
    spy(TTFSNeurons, "drain_fire_events")
    return log


class TestDenseDrain:
    """Baseline bulk drains go dense exactly when the receiving stage's
    threshold sends them through the GEMM — with the reference's results."""

    @pytest.mark.parametrize("threshold, form", [(0.0, np.ndarray), (1.0, ev.SpikePacket)])
    def test_pinned_plan_matches_reference(
        self, tiny_network, tiny_data, drain_log, threshold, form
    ):
        x, y = tiny_data[2][:21], tiny_data[3][:21]
        ref = reference(tiny_network, lambda: TTFSCoding(window=16), None, x, y)
        got = pinned_plan(tiny_network, threshold).run_batched(x, y, batch_size=8)
        # encoder + 2 spiking stages, for each of the 3 mini-batches
        assert drain_log == [form] * 9
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == ref.spike_counts
        np.testing.assert_allclose(got.scores, ref.scores, rtol=1e-9, atol=1e-12)

    def test_back_to_back_runs_match_fresh_plans(self, tiny_network, tiny_data, drain_log):
        """Dense drains overwrite the drained stage's consumed drive view and
        the receivers' arena buffers; nothing of one run leaks into the next."""
        inputs = [tiny_data[2][:8], tiny_data[2][8:16], tiny_data[2][16:21], tiny_data[2][:8]]
        plan = pinned_plan(tiny_network, 0.0)
        reused = [plan.run(x) for x in inputs]
        assert set(drain_log) == {np.ndarray}
        for x, got in zip(inputs, reused):
            fresh = pinned_plan(tiny_network, 0.0).run(x)
            np.testing.assert_array_equal(got.scores, fresh.scores)
            assert got.spike_counts == fresh.spike_counts

    def test_dense_drain_reuses_the_consumed_drive(self, tiny_network, tiny_data, monkeypatch):
        """A stage drained right after its last flush writes its spikes into
        that flush's drive; only the encoder needs a receiver arena buffer."""
        plan = pinned_plan(tiny_network, 0.0)
        aliased = []
        original = TTFSNeurons.drain_fire_events

        def recording(self, t, drive=None, **kwargs):
            spikes, count = original(self, t, drive, **kwargs)
            aliased.append(spikes is drive)
            return spikes, count

        monkeypatch.setattr(TTFSNeurons, "drain_fire_events", recording)
        plan.run(tiny_data[2][:8])
        assert aliased == [True] * len(plan.stage_plans)
        drains = [key for key in plan.workspace._buffers if key[0] == "drain"]
        assert drains == [("drain", 0)]


class TestKernelRule:
    def test_plan_keeps_the_simulator_threshold(self, tiny_network):
        sim = Simulator(tiny_network, TTFSCoding(window=16), density_threshold=0.07)
        plan = sim.compile(batch_size=8)
        assert all(p.threshold == 0.07 for p in plan.stage_plans)
        assert plan.readout_plan.threshold == 0.07
        assert "operator=" in plan.describe()

    def test_compile_runs_no_probe(self, tiny_network, monkeypatch):
        """A default compile binds the engine's density rule to every stage
        without simulating anything."""
        runs = []
        original = Simulator._run

        def counting(self, *args, **kwargs):
            runs.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "_run", counting)
        sim = Simulator(tiny_network, TTFSCoding(window=16))
        plan = sim.compile(batch_size=8)
        assert runs == []
        assert all(
            p.threshold == sim.density_threshold
            for p in [*plan.stage_plans, plan.readout_plan]
        )


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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_buffers_start_on_distinct_cache_lines(self, dtype):
        """Page-multiple buffers allocated back to back must start on
        distinct cache lines of a page (4K aliasing between streamed
        arrays); malloc alone puts them 16 bytes apart."""
        ws = Workspace()
        bufs = [ws.buffer(i, (8, 4096), dtype, zeroed=i % 2 == 0) for i in range(16)]
        assert len({b.ctypes.data % 4096 // 64 for b in bufs}) == 16
        assert all(b.flags.c_contiguous and b.nbytes == 8 * 4096 * b.itemsize for b in bufs)
        assert not bufs[0].any()


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

        def recording(stage, packet, ws=None, index=None, *into):
            arena_calls.append(ws is plan.workspace)
            return propagate(stage, packet, ws, index, *into)

        monkeypatch.setattr(ev, "apply_stage_events", recording)
        plan.run_batched(x, batch_size=8)  # warmup sizes the event buffers
        allocs = plan.workspace.allocations
        arena_calls.clear()
        result = plan.run_batched(x, batch_size=8)
        assert len(arena_calls) > len(plan.stage_plans) and all(arena_calls)
        assert plan.workspace.allocations == allocs
        np.testing.assert_array_equal(result.predictions, reference.predictions)
        assert result.spike_counts == reference.spike_counts

    def test_dense_drains_allocate_nothing_stage_sized(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """With every receiver on the GEMM, each bulk drain writes a dense
        tensor into a buffer the plan owns: steady-state runs make no arena
        allocations, and no drain allocates anything near its stage's size
        (its scratch is shared arena storage)."""
        x = tiny_data[2][:64]
        plan = pinned_plan(tiny_network, 0.0, batch_size=64)
        plan.run(x)  # warmup sizes every buffer
        allocs = plan.workspace.allocations
        peaks = []

        def traced(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                spikes, count = original(self, *args, **kwargs)
                peaks.append((tracemalloc.get_traced_memory()[1] - before, spikes.nbytes))
                return spikes, count

            monkeypatch.setattr(cls, name, wrapper)

        traced(TTFSInputEncoder, "drain_events")
        traced(TTFSNeurons, "drain_fire_events")
        # numpy's per-call ufunc buffers (casting, strided operands) hold at
        # most bufsize elements; shrink them so they cannot pass for a
        # stage-sized temporary on this tiny network.
        bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            plan.run(x)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert plan.workspace.allocations == allocs
        assert len(peaks) == 1 + len(plan.stage_plans)
        for peak, stage_bytes in peaks:
            assert peak < stage_bytes / 8, (peak, stage_bytes)

    def test_dense_flushes_allocate_nothing_stage_sized(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """Every conv/pool/dense flush on the baseline schedule runs in the
        arena: steady-state runs make no arena allocations, and no
        ``apply_dense`` call allocates anything near its stage's size."""
        x = tiny_data[2][:64]
        plan = pinned_plan(tiny_network, 0.0, batch_size=64)
        plan.run(x)  # warmup sizes every buffer
        plan.run(x)
        allocs = plan.workspace.allocations
        peaks = []
        original = plan_mod.StagePlan.apply_dense

        def traced(self, spikes):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            drive = original(self, spikes)
            peak = tracemalloc.get_traced_memory()[1] - before
            peaks.append((peak, spikes.nbytes, drive.nbytes))
            return drive

        monkeypatch.setattr(plan_mod.StagePlan, "apply_dense", traced)
        # numpy's per-call ufunc buffers hold at most bufsize elements;
        # shrink them so they cannot pass for a stage-sized temporary.
        bufsize = np.setbufsize(64)
        tracemalloc.start()
        try:
            plan.run(x)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert plan.workspace.allocations == allocs
        assert len(peaks) == 1 + len(plan.stage_plans)
        for peak, in_bytes, out_bytes in peaks:
            assert peak < max(in_bytes, out_bytes) / 8, (peak, in_bytes, out_bytes)

    @pytest.mark.parametrize("capacity", [1, 5, 64])
    def test_conv_im2col_scratch_is_one_sample(self, tiny_network, tiny_data, capacity):
        """The arena's one im2col slab holds the plan's largest one-sample
        ``C*KH*KW*L`` block whatever the plan's capacity; each parity's
        GEMM slab holds the batch drive of its largest conv stage."""
        plan = Simulator(tiny_network, TTFSCoding(window=16)).compile(batch_size=capacity)
        plan.run_batched(tiny_data[2][:64])
        ws = plan.workspace
        blocks, drives = [], {0: 0, 1: 0}
        for pstage in [*plan.stage_plans, plan.readout_plan]:
            shape = pstage.in_shape
            for op in pstage.stage.ops:
                if isinstance(op, Conv2D):
                    c, h, w = shape
                    _, out_h, out_w = op.output_shape(shape)
                    itemsize = op.weight.data.itemsize
                    blocks.append(c * op.kernel_h * op.kernel_w * out_h * out_w)
                    drive = capacity * op.out_channels * out_h * out_w
                    parity = pstage.index % 2
                    drives[parity] = max(drives[parity], drive)
                shape = op.output_shape(shape)
        assert len(blocks) == 2
        assert ws.nbytes("im2col") == max(blocks) * itemsize
        for parity, drive in drives.items():
            assert ws.nbytes(("gemm", parity)) == drive * itemsize

    def test_arena_holds_one_slab_per_role(self, tiny_network, tiny_data):
        """Every op of a GEMM-pinned run writes its output into the slab of
        its role and stage parity, sized to the largest stage output that
        parity holds; scratch and stage-private buffers keep their own
        slabs, and ``describe`` lists the arena by role."""
        capacity = 5
        plan = pinned_plan(tiny_network, 0.0, batch_size=capacity)
        plan.run(tiny_data[2][:capacity])
        ws = plan.workspace
        roles = {Conv2D: "gemm", AvgPool2D: "pool", Dense: "dense"}
        outputs = {}
        for pstage in [*plan.stage_plans, plan.readout_plan]:
            shape = pstage.in_shape
            for op in pstage.stage.ops:
                shape = op.output_shape(shape)
                if type(op) in roles:
                    slab = (roles[type(op)], pstage.index % 2)
                    outputs[slab] = max(outputs.get(slab, 0), capacity * int(np.prod(shape)))
        itemsize = tiny_network.dtype.itemsize
        assert {slab: ws.nbytes(slab) for slab in outputs} == {
            slab: size * itemsize for slab, size in outputs.items()
        }
        table = ws.roles()
        for role in roles.values():
            assert table[role] == (
                len([slab for slab in outputs if slab[0] == role]),
                sum(ws.nbytes(slab) for slab in outputs if slab[0] == role),
            )
        assert table["im2col"][0] == table["pool.pair"][0] == 1
        assert sum(size for _, size in table.values()) == ws.nbytes()
        text = plan.describe()
        assert f"arena: {ws.nbytes() / 1e6:.2f} MB" in text
        assert "gemm: 2 x" in text and "membranes:" in text

    def test_layered_membrane_is_the_consumed_drive(self, tiny_network, tiny_data, monkeypatch):
        """A layered drain adds the bias into its stage's consumed drive and
        drains it as the membrane: ``u`` shares memory with the drive, and
        the membrane arena is never written."""
        plan = pinned_plan(tiny_network, 0.0)
        plan.run(tiny_data[2][:8])  # warmup: the membranes exist
        for dyn in plan.bound.dynamics:
            dyn._u_base[...] = 7.0
        drives = []
        original = TTFSNeurons.drain_fire_events

        def recording(self, t, drive=None, **kwargs):
            drives.append(drive)
            spikes, count = original(self, t, drive, **kwargs)
            assert np.shares_memory(self.u, drive)
            return spikes, count

        monkeypatch.setattr(TTFSNeurons, "drain_fire_events", recording)
        got = plan.run(tiny_data[2][:8])
        assert len(drives) == len(plan.stage_plans)
        for dyn in plan.bound.dynamics:
            assert (dyn._u_base == 7.0).all()
        ref = reference(tiny_network, lambda: TTFSCoding(window=16), None, tiny_data[2][:8])
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == ref.spike_counts

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
