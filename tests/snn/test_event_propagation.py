"""Event-driven propagation parity: sparse and dense paths must agree.

The event engine re-routes every step through SpikePacket remaps, gather
rows, and scatter-added weight patches, and defers integration-phase drive
delivery — none of which may change what the simulation computes.  These
tests pin the hard parity requirement: identical predictions and spike
counts on every coding scheme, with scores agreeing to floating-point
reassociation error.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.snn.events as events_mod
from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.ttfs import TTFSCoding
from repro.convert.converter import ConvertedStage
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten
from repro.snn.engine import Simulator
from repro.snn.events import (
    SpikePacket,
    apply_op_events,
    apply_stage_events,
    ingest,
    spike_count,
    spike_mask,
)
from repro.snn.plan import StagePlan, Workspace

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=16), None),
    "ttfs_early": (lambda: TTFSCoding(window=16, early_firing=True), None),
    "ttfs_lut": (lambda: TTFSCoding(window=16, use_lut=True), None),
    "rate": (lambda: RateCoding(), 60),
    "phase": (lambda: PhaseCoding(), 48),
    "burst": (lambda: BurstCoding(), 48),
}


def _run_both(network, scheme_key, x, y=None, density_threshold=1.0):
    factory, steps = SCHEMES[scheme_key]
    dense = Simulator(network, factory(), steps=steps, event_driven=False).run(x, y)
    sparse = Simulator(
        network,
        factory(),
        steps=steps,
        event_driven=True,
        density_threshold=density_threshold,
    ).run(x, y)
    return dense, sparse


class TestSchemeParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_forced_sparse_matches_dense(self, tiny_network, tiny_data, scheme_key):
        """density_threshold=1.0 forces every step down the sparse path."""
        x, y = tiny_data[2][:24], tiny_data[3][:24]
        dense, sparse = _run_both(tiny_network, scheme_key, x, y)
        np.testing.assert_array_equal(dense.predictions, sparse.predictions)
        assert dense.spike_counts == sparse.spike_counts
        assert dense.total_spikes == sparse.total_spikes
        np.testing.assert_allclose(sparse.scores, dense.scores, rtol=1e-9, atol=1e-12)
        assert dense.accuracy == sparse.accuracy

    @pytest.mark.parametrize("scheme_key", ["ttfs", "rate"])
    def test_default_threshold_matches_dense(self, tiny_network, tiny_data, scheme_key):
        """The production heuristic (mixed sparse/dense steps) agrees too."""
        x, y = tiny_data[2][:16], tiny_data[3][:16]
        factory, steps = SCHEMES[scheme_key]
        dense = Simulator(
            tiny_network, factory(), steps=steps, event_driven=False
        ).run(x, y)
        auto = Simulator(tiny_network, factory(), steps=steps).run(x, y)
        np.testing.assert_array_equal(dense.predictions, auto.predictions)
        assert dense.spike_counts == auto.spike_counts


class TestEdgeCases:
    def test_all_silent_input(self, tiny_network):
        """An all-zero image spikes nowhere; both paths agree on the nothing."""
        x = np.zeros((3,) + tuple(tiny_network.input_shape))
        dense, sparse = _run_both(tiny_network, "ttfs", x)
        np.testing.assert_array_equal(dense.predictions, sparse.predictions)
        assert sparse.spike_counts["input"] == 0.0
        assert dense.spike_counts == sparse.spike_counts
        np.testing.assert_allclose(sparse.scores, dense.scores, rtol=1e-9, atol=1e-12)

    def test_single_spike_input(self, tiny_network):
        """One hot pixel exercises the single-event sparse kernels."""
        x = np.zeros((1,) + tuple(tiny_network.input_shape))
        x[0, 0, 3, 4] = 1.0
        dense, sparse = _run_both(tiny_network, "ttfs", x)
        np.testing.assert_array_equal(dense.predictions, sparse.predictions)
        assert sparse.spike_counts["input"] == 1.0
        assert dense.spike_counts == sparse.spike_counts
        np.testing.assert_allclose(sparse.scores, dense.scores, rtol=1e-9, atol=1e-12)

    def test_batched_run_parity(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:30], tiny_data[3][:30]
        sim = Simulator(tiny_network, TTFSCoding(window=16), event_driven=True)
        whole = sim.run(x, y)
        batched = sim.run_batched(x, y, batch_size=7)
        np.testing.assert_array_equal(whole.predictions, batched.predictions)
        assert batched.total_spikes == pytest.approx(whole.total_spikes)


class TestSpikePacket:
    def test_dense_roundtrip(self, rng):
        dense = rng.random((4, 3, 5, 5)) * (rng.random((4, 3, 5, 5)) < 0.2)
        packet = SpikePacket.from_dense(dense)
        assert packet.count == int(np.count_nonzero(dense))
        np.testing.assert_array_equal(packet.to_dense(), dense)
        np.testing.assert_array_equal(packet.mask(), dense != 0)

    def test_from_mask_weights(self):
        mask = np.zeros((2, 4), dtype=bool)
        mask[0, 1] = mask[1, 3] = True
        packet = SpikePacket.from_mask(mask, 0.25)
        np.testing.assert_array_equal(packet.to_dense(), mask * 0.25)
        assert packet.density == pytest.approx(2 / 8)

    def test_ingest_packs_below_threshold(self, rng):
        dense = np.zeros((2, 100))
        dense[0, 3] = 1.0
        packed, count = ingest(dense, threshold=0.1)
        assert isinstance(packed, SpikePacket) and count == 1
        kept, count = ingest(dense, threshold=0.001)
        assert isinstance(kept, np.ndarray) and count == 1
        silent, count = ingest(np.zeros((2, 4)), threshold=0.5)
        assert silent is None and count == 0

    def test_spike_helpers(self):
        packet = SpikePacket.from_mask(np.ones((1, 3), dtype=bool), 2.0)
        assert spike_count(packet) == 3
        assert spike_count(None) == 0
        np.testing.assert_array_equal(spike_mask(packet), np.ones((1, 3), dtype=bool))


class TestSparseOps:
    """Each sparse op against its dense layer on random sparse tensors."""

    def test_conv2d(self, rng):
        for stride, pad in [(1, 1), (1, 0), (2, 1), (2, 0)]:
            op = Conv2D(3, 5, 3, stride=stride, pad=pad, rng=rng)
            dense_in = rng.random((2, 3, 8, 8)) * (rng.random((2, 3, 8, 8)) < 0.15)
            expected = op.infer(dense_in)
            got = apply_op_events(op, SpikePacket.from_dense(dense_in))
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_dense(self, rng):
        op = Dense(20, 7, rng=rng)
        dense_in = rng.random((3, 20)) * (rng.random((3, 20)) < 0.2)
        got = apply_op_events(op, SpikePacket.from_dense(dense_in))
        np.testing.assert_allclose(got, op.infer(dense_in), rtol=1e-10, atol=1e-12)

    def test_avgpool_stays_sparse(self, rng):
        op = AvgPool2D(2)
        dense_in = rng.random((2, 3, 8, 8)) * (rng.random((2, 3, 8, 8)) < 0.1)
        got = apply_op_events(op, SpikePacket.from_dense(dense_in))
        assert isinstance(got, SpikePacket)
        np.testing.assert_allclose(got.to_dense(), op.infer(dense_in), rtol=1e-12)

    def test_flatten_is_reshape(self, rng):
        op = Flatten()
        dense_in = np.zeros((2, 3, 4, 4))
        dense_in[1, 2, 3, 1] = 5.0
        got = apply_op_events(op, SpikePacket.from_dense(dense_in))
        assert isinstance(got, SpikePacket) and got.shape == (48,)
        np.testing.assert_array_equal(got.to_dense(), op.infer(dense_in))

    def test_overlapping_pool_falls_back(self, rng):
        op = AvgPool2D(3, stride=2)
        dense_in = rng.random((1, 2, 7, 7)) * (rng.random((1, 2, 7, 7)) < 0.2)
        got = apply_op_events(op, SpikePacket.from_dense(dense_in))
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, op.infer(dense_in), rtol=1e-12)

    def test_numpy_fallback_without_scipy(self, rng, monkeypatch):
        """The pure-numpy segment-reduce kernels back up the scipy path."""
        monkeypatch.setattr(events_mod, "_scipy_sparse", None)
        conv = Conv2D(3, 5, 3, stride=1, pad=1, rng=rng)
        dense_in = rng.random((2, 3, 8, 8)) * (rng.random((2, 3, 8, 8)) < 0.15)
        got = apply_op_events(conv, SpikePacket.from_dense(dense_in))
        np.testing.assert_allclose(got, conv.infer(dense_in), rtol=1e-10, atol=1e-12)
        fc = Dense(20, 7, rng=rng)
        dense_in = rng.random((3, 20)) * (rng.random((3, 20)) < 0.2)
        got = apply_op_events(fc, SpikePacket.from_dense(dense_in))
        np.testing.assert_allclose(got, fc.infer(dense_in), rtol=1e-10, atol=1e-12)


@dataclass(frozen=True)
class ConvEventCase:
    channels: int
    filters: int
    kernel: tuple[int, int]
    stride: int
    pad: int
    height: int
    width: int
    batch: int
    active_rows: tuple[bool, ...]
    density: float
    pooled: bool
    bias: bool
    dtype: type
    seed: int


@st.composite
def conv_event_cases(draw):
    """Conv geometries beyond the square 3x3 case: non-square kernels,
    stride 1-3, pad 0-2, odd spatial sizes, silent batch rows, and (via an
    AvgPool2D remap) packets with duplicate event positions."""
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    batch = draw(st.integers(1, 4))
    return ConvEventCase(
        channels=draw(st.integers(1, 3)),
        filters=draw(st.integers(1, 4)),
        kernel=(kh, kw),
        stride=draw(st.integers(1, 3)),
        pad=pad,
        # The conv input must hold at least one (padded) kernel window.
        height=draw(st.integers(max(kh - 2 * pad, 1), 9)),
        width=draw(st.integers(max(kw - 2 * pad, 1), 9)),
        batch=batch,
        active_rows=tuple(
            draw(st.lists(st.booleans(), min_size=batch, max_size=batch))
        ),
        density=draw(st.sampled_from([0.05, 0.2, 0.6])),
        pooled=draw(st.booleans()),
        bias=draw(st.booleans()),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestConvEventKernelProperty:
    """The sparse conv kernel against ``Conv2D.infer`` on generated cases,
    on the compiled scipy path and on the numpy segment-reduce fallback."""

    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    @settings(max_examples=60, deadline=None)
    @given(case=conv_event_cases())
    def test_matches_dense_conv(self, backend, case):
        if backend == "scipy" and events_mod._scipy_sparse is None:
            pytest.skip("scipy is not installed")
        rng = np.random.default_rng(case.seed)
        conv = Conv2D(
            case.channels,
            case.filters,
            case.kernel,
            stride=case.stride,
            pad=case.pad,
            use_bias=case.bias,
            rng=rng,
            dtype=case.dtype,
        )
        if case.bias:
            conv.bias.data[...] = rng.normal(size=case.filters)
        scale = 2 if case.pooled else 1
        shape = (case.batch, case.channels, scale * case.height, scale * case.width)
        dense = rng.random(shape) * (rng.random(shape) < case.density)
        dense[~np.array(case.active_rows)] = 0.0
        dense = dense.astype(case.dtype)
        packet = SpikePacket.from_dense(dense)
        if case.pooled:
            pool = AvgPool2D(2)
            packet = apply_op_events(pool, packet)
            dense = pool.infer(dense)
            assert isinstance(packet, SpikePacket) and not packet.unique
        expected = conv.infer(dense)
        ws = Workspace()
        with pytest.MonkeyPatch.context() as mp:
            if backend == "numpy":
                mp.setattr(events_mod, "_scipy_sparse", None)
            got = apply_op_events(conv, packet)
            # The arena variant twice: the accumulator must be re-zeroed.
            apply_op_events(conv, packet, ws, (0, 0))
            got_ws = apply_op_events(conv, packet, ws, (0, 0))
        assert got.dtype == expected.dtype == case.dtype
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got_ws, got)
        if case.dtype == np.float32:
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-5)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestStageEventsArena:
    """Every op of a stage's event path runs through the arena, including
    the ops after its matrix op."""

    def test_ops_after_the_conv_reuse_the_arena(self, rng):
        conv = Conv2D(2, 3, 3, pad=1, rng=rng)
        # Small integer weights and spike values: every sum is exact, so the
        # event scatter and the GEMM agree bit for bit.
        conv.weight.data[...] = rng.integers(-3, 4, size=conv.weight.data.shape)
        stage = ConvertedStage(
            ops=[conv, AvgPool2D(2)], bias=None, spiking=True, out_shape=(3, 4, 4), name="s"
        )
        ws = Workspace()
        pstage = StagePlan(
            index=0,
            name="s",
            stage=stage,
            in_shape=(2, 8, 8),
            out_shape=(3, 4, 4),
            threshold=1.0,
            workspace=ws,
        )
        dense = (rng.random((2, 2, 8, 8)) < 0.1) * 0.5
        packet = SpikePacket.from_dense(dense)
        first = apply_stage_events(stage, packet, ws, 0)
        allocations = ws.allocations
        second = apply_stage_events(stage, packet, ws, 0)
        assert np.shares_memory(first, second)
        assert ws.allocations == allocations
        want = pstage.apply_dense(dense)
        assert np.shares_memory(second, want)
        np.testing.assert_array_equal(apply_stage_events(stage, packet, ws, 0), want)


class TestMergePackets:
    """The deferral-window merge runs in the packets' dtype, in the arena."""

    def _packets(self, dtype):
        a = SpikePacket.from_dense(
            np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]], dtype=dtype)
        )
        b = SpikePacket.from_dense(
            np.array([[0.5, 3.0, 0.0], [0.0, 4.0, 0.0]], dtype=dtype)
        )
        return [a, b]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_merge_stays_in_run_dtype(self, dtype):
        from repro.snn.events import merge_packets

        merged = merge_packets(self._packets(dtype), np.empty((2, 3), dtype))
        assert merged.dtype == np.dtype(dtype)
        np.testing.assert_allclose(
            merged, [[1.5, 3.0, 2.0], [0.0, 4.0, 0.0]], rtol=1e-6
        )

    def test_merge_into_arena_buffer(self):
        from repro.snn.events import merge_packets

        out = np.full((2, 3), 9.0)  # stale content must be cleared
        merged = merge_packets(self._packets(np.float64), out=out)
        assert merged is out
        np.testing.assert_allclose(out, [[1.5, 3.0, 2.0], [0.0, 4.0, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            merge_packets(self._packets(np.float64), out=np.zeros((3, 3)))

    def test_merge_matches_bincount_reference_in_float64(self, rng):
        """Bit parity with the old float64 bincount merge."""
        from repro.snn.events import merge_packets

        packets = []
        for _ in range(5):
            dense = rng.random((4, 50)) * (rng.random((4, 50)) < 0.3)
            packets.append(SpikePacket.from_dense(dense))
        features = 50
        pos = np.concatenate([p.rows * features + p.idx for p in packets])
        w = np.concatenate([p.weights for p in packets])
        ref = np.bincount(pos, weights=w, minlength=4 * features).reshape(4, 50)
        np.testing.assert_array_equal(merge_packets(packets, np.empty((4, 50))), ref)
