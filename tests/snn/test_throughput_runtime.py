"""Throughput runtime: quiescence early-exit, sample retirement, dtype policy.

The early-exit machinery must be loss-free — identical predictions and spike
counts to the dense full-schedule engine on every coding scheme, scores equal
to reassociation error — while executing no more steps than the reference and
strictly fewer on over-provisioned budgets.  The float32 compute path trades
a documented tolerance for halved memory traffic.
"""

import numpy as np
import pytest

from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.reverse import ReverseCoding
from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons
from repro.core.kernels import ExpKernel, KernelParams
from repro.snn.engine import Simulator, _DriveBuffer
from repro.snn.events import SpikePacket
from repro.snn.neurons import ReadoutAccumulator
from repro.snn.schedule import StageWindow

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=16), None),
    "ttfs_early": (lambda: TTFSCoding(window=16, early_firing=True), None),
    "reverse": (lambda: ReverseCoding(window=12), None),
    "rate": (lambda: RateCoding(), 40),
    "phase": (lambda: PhaseCoding(), 32),
    "burst": (lambda: BurstCoding(), 32),
}


class TestEarlyExitParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_matches_full_schedule_dense_engine(
        self, tiny_network, tiny_data, scheme_key
    ):
        """Early exit + retirement never change what the run computes."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:24], tiny_data[3][:24]
        ref = Simulator(
            tiny_network, factory(), steps=steps, event_driven=False, early_exit=False
        ).run(x, y)
        fast = Simulator(tiny_network, factory(), steps=steps, early_exit=True).run(x, y)
        np.testing.assert_array_equal(fast.predictions, ref.predictions)
        assert fast.spike_counts == ref.spike_counts
        np.testing.assert_allclose(fast.scores, ref.scores, rtol=1e-9, atol=1e-12)
        assert fast.accuracy == ref.accuracy
        assert fast.steps <= ref.steps

    def test_overprovisioned_budget_is_trimmed(self, tiny_network, tiny_data):
        """A too-generous ``steps`` budget exits at quiescence, not at the
        budget — with identical results."""
        x = tiny_data[2][:12]
        scheme = TTFSCoding(window=12)
        decision = scheme.bind(tiny_network).decision_time
        budget = decision + 40
        ref = Simulator(
            tiny_network, scheme, steps=budget, event_driven=False, early_exit=False
        ).run(x)
        fast = Simulator(tiny_network, scheme, steps=budget).run(x)
        assert ref.steps == budget
        assert fast.steps <= decision
        np.testing.assert_array_equal(fast.predictions, ref.predictions)
        assert fast.spike_counts == ref.spike_counts
        np.testing.assert_allclose(fast.scores, ref.scores, rtol=1e-9, atol=1e-12)

    def test_early_exit_can_be_disabled(self, tiny_network, tiny_data):
        x = tiny_data[2][:6]
        scheme = TTFSCoding(window=12)
        budget = scheme.bind(tiny_network).decision_time + 25
        slow = Simulator(tiny_network, scheme, steps=budget, early_exit=False).run(x)
        assert slow.steps == budget

    def test_retirement_compacts_samples(self, tiny_network, tiny_data):
        """Decided samples are retired mid-run (observed via encoder.compact)
        without changing any result."""
        x = np.concatenate([np.zeros((2,) + tuple(tiny_network.input_shape)),
                            tiny_data[2][:6]])
        scheme = TTFSCoding(window=16)
        sim = Simulator(tiny_network, scheme)
        compactions = []
        original = TTFSInputEncoder.compact

        def spy(self, keep):
            compactions.append(int(np.count_nonzero(~keep)))
            return original(self, keep)

        TTFSInputEncoder.compact = spy
        try:
            fast = sim.run(x)
        finally:
            TTFSInputEncoder.compact = original
        assert sum(compactions) >= 2  # at least the silent samples retired
        ref = Simulator(
            tiny_network, scheme, event_driven=False, early_exit=False
        ).run(x)
        np.testing.assert_array_equal(fast.predictions, ref.predictions)
        assert fast.spike_counts == ref.spike_counts
        np.testing.assert_allclose(fast.scores, ref.scores, rtol=1e-9, atol=1e-12)


class TestQuiescenceProtocol:
    def window(self):
        return StageWindow(integration_start=0, fire_start=4, fire_end=12)

    def kernel(self, tau=2.0):
        return ExpKernel(KernelParams(tau=tau, t_delay=0.0))

    def test_neurons_not_quiescent_while_chargeable(self):
        n = TTFSNeurons((2,), bias=0.0, window=self.window(), kernel=self.kernel())
        n.reset(1)
        n.step(np.array([[2.0, 0.5]]), 0)
        assert not n.quiescent(0)  # both will fire during the fire phase

    def test_neurons_quiescent_below_threshold_floor(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=self.kernel())
        n.reset(1)
        tiny = self.kernel()(np.array(7.0)) / 2.0  # below the smallest threshold
        n.step(np.array([[float(tiny)]]), 0)
        assert n.quiescent(0)

    def test_neurons_quiescent_after_fire_window(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=self.kernel())
        n.reset(2)
        assert n.row_quiescent(11).all()

    def test_pending_bias_blocks_quiescence(self):
        win = StageWindow(integration_start=3, fire_start=4, fire_end=12)
        n = TTFSNeurons((1,), bias=np.array([[5.0]]), window=win, kernel=self.kernel())
        n.reset(1)
        assert not n.quiescent(0)  # bias lands at t=3 and will trigger a spike

    def test_scheduled_firing_matches_stepwise(self):
        """note_input_exhausted precomputes the schedule; emissions must be
        identical to per-step threshold comparisons."""
        rng = np.random.default_rng(0)
        u0 = rng.random((3, 40))
        ref = TTFSNeurons((40,), 0.0, self.window(), self.kernel())
        sched = TTFSNeurons((40,), 0.0, self.window(), self.kernel())
        ref.reset(3)
        sched.reset(3)
        ref.step(u0.copy(), 0)
        sched.step(u0.copy(), 0)
        sched.note_input_exhausted(0)
        for t in range(1, 12):
            a, b = ref.step(None, t), sched.step(None, t)
            if a is None or b is None:
                assert a is None and b is None
                continue
            np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_encoder_rows_quiesce_when_pixels_done(self):
        enc = TTFSInputEncoder(self.kernel(), window=8)
        enc.reset(np.array([[0.9], [0.0]]))
        rq = enc.row_quiescent(0)
        assert rq[1]  # the zero sample never fires
        assert not rq[0]
        for t in range(8):
            enc.step(t)
        assert enc.row_quiescent(7).all()

    def test_readout_seal_applies_pending_bias(self):
        r = ReadoutAccumulator((2,), np.array([[1.0, -1.0]]),
                               bias_policy="once_at", bias_time=10)
        r.reset(2)
        r.accumulate(np.ones((2, 2)), 0)
        sealed = r.seal_rows(np.array([True, False]), t=3)
        np.testing.assert_allclose(sealed, [[2.0, 0.0]])
        # After bias_time the bias was injected by accumulate; no double add.
        r.reset(1)
        r.accumulate(np.zeros((1, 2)), 10)
        np.testing.assert_allclose(r.seal_rows(np.array([True]), 11), [[1.0, -1.0]])

    def test_per_step_bias_blocks_sealing(self):
        r = ReadoutAccumulator((2,), np.array([[1.0, 1.0]]), bias_policy="per_step")
        r.reset(1)
        assert not r.rows_sealable()
        z = ReadoutAccumulator((2,), 0.0, bias_policy="per_step")
        z.reset(1)
        assert z.rows_sealable()


class TestDriveBufferCompaction:
    def test_packet_buffer_compacts_rows(self):
        buf = _DriveBuffer()
        p = SpikePacket.from_dense(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
        buf.add(p)
        buf.add(SpikePacket.from_dense(np.array([[0.0, 5.0], [0.0, 0.0], [0.0, 0.0]])))
        np.testing.assert_array_equal(
            buf.rows_with_events(3), [True, True, True]
        )
        buf.compact(np.array([True, False, True]))
        merged, was_merged = buf.take()
        assert was_merged
        np.testing.assert_allclose(merged, [[1.0, 5.0], [3.0, 0.0]])
        assert buf.empty

    def test_dense_buffer_compacts_rows(self):
        buf = _DriveBuffer()
        buf.add(np.array([[1.0], [2.0]]))
        buf.compact(np.array([False, True]))
        single, merged = buf.take()
        assert not merged
        np.testing.assert_allclose(single, [[2.0]])


class TestFloat32Path:
    def test_astype_round_trip(self, tiny_network):
        net32 = tiny_network.astype(np.float32)
        assert net32.dtype == np.float32
        assert tiny_network.dtype == np.float64  # original untouched
        for s64, s32 in zip(tiny_network.stages, net32.stages):
            if s64.bias is not None:
                assert s32.bias.dtype == np.float32

    @pytest.mark.parametrize("scheme_key", ["ttfs", "rate", "phase"])
    def test_float32_drift_bound(self, tiny_network, tiny_data, scheme_key):
        """float32 runs stay within a small relative drift of float64 and
        agree on nearly every prediction (the documented tolerance)."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:24], tiny_data[3][:24]
        net32 = tiny_network.astype(np.float32)
        r64 = Simulator(tiny_network, factory(), steps=steps).run(x, y)
        r32 = Simulator(net32, factory(), steps=steps).run(x, y)
        assert r32.scores.dtype == np.float32
        scale = np.abs(r64.scores).max()
        drift = np.abs(r32.scores - r64.scores).max() / max(scale, 1e-12)
        assert drift < 1e-3, f"float32 drift {drift:.2e} exceeds bound"
        assert (r32.predictions == r64.predictions).mean() >= 0.95

    def test_float32_spike_counts_stay_close(self, tiny_network, tiny_data):
        x = tiny_data[2][:16]
        net32 = tiny_network.astype(np.float32)
        r64 = Simulator(tiny_network, TTFSCoding(window=16)).run(x)
        r32 = Simulator(net32, TTFSCoding(window=16)).run(x)
        # TTFS fires at most once per neuron; threshold rounding may move a
        # handful of borderline spikes but not the budget.
        assert r32.total_spikes == pytest.approx(r64.total_spikes, rel=0.02)

    def test_converter_dtype_argument(self, tiny_model, tiny_data):
        from repro.convert.converter import convert_to_snn

        net = convert_to_snn(tiny_model, tiny_data[0][:64], dtype=np.float32)
        assert net.dtype == np.float32
