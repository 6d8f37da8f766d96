"""TTFS coding: fire-once invariant, closed-form agreement, pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons, _SpikeTimes
from repro.core.encoding import NO_SPIKE, encode_spike_times
from repro.core.kernels import TAU_MIN, ExpKernel, KernelParams, tabulate_kernel
from repro.snn.engine import Simulator
from repro.snn.events import SpikePacket
from repro.snn.monitors import FirstSpikeMonitor
from repro.snn.plan import Workspace
from repro.snn.schedule import StageWindow


def kernel(tau=4.0, td=0.0):
    return ExpKernel(KernelParams(tau=tau, t_delay=td))


class TestTTFSInputEncoder:
    def test_each_pixel_spikes_at_most_once(self, rng):
        enc = TTFSInputEncoder(kernel(), window=16)
        x = rng.random(size=(2, 3, 4, 4))
        enc.reset(x)
        fired = np.zeros_like(x)
        for t in range(16):
            s = enc.step(t)
            if s is not None:
                fired += (s.to_dense() != 0).astype(float)
        assert fired.max() <= 1.0

    def test_larger_pixels_fire_earlier(self):
        enc = TTFSInputEncoder(kernel(), window=16)
        x = np.array([[0.9, 0.3]])
        enc.reset(x)
        times = {}
        for t in range(16):
            s = enc.step(t)
            if s is not None:
                for i in np.nonzero(s.to_dense()[0])[0]:
                    times[i] = t
        assert times[0] < times[1]

    def test_spike_times_match_closed_form(self, rng):
        k = kernel(tau=3.0)
        enc = TTFSInputEncoder(k, window=12)
        x = rng.random(size=(1, 20))
        enc.reset(x)
        sim_times = np.full(x.shape, NO_SPIKE, dtype=np.int64)
        for t in range(12):
            s = enc.step(t)
            if s is not None:
                sim_times[s.to_dense() != 0] = t
        expected = encode_spike_times(x, k, 12)
        np.testing.assert_array_equal(sim_times, expected)

    def test_zero_pixels_never_fire(self):
        enc = TTFSInputEncoder(kernel(), window=16)
        enc.reset(np.zeros((1, 5)))
        for t in range(16):
            assert enc.step(t) is None

    def test_emitted_weight_is_kernel_value(self):
        k = kernel(tau=4.0)
        enc = TTFSInputEncoder(k, window=16)
        enc.reset(np.array([[1.0]]))
        s = enc.step(0)
        assert float(s.to_dense()[0, 0]) == pytest.approx(float(k(0.0)))

    def test_outside_window_silent(self):
        enc = TTFSInputEncoder(kernel(), window=4)
        enc.reset(np.array([[0.9]]))
        assert enc.step(10) is None

    def test_negative_input_rejected(self):
        enc = TTFSInputEncoder(kernel(), window=8)
        with pytest.raises(ValueError):
            enc.reset(np.array([[-0.2]]))


class TestTTFSNeurons:
    def window(self):
        return StageWindow(integration_start=0, fire_start=4, fire_end=12)

    def test_no_fire_before_fire_phase(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=kernel())
        n.reset(1)
        assert n.step(np.array([[5.0]]), 0) is None

    def test_fires_once_only(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=kernel())
        n.reset(1)
        n.step(np.array([[2.0]]), 0)
        spikes = [n.step(None, t) for t in range(4, 12)]
        fired = [s for s in spikes if s is not None]
        assert len(fired) == 1

    def test_threshold_decays_until_fire(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=kernel(tau=2.0))
        n.reset(1)
        n.step(np.array([[0.2]]), 0)  # fires when exp(-dt/2) <= 0.2 -> dt=4
        times = [t for t in range(4, 12) if n.step(None, t) is not None]
        assert times == [4 + 4]

    def test_bias_injected_once(self):
        win = self.window()
        n = TTFSNeurons((1,), bias=np.array([[0.5]]), window=win, kernel=kernel())
        n.reset(1)
        for t in range(3):
            n.step(None, t)
        assert n.u[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bias", ["scalar", "array"])
    def test_drain_of_an_untouched_population_lands_the_bias(self, rng, dtype, bias):
        """With no step since reset, a drain integrates the whole window and
        the one-shot bias with it: the same spikes and potentials as a
        per-step run that steps the bias in."""
        bias = 0.3 if bias == "scalar" else rng.normal(0.0, 0.3, size=(1, 3)).astype(dtype)
        drive = rng.normal(0.3, 0.5, size=(4, 3)).astype(dtype)
        stepper, drained = (
            TTFSNeurons((3,), bias=bias, window=self.window(), kernel=kernel(), dtype=dtype)
            for _ in range(2)
        )
        stepper.reset(4)
        stepper.step(drive.copy(), 0)
        want = np.zeros_like(drive)
        for t in range(4, 12):
            if (s := stepper.step(None, t)) is not None:
                want += s.to_dense()
        drained.reset(4)
        got, count = drained.drain_fire_events(
            3, drive.copy(), out=np.empty_like(drive), threshold=0.0
        )
        np.testing.assert_array_equal(got, want)
        assert count == int(np.count_nonzero(want)) > 0
        parked = np.isneginf(stepper.u)  # the units the steps fired
        np.testing.assert_array_equal(parked, want != 0)
        np.testing.assert_array_equal(drained.u[~parked], stepper.u[~parked])

    def test_drain_takes_only_an_untouched_population(self, rng):
        """A drain after a step, after a membrane reader, at or after the
        fire window's first step, or after another drain raises."""
        drive = rng.normal(0.3, 0.5, size=(2, 3, 4, 4))

        def population():
            n = TTFSNeurons((3, 4, 4), bias=0.5, window=self.window(), kernel=kernel())
            n.reset(2)
            return n

        touches = (
            lambda n: n.step(drive.copy(), 0),
            lambda n: n.row_quiescent(0),
            lambda n: n.drive_target(),
            lambda n: n.drain_fire_events(3, drive.copy()),
        )
        for touch in touches:
            n = population()
            touch(n)
            with pytest.raises(RuntimeError, match="untouched"):
                n.drain_fire_events(3, drive.copy())
        for t in (4, 7):
            with pytest.raises(RuntimeError, match="untouched"):
                population().drain_fire_events(t, drive.copy())
        assert population().drain_fire_events(3, drive.copy())[1] > 0

    def test_encoder_drains_only_before_its_first_step(self, rng):
        x = rng.random((2, 5))
        for touch in (lambda enc: enc.step(0), lambda enc: enc.drain_events()):
            enc = TTFSInputEncoder(kernel(), window=8)
            enc.reset(x)
            touch(enc)
            with pytest.raises(RuntimeError):
                enc.drain_events()

    def test_late_arrivals_help_unfired_neurons(self):
        """Non-guaranteed integration: late input still drives unfired
        neurons during the fire phase (early-firing semantics)."""
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=kernel(tau=2.0))
        n.reset(1)
        n.step(np.array([[0.05]]), 0)  # alone, would fire only at dt=6 (t=10)
        late = n.step(np.array([[0.9]]), 6)  # late arrival mid fire-phase
        # The boost lifts u above the dt=2 threshold within the same step.
        assert late is not None and float(late.to_dense()[0, 0]) > 0.0

    def test_late_arrivals_ignored_after_fire(self):
        n = TTFSNeurons((1,), bias=0.0, window=self.window(), kernel=kernel())
        n.reset(1)
        n.step(np.array([[2.0]]), 0)
        assert n.step(None, 4) is not None  # fires immediately at fire start
        # Huge late input cannot elicit a second spike.
        for t in range(5, 12):
            assert n.step(np.array([[10.0]]), t) is None

    def test_first_step_and_readers_zero_an_unwritten_membrane(self):
        """reset() leaves the membrane unwritten (here: NaN, standing for
        whatever the arena held); the first step or reader zero-fills it."""
        n = TTFSNeurons((3,), bias=0.0, window=self.window(), kernel=kernel())
        n.reset(2)
        n.u[...] = np.nan
        assert n.step(np.full((2, 3), 0.25), 0) is None
        np.testing.assert_array_equal(n.u, 0.25)
        n.reset(2)
        n.u[...] = np.nan
        assert n.row_quiescent(5).all()  # zero potentials never fire
        np.testing.assert_array_equal(n.u, 0.0)

    @pytest.mark.parametrize("bias", [0.0, 0.5, "array"])
    @pytest.mark.parametrize("with_drive", [True, False])
    def test_drain_writes_an_unwritten_membrane_whole(self, rng, bias, with_drive):
        """A drain after reset writes the membrane whole: the drive, the
        bias, both, or zeros; nothing the arena held survives."""
        if bias == "array":
            bias = rng.normal(0.0, 0.3, size=(1, 3))
        drive = rng.normal(0.5, 0.5, size=(4, 3)) if with_drive else None
        n = TTFSNeurons((3,), bias=bias, window=self.window(), kernel=kernel())
        n.reset(4)
        n.u[...] = np.nan
        n.drain_fire_events(3, None if drive is None else drive.copy(), threshold=1.0)
        want = np.zeros((4, 3)) + bias + (0.0 if drive is None else drive)
        np.testing.assert_array_equal(n.u, want)


class TestBulkDrains:
    """``drain_events`` / ``drain_fire_events``: the dense path writes
    exactly the packet path's ``to_dense()`` and the per-step emissions."""

    WINDOW = StageWindow(integration_start=0, fire_start=8, fire_end=24)

    def population(self):
        return TTFSNeurons(
            (3, 4, 4), bias=0.0, window=self.WINDOW, kernel=kernel(tau=3.0)
        )

    def stepped(self, drive):
        """Per-step reference emissions of a fresh population."""
        n = self.population()
        n.reset(drive.shape[0])
        n.step(drive, 0)
        total = np.zeros(drive.shape)
        for t in range(self.WINDOW.fire_start, self.WINDOW.fire_end):
            s = n.step(None, t)
            if s is not None:
                total += s.to_dense()
        return total

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encoder_dense_drain_matches_packet_and_steps(self, rng, dtype):
        x = (rng.random((4, 2, 5, 5)) * (rng.random((4, 2, 5, 5)) > 0.3)).astype(dtype)
        steps = TTFSInputEncoder(kernel(), window=16, dtype=dtype)
        steps.reset(x)
        reference = sum(s.to_dense() for t in range(16) if (s := steps.step(t)) is not None)
        packed, dense = (
            TTFSInputEncoder(kernel(), window=16, dtype=dtype) for _ in range(2)
        )
        packed.reset(x)
        dense.reset(x)
        packet, count = packed.drain_events()
        out = np.full(x.shape, np.nan, dtype=dtype)
        got, dense_count = dense.drain_events(out=out, threshold=0.0, workspace=Workspace())
        assert isinstance(packet, SpikePacket) and got is out
        assert count == dense_count == packet.count == int(np.count_nonzero(reference))
        np.testing.assert_array_equal(out, packet.to_dense())
        np.testing.assert_array_equal(out, reference)

    def test_neuron_dense_drain_matches_packet_and_steps(self, rng):
        drive = rng.normal(0.3, 0.5, size=(5, 3, 4, 4))
        reference = self.stepped(drive)
        results = []
        for out in (None, np.full(drive.shape, np.nan)):
            n = self.population()
            n.reset(drive.shape[0])
            spikes, count = n.drain_fire_events(
                7, drive.copy(), out=out, threshold=0.0, workspace=Workspace()
            )
            dense = spikes if out is not None else spikes.to_dense()
            assert count == int(np.count_nonzero(dense))
            np.testing.assert_array_equal(dense, reference)
            results.append(dense)
        np.testing.assert_array_equal(*results)

    def test_dense_drain_writes_a_strided_output(self, rng):
        """The drain may write into a conv's transposed GEMM output view."""
        drive = rng.normal(0.3, 0.5, size=(5, 3, 4, 4))
        packed, strided = self.population(), self.population()
        for n in (packed, strided):
            n.reset(5)
        packet, _ = packed.drain_fire_events(7, drive.copy())
        out = np.full((3, 5, 4, 4), np.nan).transpose(1, 0, 2, 3)
        got, _ = strided.drain_fire_events(7, drive.copy(), out=out, threshold=0.0)
        assert got is out and not out.flags.c_contiguous
        np.testing.assert_array_equal(out, packet.to_dense())

    def test_drain_output_may_be_the_integrated_drive(self, rng):
        drive = rng.normal(0.3, 0.5, size=(5, 3, 4, 4))
        packed, aliased = self.population(), self.population()
        for n in (packed, aliased):
            n.reset(5)
        packet, _ = packed.drain_fire_events(7, drive.copy())
        consumed = drive.copy()
        got, _ = aliased.drain_fire_events(7, consumed, out=consumed, threshold=0.0)
        assert got is consumed
        np.testing.assert_array_equal(consumed, packet.to_dense())

    def test_receiver_threshold_picks_the_form(self, rng):
        """Packet at or below the receiver's threshold, dense above it."""
        drive = rng.normal(0.3, 0.5, size=(5, 3, 4, 4))
        kinds = []
        for threshold in (1.0, 0.0):
            n = self.population()
            n.reset(5)
            spikes, count = n.drain_fire_events(
                7, drive.copy(), out=np.empty(drive.shape), threshold=threshold
            )
            assert 0 < count < drive.size
            kinds.append(type(spikes))
        assert kinds == [SpikePacket, np.ndarray]

    @pytest.mark.parametrize("threshold", [1.0, 0.0], ids=["packet", "dense"])
    def test_cut_drain_keeps_exactly_the_executed_steps(self, rng, threshold):
        """A drain cut back after ``steps`` executed steps holds exactly the
        per-step emissions of steps ``< steps``, in either form."""
        drive = rng.normal(0.3, 0.5, size=(5, 3, 4, 4))
        stepper = self.population()
        stepper.reset(5)
        stepper.step(drive, 0)
        per_step = {}
        for t in range(self.WINDOW.fire_start, self.WINDOW.fire_end):
            s = stepper.step(None, t)
            per_step[t] = np.zeros(drive.shape) if s is None else s.to_dense()
        total = sum(per_step.values())
        for steps in range(self.WINDOW.fire_start - 1, self.WINDOW.fire_end + 2):
            n = self.population()
            n.reset(5)
            spikes, count = n.drain_fire_events(
                7, drive.copy(), out=np.empty(drive.shape), threshold=threshold
            )
            kept, removed = n.cut_drain(spikes, steps)
            expected = sum((d for t, d in per_step.items() if t < steps), np.zeros(drive.shape))
            got = np.zeros(drive.shape) if kept is None else (
                kept.to_dense() if isinstance(kept, SpikePacket) else kept
            )
            np.testing.assert_array_equal(got, expected)
            assert count - removed == int(np.count_nonzero(expected))
            assert count == int(np.count_nonzero(total))

    def test_cut_encoder_drain_keeps_exactly_the_executed_steps(self, rng):
        x = rng.random((4, 2, 5, 5)) * (rng.random((4, 2, 5, 5)) > 0.3)
        stepper = TTFSInputEncoder(kernel(), window=16)
        stepper.reset(x)
        per_step = [s.to_dense() if (s := stepper.step(t)) is not None else 0.0 for t in range(16)]
        for steps in range(0, 18):
            enc = TTFSInputEncoder(kernel(), window=16)
            enc.reset(x)
            packet, count = enc.drain_events()
            kept, removed = enc.cut_drain(packet, steps)
            expected = sum(per_step[:steps], np.zeros(x.shape))
            got = np.zeros(x.shape) if kept is None else kept.to_dense()
            np.testing.assert_array_equal(got, expected)
            assert count - removed == int(np.count_nonzero(expected))

    def test_tied_tables_cannot_be_cut(self):
        """A weight that several offsets share does not name a spike step:
        such a table still drains, but a truncated run cannot cut it."""
        n = TTFSNeurons(
            (3, 4, 4), bias=0.0, window=self.WINDOW, kernel=kernel(tau=1e30)
        )
        assert n.can_drain() and not n.can_drain(cut=True)
        assert self.population().can_drain(cut=True)
        enc = TTFSInputEncoder(kernel(tau=1e30), window=16)
        assert enc.can_drain() and not enc.can_drain(cut=True)

    def test_silent_drain_returns_nothing(self):
        n = self.population()
        n.reset(2)
        assert n.drain_fire_events(7, np.full((2, 3, 4, 4), -1.0)) == (None, 0)


def same_packets(a, b):
    """Two per-step emissions (``None`` or packets) carry the same events."""
    if a is None or b is None:
        return a is None and b is None
    return (
        a.batch == b.batch
        and tuple(a.shape) == tuple(b.shape)
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.idx, b.idx)
        and a.weights.dtype == b.weights.dtype
        and np.array_equal(a.weights, b.weights)
    )


def fire_steps(steps, stepper):
    """Per unit, the step at which ``stepper(t)`` emitted it (``-1`` = never)."""
    fired = None
    for t in steps:
        s = stepper(t)
        if s is None:
            continue
        if fired is None:
            fired = np.full((s.batch, int(np.prod(s.shape))), -1, dtype=np.int64)
        assert np.all(fired[s.rows, s.idx] == -1)  # fire once
        fired[s.rows, s.idx] = t
    return fired


class TestThresholdTables:
    def test_increasing_table_is_rejected(self):
        def rising(dt):
            return np.asarray(dt, dtype=np.float64) + 1.0

        window = StageWindow(integration_start=0, fire_start=2, fire_end=10)
        with pytest.raises(ValueError, match="non-increasing"):
            TTFSInputEncoder(rising, window=8)
        with pytest.raises(ValueError, match="non-increasing"):
            TTFSNeurons((2,), bias=0.0, window=window, kernel=rising)

    @pytest.mark.parametrize("theta0", [0.0, -1.0])
    def test_non_positive_theta0_is_rejected(self, theta0):
        with pytest.raises(ValueError, match="theta0"):
            TTFSInputEncoder(kernel(), window=8, theta0=theta0)


class TestLongWindows:
    """Offsets past 65,535 keep their step: the schedule's sort keys are as
    wide as the window."""

    WINDOW = 70_000
    OFFSETS = [0, 3, 65_535, 65_536, 66_000, 69_999]

    def potentials(self):
        k = kernel(tau=self.WINDOW / 5.0)
        table = tabulate_kernel(k, self.WINDOW)
        values = table[self.OFFSETS][None, :]
        np.testing.assert_array_equal(_SpikeTimes(table).offsets(values)[0], self.OFFSETS)
        return k, values

    def test_encoder_fires_at_the_closed_form_step(self):
        k, values = self.potentials()
        enc = TTFSInputEncoder(k, window=self.WINDOW)
        enc.reset(values)
        fired = fire_steps(range(self.WINDOW), enc.step)
        np.testing.assert_array_equal(fired[0], self.OFFSETS)

    @pytest.mark.parametrize("scheduled", [False, True], ids=["per-step", "scheduled"])
    def test_neurons_fire_at_the_closed_form_step(self, scheduled):
        k, values = self.potentials()
        window = StageWindow(integration_start=0, fire_start=1, fire_end=1 + self.WINDOW)
        n = TTFSNeurons(values.shape[1:], bias=0.0, window=window, kernel=k)
        n.reset(1)
        assert n.step(values.copy(), 0) is None
        if scheduled:
            n.note_input_exhausted(0)
        fired = fire_steps(range(1, window.fire_end), lambda t: n.step(None, t))
        np.testing.assert_array_equal(fired[0], np.add(self.OFFSETS, 1))


class TestZeroPotentials:
    """A kernel that underflows to 0 (tau = TAU_MIN) must not fire zero
    potentials as weight-0 spikes, on any firing path."""

    WINDOW = StageWindow(integration_start=0, fire_start=4, fire_end=36)
    X = np.array([[0.0, 1.0], [0.0, 0.0]])

    def k(self):
        k = kernel(tau=TAU_MIN)
        assert tabulate_kernel(k, self.WINDOW.fire_window)[-1] == 0.0
        return k

    def untouched(self):
        n = TTFSNeurons((2,), bias=0.0, window=self.WINDOW, kernel=self.k())
        n.reset(2)
        return n

    def neurons(self):
        n = self.untouched()
        assert n.step(self.X.copy(), 0) is None
        return n

    def encoder(self):
        enc = TTFSInputEncoder(self.k(), window=self.WINDOW.fire_window)
        enc.reset(self.X.copy())
        return enc

    @pytest.mark.parametrize("scheduled", [False, True], ids=["per-step", "scheduled"])
    def test_neurons_fire_only_positive_potentials(self, scheduled):
        n = self.neurons()
        assert list(n.row_quiescent(0)) == [False, True]
        if scheduled:
            n.note_input_exhausted(0)
        fired = fire_steps(range(1, self.WINDOW.fire_end), lambda t: n.step(None, t))
        np.testing.assert_array_equal(fired, [[-1, self.WINDOW.fire_start], [-1, -1]])
        assert n.row_quiescent(self.WINDOW.fire_start).all()

    def test_encoder_fires_only_positive_pixels(self):
        enc = self.encoder()
        assert list(enc.row_quiescent(0)) == [False, True]
        fired = fire_steps(range(self.WINDOW.fire_window), enc.step)
        np.testing.assert_array_equal(fired, [[-1, 0], [-1, -1]])
        assert enc.row_quiescent(0).all()

    @pytest.mark.parametrize("threshold", [1.0, 0.0], ids=["packet", "dense"])
    def test_drains_count_only_positive_potentials(self, threshold):
        out = np.full(self.X.shape, np.nan)
        drained = self.untouched().drain_fire_events(
            3, self.X.copy(), out=out.copy(), threshold=threshold
        )
        encoded = self.encoder().drain_events(out=out.copy(), threshold=threshold)
        expected = np.array([[0.0, 1.0], [0.0, 0.0]])
        for spikes, count in (drained, encoded):
            assert count == 1
            dense = spikes.to_dense() if isinstance(spikes, SpikePacket) else spikes
            np.testing.assert_array_equal(dense, expected)


@pytest.mark.filterwarnings("error")
class TestNaNPotentials:
    """A NaN potential never fires: it emits nothing, counts nothing and
    warns nothing, on the per-step path and in either drain form."""

    WINDOW = StageWindow(integration_start=0, fire_start=4, fire_end=20)
    X = np.array([[0.5, np.nan, 0.2, 2.0]])

    def neurons(self):
        n = TTFSNeurons((4,), bias=0.0, window=self.WINDOW, kernel=kernel())
        n.reset(1)
        return n

    def test_offsets_put_nan_past_the_table(self):
        times = _SpikeTimes(tabulate_kernel(kernel(), 16))
        assert times.closed_form
        assert times.offsets(np.array([np.nan, 2.0]))[0] == 16

    @pytest.mark.parametrize("threshold", [1.0, 0.0], ids=["packet", "dense"])
    def test_drains_skip_nan(self, threshold):
        stepper = self.neurons()
        stepper.step(self.X.copy(), 0)
        steps = range(self.WINDOW.fire_start, self.WINDOW.fire_end)
        reference = sum(s.to_dense() for t in steps if (s := stepper.step(None, t)) is not None)
        assert reference[0, 1] == 0
        encoder = TTFSInputEncoder(kernel(), window=self.WINDOW.fire_window)
        encoder.reset(self.X.copy())
        drained = self.neurons().drain_fire_events(
            3, self.X.copy(), out=np.full(self.X.shape, np.nan), threshold=threshold
        )
        encoded = encoder.drain_events(out=np.full(self.X.shape, np.nan), threshold=threshold)
        for spikes, count in (drained, encoded):
            assert count == 3
            dense = spikes.to_dense() if isinstance(spikes, SpikePacket) else spikes
            np.testing.assert_array_equal(dense, reference)


@st.composite
def ttfs_populations(draw):
    """A kernel, a fire window, a fire offset and non-negative potentials
    mixing exact zeros, table entries and arbitrary values."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    window = draw(st.integers(1, 24))
    tau = draw(st.floats(TAU_MIN, max(float(window), TAU_MIN)))
    # Kept where exp(t_delay / tau) is finite in float32.
    t_delay = draw(st.floats(-float(window), min(float(window), 80.0 * tau)))
    k = kernel(tau=tau, td=t_delay)
    table = tabulate_kernel(k, window)
    finite = [float(w) for w in table if np.isfinite(w)] or [1.0]
    batch = draw(st.integers(1, 3))
    features = draw(st.integers(1, 6))
    values = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.sampled_from(finite),
                st.floats(0.0, 2.0 * max(finite), allow_subnormal=True),
            ),
            min_size=batch * features,
            max_size=batch * features,
        )
    )
    x = np.asarray(values, dtype=np.float64).reshape(batch, features).astype(dtype)
    fire_start = draw(st.integers(0, 4))
    return k, window, fire_start, x, dtype


class TestEncoderIsANeuronPopulation:
    """The encoder over ``x`` and a stage whose integrated potential is ``x``
    are one fire-once population, offset by the stage's ``fire_start``."""

    @staticmethod
    def pair(k, window, fire_start, x, dtype):
        enc = TTFSInputEncoder(k, window=window, dtype=dtype)
        stage = StageWindow(
            integration_start=0, fire_start=fire_start, fire_end=fire_start + window
        )
        n = TTFSNeurons(x.shape[1:], bias=0.0, window=stage, kernel=k, dtype=dtype)
        enc.reset(x.copy())
        n.reset(x.shape[0])
        return enc, n

    @staticmethod
    def assert_same_spikes(a, b):
        (a_spikes, a_count), (b_spikes, b_count) = a, b
        assert a_count == b_count
        if isinstance(a_spikes, np.ndarray):
            assert isinstance(b_spikes, np.ndarray) and a_spikes.dtype == b_spikes.dtype
            np.testing.assert_array_equal(a_spikes, b_spikes)
        else:
            assert same_packets(a_spikes, b_spikes)

    @staticmethod
    def copy(spikes):
        return spikes.copy() if isinstance(spikes, np.ndarray) else spikes

    @settings(max_examples=150, deadline=None)
    @given(ttfs_populations())
    def test_per_step_and_scheduled_emissions_match(self, case):
        k, window, fire_start, x, dtype = case
        enc, n = self.pair(k, window, fire_start, x, dtype)
        _, scheduled = self.pair(k, window, fire_start, x, dtype)
        for t in range(fire_start + window):
            drive = x.copy() if t == 0 else None
            stepped = n.step(drive, t)
            from_schedule = scheduled.step(None if drive is None else drive.copy(), t)
            if t == 0:
                scheduled.note_input_exhausted(0)
            if t < fire_start:
                assert stepped is None and from_schedule is None
                continue
            encoded = enc.step(t - fire_start)
            assert same_packets(encoded, stepped)
            assert same_packets(encoded, from_schedule)
            quiet = enc.row_quiescent(t - fire_start)
            np.testing.assert_array_equal(n.row_quiescent(t), quiet)
            np.testing.assert_array_equal(scheduled.row_quiescent(t), quiet)

    @settings(max_examples=150, deadline=None)
    @given(ttfs_populations(), st.sampled_from([1.0, 0.0]))
    def test_drains_and_cuts_match(self, case, threshold):
        """Both drain their whole window in the form ``threshold`` picks;
        the drains, the silent steps after them and every cut agree."""
        k, window, fire_start, x, dtype = case
        enc, n = self.pair(k, window, fire_start, x, dtype)
        assert enc.can_drain(cut=True) == n.can_drain(cut=True)
        drained = n.drain_fire_events(
            fire_start - 1,
            x.copy(),
            out=np.full(x.shape, np.nan, dtype=dtype),
            threshold=threshold,
            workspace=Workspace(),
        )
        encoded = enc.drain_events(
            out=np.full(x.shape, np.nan, dtype=dtype), threshold=threshold, workspace=Workspace()
        )
        self.assert_same_spikes(encoded, drained)
        for t in range(window):
            assert enc.step(t) is None and n.step(None, fire_start + t) is None
            np.testing.assert_array_equal(n.row_quiescent(fire_start + t), enc.row_quiescent(t))
        for steps in range(-1, window + 2):
            self.assert_same_spikes(
                enc.cut_drain(self.copy(encoded[0]), steps),
                n.cut_drain(self.copy(drained[0]), fire_start + steps),
            )


class TestTTFSCodingScheme:
    def test_first_spike_monitor_gives_the_spike_fraction(self, tiny_network, tiny_data):
        x = tiny_data[2][:20]
        spiking = [s for s in tiny_network.stages if s.spiking]
        monitors = [FirstSpikeMonitor(i) for i in range(len(spiking))]
        result = Simulator(tiny_network, TTFSCoding(window=12), monitors=monitors).run(x)
        for stage, monitor in zip(spiking, monitors):
            neurons = int(np.prod(stage.out_shape))
            assert monitor.spike_fraction() == result.spike_counts[stage.name] / neurons
            assert monitor.spike_fraction() > 0

    def test_one_spike_per_neuron_network_wide(self, tiny_network, tiny_data):
        scheme = TTFSCoding(window=12)
        result = Simulator(tiny_network, scheme).run(tiny_data[2][:20])
        # input pixels + hidden neurons, each at most one spike
        n_inputs = int(np.prod(tiny_network.input_shape))
        upper = n_inputs + tiny_network.total_neurons
        assert result.total_spikes <= upper

    def test_spikes_far_below_rate(self, tiny_network, tiny_data):
        from repro.coding.rate import RateCoding

        x = tiny_data[2][:20]
        ttfs = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        rate = Simulator(tiny_network, RateCoding(), steps=200).run(x)
        assert ttfs.total_spikes < 0.2 * rate.total_spikes

    def test_accuracy_close_to_analog(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:60], tiny_data[3][:60]
        result = Simulator(tiny_network, TTFSCoding(window=24)).run(x, y)
        analog_acc = float((tiny_network.predict_analog(x) == y).mean())
        assert result.accuracy >= analog_acc - 0.15

    def test_decision_time_matches_schedule(self, tiny_network):
        scheme = TTFSCoding(window=10)
        bound = scheme.bind(tiny_network)
        assert bound.decision_time == scheme.schedule(tiny_network).decision_time
        # L=3 weight layers at T=10: baseline 30.
        assert bound.decision_time == 30

    def test_early_firing_cuts_latency(self, tiny_network):
        base = TTFSCoding(window=10).bind(tiny_network)
        ef = TTFSCoding(window=10, early_firing=True).bind(tiny_network)
        assert ef.decision_time < base.decision_time
        assert ef.decision_time == 2 * 5 + 10  # (L-1)*T/2 + T

    def test_early_firing_accuracy_degrades_gracefully(self, tiny_network, tiny_data):
        x, y = tiny_data[2][:60], tiny_data[3][:60]
        base = Simulator(tiny_network, TTFSCoding(window=24)).run(x, y)
        ef = Simulator(tiny_network, TTFSCoding(window=24, early_firing=True)).run(x, y)
        assert ef.accuracy >= base.accuracy - 0.15

    def test_kernel_count_validation(self, tiny_network):
        with pytest.raises(ValueError, match="kernel parameter"):
            TTFSCoding(window=10, kernel_params=[KernelParams(2.0)]).bind(tiny_network)

    def test_resolved_params_defaults(self, tiny_network):
        scheme = TTFSCoding(window=16)
        params = scheme.resolved_params(tiny_network)
        assert len(params) == 3  # input + 2 spiking stages
        assert all(p.tau == 16 / 5.0 for p in params)
