"""Channels-last (CL) membranes: early firing's in-place sparse conv drives.

While a TTFS conv stage fires, the event kernel adds each step's sparse
drive straight into the stage's membrane, held channels-last as
``(B, L+1, F)`` (the accumulator layout, sink row included).  The checks
here: the three engine configurations agree with the stage pinned to the
event kernel, retirement works on CL state, the live membrane equals a
dense-drive twin's, and the storage is reused across runs.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.ttfs import TTFSCoding, TTFSNeurons
from repro.convert.converter import ConvertedStage
from repro.core.kernels import ExpKernel, KernelParams
from repro.nn.layers import AvgPool2D, Conv2D
from repro.snn.engine import Simulator
from repro.snn.events import SpikePacket, apply_stage_events
from repro.snn.schedule import StageWindow
from tests.snn.test_layered import _network


def _three_runs(network, coding, x):
    """Reference with and without early exit, and the compiled plan, every
    stage pinned to the event kernel."""
    runs = [
        Simulator(network, coding(), density_threshold=1.0, early_exit=exit_)
        for exit_ in (True, False)
    ]
    results = [sim.run(x) for sim in runs]
    plan = Simulator(network, coding(), density_threshold=1.0).compile(batch_size=len(x))
    return [*results, plan.run(x)]


def _assert_agree(results):
    early, reference, compiled = results
    for result in (early, compiled):
        np.testing.assert_array_equal(result.predictions, reference.predictions)
        assert result.spike_counts == reference.spike_counts
    np.testing.assert_array_equal(compiled.scores, reference.scores)
    # Retirement flushes the readout in parts: reassociation only.
    np.testing.assert_allclose(early.scores, reference.scores, rtol=0, atol=1e-12)


@dataclass(frozen=True)
class EarlyCase:
    seed: int
    window: int
    fire_offset: int
    batch: int
    stage_bias: bool
    readout_bias: bool


@st.composite
def early_cases(draw):
    window = draw(st.integers(2, 20))
    return EarlyCase(
        seed=draw(st.integers(0, 2**16)),
        window=window,
        fire_offset=draw(st.integers(1, window)),
        batch=draw(st.integers(3, 6)),
        stage_bias=draw(st.booleans()),
        readout_bias=draw(st.booleans()),
    )


class TestEngineAgreement:
    @settings(max_examples=60, deadline=None)
    @given(case=early_cases())
    def test_early_exit_reference_and_plan_agree(self, case):
        network, rng = _network(case.seed, case.stage_bias, case.readout_bias)
        x = rng.random((case.batch, 1, 8, 8))

        def coding():
            return TTFSCoding(
                window=case.window, early_firing=True, fire_offset=case.fire_offset
            )

        _assert_agree(_three_runs(network, coding, x))

    def test_retirement_runs_on_channels_last_state(
        self, tiny_network, tiny_data, monkeypatch
    ):
        """The early-exit reference retires samples, compacts, checks
        quiescence and exhausts input while its conv stages are in CL mode."""
        seen = {"compact": 0, "row_quiescent": 0, "note_input_exhausted": 0}
        for name in seen:
            original = getattr(TTFSNeurons, name)

            def spy(self, *args, _original=original, _name=name):
                seen[_name] += self._cl is not None
                return _original(self, *args)

            monkeypatch.setattr(TTFSNeurons, name, spy)
        x = tiny_data[2][:24]
        _assert_agree(
            _three_runs(tiny_network, lambda: TTFSCoding(window=16, early_firing=True), x)
        )
        assert all(seen.values()), seen


def _conv_stage(rng):
    conv = Conv2D(2, 3, 3, pad=1, use_bias=False, rng=rng)
    # Small integer weights and dyadic spike weights: every sum is exact,
    # so in-place accumulation and the drive's sum agree bit for bit.
    conv.weight.data[...] = rng.integers(-3, 4, size=conv.weight.data.shape)
    return ConvertedStage(
        ops=[AvgPool2D(2), conv], bias=None, spiking=True, out_shape=(3, 4, 4), name="s"
    )


class TestInPlaceMembrane:
    def test_membrane_equals_a_dense_drive_twin(self, rng):
        stage = _conv_stage(rng)
        window = StageWindow(integration_start=0, fire_start=2, fire_end=10)
        kernel = ExpKernel(KernelParams(tau=3.0, t_delay=0.0))
        bias = rng.integers(-2, 3, size=(1, 3, 1, 1)) / 4.0
        cl, twin = (TTFSNeurons((3, 4, 4), bias, window, kernel) for _ in "ab")
        for n in (cl, twin):
            n.reset(3)
            n.step(None, 0)  # the bias lands
        for t in range(2, 10):
            dense = (rng.random((3, 2, 8, 8)) < 0.1) * rng.choice([0.5, 2.0, 4.0], (3, 2, 8, 8))
            packet = SpikePacket.from_dense(dense)
            assert apply_stage_events(stage, packet, into=cl.drive_target()) is None
            got = cl.step(None, t)
            want = twin.step(apply_stage_events(stage, packet), t)
            assert (got is None) == (want is None)
            if got is not None:
                np.testing.assert_array_equal(got.to_dense(), want.to_dense())
            np.testing.assert_array_equal(cl.u, twin.u)
            np.testing.assert_array_equal(np.isneginf(cl.u), cl._core.fired)
        assert cl._core.fired.any()
        # The NCHW u is a live view of the channels-last storage.
        assert np.shares_memory(cl.u, cl.drive_target())

    def test_flat_populations_take_the_drive(self):
        window = StageWindow(integration_start=0, fire_start=2, fire_end=10)
        n = TTFSNeurons((5,), 0.0, window, ExpKernel(KernelParams(tau=3.0, t_delay=0.0)))
        n.reset(2)
        assert n.drive_target() is None

    def test_storage_is_reused_across_runs(self, tiny_network, tiny_data):
        x = tiny_data[2][:16]
        plan = Simulator(
            tiny_network, TTFSCoding(window=16, early_firing=True), density_threshold=1.0
        ).compile(batch_size=8)
        plan.run(x[:8])
        before = [dyn._cl for dyn in plan.bound.dynamics]
        assert all(storage is not None for storage in before)
        plan.run(x[8:])
        for dyn, storage in zip(plan.bound.dynamics, before):
            assert np.shares_memory(dyn._cl, storage)
            assert np.shares_memory(dyn.u, storage)
        # A smaller batch runs in a leading view of the same storage.
        plan.run(x[:3])
        for dyn, storage in zip(plan.bound.dynamics, before):
            assert np.shares_memory(dyn._cl, storage)
