"""The baseline schedule as a quantized forward pass (docs/DESIGN.md §10).

Under Fig. 3a's guaranteed integration every stage integrates all of its
input and then fires once, at Eq. 7's closed-form time.  A whole TTFS run
is therefore a forward pass whose activations are rounded through the
paper's encode/decode pair (Eqs. 6–8, ``repro.core.encoding.roundtrip``):

    q = roundtrip(x)
    for each stage: q = roundtrip(stage(q) + bias)      # logits at the readout

The oracle below computes that pass with the log-based closed form: no
``_SpikeTimes``, no drains and no step loop.  It takes the engine's kernel
rule for each stage's linear ops (the event-scatter kernel at or below the
density threshold, the GEMM above it), since the two kernels sum in
different orders.  The reference engine and the compiled plan, which runs
such networks under the *layered* schedule policy, budgeted or not, must
both equal it bit for bit.  The policy tests pin which schedule policy a
plan run takes.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import ttfs
from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons
from repro.convert.converter import convert_to_snn
from repro.core.encoding import NO_SPIKE, roundtrip
from repro.core.kernels import ExpKernel
from repro.snn import events as ev
from repro.snn import plan as plan_mod
from repro.snn.budget import Budget
from repro.snn.engine import Simulator
from tests.conftest import build_tiny_model


def _linear(stage, q: np.ndarray, threshold: float) -> np.ndarray:
    """``stage``'s linear ops on ``q`` through the kernel the engine picks."""
    packet = ev.SpikePacket.from_dense(q)
    if packet.density <= threshold:
        return ev.apply_stage_events(stage, packet)
    return stage.apply(q)


def forward_pass(network, coding: TTFSCoding, x: np.ndarray, threshold: float):
    """Logits and per-sample spike counts of the quantized forward pass."""
    window, theta0, n = coding.window, coding.theta0, len(x)
    kernels = [ExpKernel(p) for p in coding.resolved_params(network)]
    offsets, q = roundtrip(x, kernels[0], window, theta0)
    counts = {"input": np.count_nonzero(offsets != NO_SPIKE) / n}
    spiking = [s for s in network.stages if s.spiking]
    for stage, kernel in zip(spiking, kernels[1:]):
        potential = _linear(stage, q, threshold) + stage.bias_broadcast(n)
        offsets, q = roundtrip(potential, kernel, window, theta0)
        counts[stage.name] = np.count_nonzero(offsets != NO_SPIKE) / n
    readout = network.stages[-1]
    return _linear(readout, q, threshold) + readout.bias_broadcast(n), counts


@dataclass(frozen=True)
class OracleCase:
    seed: int
    window: int
    batch: int
    density_threshold: float
    stage_bias: bool
    readout_bias: bool


@st.composite
def oracle_cases(draw):
    return OracleCase(
        seed=draw(st.integers(0, 2**16)),
        window=draw(st.integers(2, 20)),
        batch=draw(st.integers(1, 4)),
        density_threshold=draw(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
        ),
        stage_bias=draw(st.booleans()),
        readout_bias=draw(st.booleans()),
    )


def _network(seed: int, stage_bias: bool, readout_bias: bool):
    """A random tiny network; its bias-free convs get per-channel stage
    biases with ``stage_bias``."""
    rng = np.random.default_rng(seed)
    model = build_tiny_model(rng=seed)
    if readout_bias:
        classifier = model.layers[-1]
        classifier.bias.data[...] = rng.normal(size=classifier.bias.data.shape)
    network = convert_to_snn(model, rng.random((16, 1, 8, 8)))
    if stage_bias:
        for stage in network.stages:
            if stage.spiking:
                stage.bias = rng.normal(0.0, 0.2, size=stage.out_shape[0])
    return network, rng


class TestForwardPassOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=oracle_cases())
    def test_engine_and_plan_equal_the_forward_pass(self, case):
        network, rng = _network(case.seed, case.stage_bias, case.readout_bias)
        x = rng.random((case.batch, 1, 8, 8))
        coding = TTFSCoding(window=case.window)
        logits, counts = forward_pass(network, coding, x, case.density_threshold)
        ref = Simulator(
            network, coding, density_threshold=case.density_threshold, early_exit=False
        ).run(x)
        got = (
            Simulator(network, coding, density_threshold=case.density_threshold)
            .compile(batch_size=case.batch)
            .run(x)
        )
        for result in (ref, got):
            np.testing.assert_array_equal(result.scores, logits)
            assert result.spike_counts == counts


@pytest.fixture()
def calls(monkeypatch):
    """Per-method call counts of the firing and propagation entry points."""
    counted = {}

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counted[name] = counted.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(ttfs._FireOnce, "fire")
    count(TTFSNeurons, "step")
    count(TTFSNeurons, "drain_fire_events")
    count(TTFSInputEncoder, "drain_events")
    count(plan_mod.StagePlan, "apply_dense")
    return counted


def dense_plan(network, batch_size: int, **coding):
    """A plan whose every receiver runs its GEMM, so every drain goes dense."""
    return Simulator(network, TTFSCoding(window=16, **coding), density_threshold=0.0).compile(
        batch_size=batch_size
    )


class TestPolicySelection:
    def test_unbudgeted_baseline_run_is_layered(self, tiny_network, tiny_data, calls):
        """One propagate and one fire per stage, no step visits.  This is the
        configuration of test_plan's allocation tests (baseline, window 16,
        every stage on the GEMM, batch 64), so they run layered too."""
        plan = dense_plan(tiny_network, 64)
        plan.run(tiny_data[2][:64])
        stages = len(plan.stage_plans)
        assert calls.get("fire", 0) == 0 and calls.get("step", 0) == 0
        assert calls["drain_events"] == 1
        assert calls["drain_fire_events"] == stages
        assert calls["apply_dense"] == stages + 1

    @pytest.mark.parametrize(
        "budget",
        [Budget(ms=1e7), Budget(max_steps=40)],
        ids=["ms", "binding-max-steps"],
    )
    def test_binding_budgets_run_layered(self, tiny_network, tiny_data, calls, budget):
        """A budget that can bind reads its timer step by step, yet every
        stage still fires with one drain and no step visits.  ``max_steps=40``
        stops inside the last fire window (steps 32–47), after every drain,
        so the last stage's drain is cut back."""
        plan = dense_plan(tiny_network, 4)
        result = plan.run(tiny_data[2][:4], budget=budget)
        assert result.budget_exhausted == (budget.max_steps is not None)
        assert calls.get("fire", 0) == 0 and calls.get("step", 0) == 0
        assert calls["drain_events"] == 1
        assert calls["drain_fire_events"] == len(plan.stage_plans)

    @pytest.mark.parametrize("coding", [{"early_firing": True}], ids=["early-firing"])
    def test_other_runs_stay_phased(self, tiny_network, tiny_data, calls, coding):
        """Early firing keeps stepping (window-phased) and never drains."""
        dense_plan(tiny_network, 4, **coding).run(tiny_data[2][:4])
        assert calls["step"] > 0 and calls["fire"] > 0
        assert "drain_fire_events" not in calls and "drain_events" not in calls
