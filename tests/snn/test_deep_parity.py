"""Plan ≡ engine on a network deep enough for its arena slabs to be reused.

A compiled plan's arena holds one output slab per role and stage parity
(docs/DESIGN.md §10): stage ``i`` reads the slab stage ``i - 1`` wrote and
writes the other, which stage ``i + 2`` overwrites.  ``build_tiny_model``
has two spiking stages, so no slab there ever serves two stages.  The
network below has five, with two pools between them, and stage biases, so
every parity slab serves two or three stages of different shapes and the
layered drains add those biases into their consumed drives.  The plan must
equal the reference engine (``early_exit=False``) bit for bit: on the
baseline schedule (layered) without a budget and cut at every step, under
early firing, and at every batch size of one plan.
"""

import numpy as np
import pytest

from repro.coding.ttfs import TTFSCoding, TTFSNeurons
from repro.convert.converter import convert_to_snn
from repro.nn.activations import ReLU
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten
from repro.nn.network import Sequential
from repro.snn.budget import Budget
from repro.snn.engine import Simulator
from repro.snn.results import AnytimeResult

WINDOW = 8
THRESHOLDS = {"gemm": 0.0, "event": 1.0, "rule": 0.1}


def build_deep_model(rng) -> Sequential:
    """Five conv stages on 8x8 inputs: conv-conv-pool-conv-conv-pool-conv-fc.

    Channels grow at every conv, so a conv reading its input from the slab
    it writes would overwrite samples it has not read yet.
    """
    return Sequential(
        [
            Conv2D(1, 4, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            Conv2D(4, 6, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            AvgPool2D(2),
            Conv2D(6, 8, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            Conv2D(8, 10, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            AvgPool2D(2),
            Conv2D(10, 12, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            Flatten(),
            Dense(12 * 2 * 2, 3, use_bias=True, rng=rng),
        ],
        input_shape=(1, 8, 8),
    )


@pytest.fixture(scope="module")
def deep():
    """The converted deep network, with stage biases, and its inputs."""
    rng = np.random.default_rng(28)
    network = convert_to_snn(build_deep_model(rng), rng.random((32, 1, 8, 8)))
    for stage in network.stages:
        if stage.spiking:
            stage.bias = rng.normal(0.0, 0.1, size=stage.out_shape[0])
    return network, rng.random((6, 1, 8, 8))


def _pair(network, threshold: float, early_firing: bool, capacity: int):
    """The reference engine and a compiled plan of one configuration."""

    def scheme():
        return TTFSCoding(window=WINDOW, early_firing=early_firing)

    ref = Simulator(network, scheme(), density_threshold=threshold, early_exit=False)
    plan = Simulator(network, scheme(), density_threshold=threshold).compile(
        batch_size=capacity
    )
    return ref, plan


def _assert_same(got, ref):
    assert type(got) is type(ref)
    assert got.steps == ref.steps
    assert got.spike_counts == ref.spike_counts
    np.testing.assert_array_equal(got.predictions, ref.predictions)
    np.testing.assert_array_equal(got.scores, ref.scores)
    if isinstance(ref, AnytimeResult):
        assert got.budget_exhausted == ref.budget_exhausted


def test_every_parity_slab_serves_several_stages(deep):
    """The network exercises the slab reuse the module is about: five
    spiking stages, every stage fires, and two GEMM slabs serve them."""
    network, x = deep
    ref, plan = _pair(network, THRESHOLDS["gemm"], False, len(x))
    result = plan.run(x)
    spiking = [s for s in network.stages if s.spiking]
    assert len(spiking) == 5
    assert all(result.spike_counts[s.name] > 0 for s in spiking)
    assert plan.workspace.roles()["gemm"][0] == 2
    _assert_same(result, ref.run(x))


@pytest.mark.parametrize("threshold", sorted(THRESHOLDS))
def test_layered_plan_equals_engine_at_every_step_budget(deep, threshold, monkeypatch):
    """Baseline schedule: no budget, then ``Budget(max_steps=k)`` at every
    step of the horizon (every stage boundary and every step inside a fire
    window).  Every run is layered: one drain per spiking stage."""
    network, x = deep
    x = x[:3]
    ref, plan = _pair(network, THRESHOLDS[threshold], False, len(x))
    drains = []
    original = TTFSNeurons.drain_fire_events

    def counted(self, *args, **kwargs):
        drains.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TTFSNeurons, "drain_fire_events", counted)
    full = plan.run(x)
    assert len(drains) == len(plan.stage_plans)
    _assert_same(full, ref.run(x))
    for k in range(1, full.steps + 1):
        budget = Budget(max_steps=k)
        _assert_same(plan.run(x, budget=budget), ref.run(x, budget=budget))


@pytest.mark.parametrize("threshold", sorted(THRESHOLDS))
def test_early_firing_plan_equals_engine(deep, threshold):
    """Early firing steps every stage window-phased through the same slabs,
    with and without a budget cutting it mid-pipeline."""
    network, x = deep
    ref, plan = _pair(network, THRESHOLDS[threshold], True, len(x))
    full = plan.run(x)
    _assert_same(full, ref.run(x))
    for k in (1, WINDOW, full.steps // 2, full.steps - 1):
        budget = Budget(max_steps=k)
        _assert_same(plan.run(x, budget=budget), ref.run(x, budget=budget))


@pytest.mark.parametrize("early_firing", [False, True], ids=["baseline", "early"])
def test_every_batch_size_on_one_plan(deep, early_firing):
    """One plan run at every batch size up to its capacity, shrinking and
    growing, reuses its slabs as leading views and equals the engine."""
    network, x = deep
    capacity = len(x)
    ref, plan = _pair(network, THRESHOLDS["gemm"], early_firing, capacity)
    for n in [capacity, *range(1, capacity + 1)]:
        _assert_same(plan.run(x[:n]), ref.run(x[:n]))


def test_stage_with_two_pools_keeps_its_own_outputs():
    """A stage holding two ops of one kind (pool-pool) would read the
    slab it writes; the plan keeps that stage's outputs per op and still
    equals the engine."""
    rng = np.random.default_rng(5)
    model = Sequential(
        [
            Conv2D(1, 4, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            AvgPool2D(2),
            AvgPool2D(2),
            Conv2D(4, 6, 3, pad=1, use_bias=False, rng=rng),
            ReLU(),
            Flatten(),
            Dense(6 * 2 * 2, 3, use_bias=True, rng=rng),
        ],
        input_shape=(1, 8, 8),
    )
    network = convert_to_snn(model, rng.random((16, 1, 8, 8)))
    x = rng.random((4, 1, 8, 8))
    ref, plan = _pair(network, THRESHOLDS["gemm"], False, len(x))
    _assert_same(plan.run(x), ref.run(x))
    assert plan.workspace.nbytes(((1, 0), "pool")) != plan.workspace.nbytes(((1, 1), "pool"))
