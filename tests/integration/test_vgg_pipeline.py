"""Integration: the VGG family end to end on a color task.

Covers the code path the CIFAR benchmarks use — VGG builder, conversion of
a deeper conv stack with pooling between stages, and the TTFS pipeline over
7 weight layers — at a width/test-size small enough for the unit suite.
"""

import numpy as np
import pytest

from repro.convert.converter import convert_to_snn
from repro.core.t2fsnn import T2FSNN
from repro.datasets.synthetic import ImageTaskSpec, SyntheticImages
from repro.nn.architectures import count_weight_layers, vgg7
from repro.nn.optim import Adam
from repro.nn.training import Trainer


@pytest.fixture(scope="module")
def vgg_system():
    spec = ImageTaskSpec(
        name="color-tiny",
        shape=(3, 32, 32),
        num_classes=4,
        n_train=160,
        n_test=60,
        noise=0.06,
        max_shift=2,
        components=3,
        seed=23,
    )
    task = SyntheticImages(spec)
    x_tr, y_tr, x_te, y_te = task.train_test()
    model = vgg7(input_shape=(3, 32, 32), num_classes=4, width=0.07, rng=9)
    trainer = Trainer(model, Adam(model.params(), lr=3e-3), rng=2)
    trainer.fit(x_tr, y_tr, epochs=5, batch_size=32)
    network = convert_to_snn(model, x_tr[:96])
    return model, network, (x_tr, y_tr, x_te, y_te)


class TestVGGConversion:
    def test_seven_weight_layers(self, vgg_system):
        model, network, _ = vgg_system
        assert count_weight_layers(model) == 7
        assert network.num_weight_layers == 7

    def test_stage_structure(self, vgg_system):
        _, network, _ = vgg_system
        names = network.stage_names()
        assert names[-1] == "classifier"
        assert sum(1 for n in names if n.startswith("conv")) == 6

    def test_pools_inside_stages(self, vgg_system):
        from repro.nn.layers import AvgPool2D

        _, network, _ = vgg_system
        ops = [op for stage in network.stages for op in stage.ops]
        assert sum(1 for op in ops if isinstance(op, AvgPool2D)) == 3

    def test_analog_matches_source(self, vgg_system):
        model, network, data = vgg_system
        x_te = data[2]
        src = model.predict(x_te).argmax(axis=1)
        conv = network.predict_analog(x_te)
        assert (src == conv).mean() >= 0.9


class TestVGGT2FSNN:
    def test_latency_formulas(self, vgg_system):
        _, network, _ = vgg_system
        base = T2FSNN(network, window=20)
        ef = T2FSNN(network, window=20, early_firing=True)
        assert base.decision_time == 7 * 20
        assert ef.decision_time == 6 * 10 + 20

    def test_ttfs_accuracy_tracks_analog(self, vgg_system):
        _, network, data = vgg_system
        x_te, y_te = data[2], data[3]
        analog = float((network.predict_analog(x_te) == y_te).mean())
        result = T2FSNN(network, window=20).run(x_te, y_te)
        assert result.accuracy >= analog - 0.2

    def test_spike_sparsity(self, vgg_system):
        _, network, data = vgg_system
        result = T2FSNN(network, window=20).run(data[2][:20])
        upper = int(np.prod(network.input_shape)) + network.total_neurons
        assert result.total_spikes <= upper


@pytest.fixture(scope="module")
def vgg_quarter():
    """An untrained ``vgg7(width=0.25)`` converted on random images: parity
    needs no accuracy, only real spike densities in every stage."""
    rng = np.random.default_rng(5)
    model = vgg7(input_shape=(3, 32, 32), num_classes=10, width=0.25, rng=3)
    network = convert_to_snn(model, rng.random((32, 3, 32, 32)))
    return network, rng.random((6, 3, 32, 32))


class TestEarlyFiringPlanParity:
    """A compiled early-firing plan against the dense reference engine.

    Overlapping fire windows deliver spikes per step, so the AvgPool->Conv
    stages feed the sparse conv kernel pooled packets with duplicate event
    positions at the densities a real network produces.
    """

    @pytest.mark.parametrize("operators", ["default", "events"])
    def test_predictions_and_spike_counts_match_dense(
        self, vgg_quarter, operators, monkeypatch
    ):
        from repro.coding.ttfs import TTFSCoding
        from repro.nn.layers import AvgPool2D
        from repro.snn import events as ev
        from repro.snn.engine import Simulator

        network, x = vgg_quarter
        dense = Simulator(
            network, TTFSCoding(window=32, early_firing=True), event_driven=False
        ).run(x)
        plan = Simulator(
            network, TTFSCoding(window=32, early_firing=True)
        ).compile(batch_size=4)
        if operators == "events":
            for pstage in [*plan.stage_plans, plan.readout_plan]:
                pstage.threshold = 1.0
        pooled_calls = []
        propagate = ev.apply_stage_events

        def recording(stage, packet, *arena):
            if isinstance(stage.ops[0], AvgPool2D):
                pooled_calls.append(packet.count)
            return propagate(stage, packet, *arena)

        monkeypatch.setattr(ev, "apply_stage_events", recording)
        result = plan.run_batched(x, batch_size=4)
        assert pooled_calls, "no pooled packet reached the sparse conv kernel"
        np.testing.assert_array_equal(result.predictions, dense.predictions)
        assert result.spike_counts == dense.spike_counts
