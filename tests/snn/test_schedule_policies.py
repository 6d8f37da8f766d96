"""Generated differential check of the step loop's two schedule policies.

``Simulator._run`` is the engine's only step loop.  A compiled
plan of a window-scheduled scheme runs it under the
window-phased policy (schedule-silent stages skipped, bulk drains, cuts on
truncation); the uncompiled ``early_exit=False`` engine runs it under the
per-step reference policy.  On untrained random networks, every drawn
scheme, batch size, density threshold and step budget must give the same
bits from both: scores, predictions, spike counts, executed steps and the
exhaustion flag.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.reverse import ReverseCoding
from repro.coding.ttfs import TTFSCoding
from repro.convert.converter import convert_to_snn
from repro.snn.budget import Budget
from repro.snn.engine import Simulator
from tests.conftest import build_tiny_model

SCHEMES = {
    "ttfs": lambda: TTFSCoding(window=8),
    "ttfs_early": lambda: TTFSCoding(window=8, early_firing=True),
    "reverse": lambda: ReverseCoding(window=8),
}


@dataclass(frozen=True)
class PolicyCase:
    seed: int
    scheme: str
    batch: int
    density_threshold: float
    readout_bias: bool
    max_steps: int | None


@st.composite
def policy_cases(draw):
    return PolicyCase(
        seed=draw(st.integers(0, 2**16)),
        scheme=draw(st.sampled_from(sorted(SCHEMES))),
        batch=draw(st.integers(1, 4)),
        density_threshold=draw(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
        ),
        readout_bias=draw(st.booleans()),
        max_steps=draw(st.one_of(st.none(), st.integers(1, 40))),
    )


def _network(seed: int, readout_bias: bool):
    rng = np.random.default_rng(seed)
    model = build_tiny_model(rng=seed)
    if readout_bias:
        classifier = model.layers[-1]
        classifier.bias.data[...] = rng.normal(size=classifier.bias.data.shape)
    return convert_to_snn(model, rng.random((16, 1, 8, 8))), rng


class TestSchedulePolicies:
    @settings(max_examples=100, deadline=None)
    @given(case=policy_cases())
    def test_phased_plan_equals_per_step_reference(self, case):
        network, rng = _network(case.seed, case.readout_bias)
        x = rng.random((case.batch, 1, 8, 8))
        budget = None if case.max_steps is None else Budget(max_steps=case.max_steps)
        factory = SCHEMES[case.scheme]
        plan = Simulator(
            network, factory(), density_threshold=case.density_threshold
        ).compile(batch_size=case.batch)
        assert plan.phased
        ref = Simulator(
            network,
            factory(),
            density_threshold=case.density_threshold,
            early_exit=False,
        ).run(x, budget=budget)
        got = plan.run(x, budget=budget)
        np.testing.assert_array_equal(got.scores, ref.scores)
        np.testing.assert_array_equal(got.predictions, ref.predictions)
        assert got.spike_counts == ref.spike_counts
        assert got.steps == ref.steps
        assert getattr(got, "budget_exhausted", None) == getattr(
            ref, "budget_exhausted", None
        )
