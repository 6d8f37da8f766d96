"""Anytime inference under compute budgets (docs/DESIGN.md §14).

Partial-readout correctness: a run truncated at step ``k`` must answer
exactly what a per-step score monitor would have recorded at step
``k - 1`` *plus the still-pending readout bias* — the score the full run
would report if no further spike arrived.  A budget that never binds
must be invisible (bit parity with the unbudgeted run, every scheme).
"""

import time

import numpy as np
import pytest

from repro.coding.burst import BurstCoding
from repro.coding.phase import PhaseCoding
from repro.coding.rate import RateCoding
from repro.coding.ttfs import TTFSCoding, TTFSInputEncoder, TTFSNeurons
from repro.core.kernels import KernelParams, default_kernel_params
from repro.snn import AnytimeResult, Budget, BudgetTimer, confidence_margins
from repro.snn.engine import Simulator
from repro.snn.monitors import Monitor
from repro.snn.results import SimulationResult

SCHEMES = {
    "ttfs": (lambda: TTFSCoding(window=12), None),
    "rate": (lambda: RateCoding(), 40),
    "phase": (lambda: PhaseCoding(), 32),
    "burst": (lambda: BurstCoding(), 32),
}


class ScoreCurveMonitor(Monitor):
    """Record the sealed-now decision view after every step."""

    observes_readout = True
    requires_full_run = True

    def __init__(self):
        self.curve = []

    def on_step(self, t, step_spikes, readout):
        self.curve.append(np.array(readout.peek_scores(t), copy=True))


class TestBudgetValidation:
    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError, match="bounds nothing"):
            Budget()

    @pytest.mark.parametrize("field", ["ms", "max_steps", "min_confidence"])
    @pytest.mark.parametrize("bad", [0, -1, float("nan"), float("inf")])
    def test_rejects_non_positive_fields(self, field, bad):
        with pytest.raises(ValueError, match=field):
            Budget(**{field: bad})

    def test_timer_counts_steps(self):
        timer = BudgetTimer(Budget(max_steps=3))
        assert not timer.expired(2)
        assert timer.expired(3)

    def test_run_rejects_non_budget(self, tiny_network):
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        with pytest.raises(TypeError, match="Budget"):
            sim.run(np.zeros((1, 1, 8, 8)), budget=5.0)


class TestNonBindingParity:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_generous_budget_is_bit_identical(
        self, tiny_network, tiny_data, scheme_key
    ):
        """A budget that never binds must not change a single bit."""
        factory, steps = SCHEMES[scheme_key]
        x, y = tiny_data[2][:12], tiny_data[3][:12]
        ref = Simulator(tiny_network, factory(), steps=steps).run(x, y)
        got = Simulator(tiny_network, factory(), steps=steps).run(
            x, y, budget=Budget(max_steps=10_000)
        )
        assert isinstance(got, AnytimeResult)
        assert not got.budget_exhausted
        assert got.steps_executed == ref.steps
        np.testing.assert_array_equal(got.scores, ref.scores)

    def test_unbudgeted_run_returns_plain_result(self, tiny_network, tiny_data):
        result = Simulator(tiny_network, TTFSCoding(window=12)).run(
            tiny_data[2][:4]
        )
        assert type(result) is SimulationResult


class TestTruncatedReadout:
    @pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
    def test_every_truncation_matches_the_score_curve(
        self, tiny_network, tiny_data, scheme_key
    ):
        """Truncating at step k answers the curve's step k-1 record.

        Equality is up to float reassociation (the monitor forces a
        per-step readout flush; the budgeted event-driven run merges
        deferred emissions), so: allclose on scores, exact argmax
        wherever the reference margin is not degenerate.
        """
        factory, steps = SCHEMES[scheme_key]
        x = tiny_data[2][:8]
        monitor = ScoreCurveMonitor()
        Simulator(tiny_network, factory(), steps=steps, monitors=[monitor]).run(x)
        curve = monitor.curve
        total = len(curve)
        for k in range(1, total + 1, max(1, total // 6)):
            got = Simulator(tiny_network, factory(), steps=steps).run(
                x, budget=Budget(max_steps=k)
            )
            assert got.steps_executed == k
            assert got.budget_exhausted == (k < total)
            expected = curve[k - 1]
            np.testing.assert_allclose(got.scores, expected, atol=1e-12)
            margins = confidence_margins(expected)
            decisive = margins > 1e-9
            np.testing.assert_array_equal(
                got.predictions[decisive], expected.argmax(axis=1)[decisive]
            )
            np.testing.assert_allclose(
                got.margins, confidence_margins(got.scores), atol=0
            )

    def test_engine_and_plan_agree_bit_for_bit(self, tiny_network, tiny_data):
        """The phased executor honours the same budget as the engine."""
        x = tiny_data[2][:8]
        for k in (1, 9, 20):
            ref = Simulator(tiny_network, TTFSCoding(window=12)).run(
                x, budget=Budget(max_steps=k)
            )
            plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
                batch_size=8
            )
            got = plan.run(x, budget=Budget(max_steps=k))
            assert isinstance(got, AnytimeResult)
            assert got.budget_exhausted == ref.budget_exhausted
            np.testing.assert_array_equal(got.scores, ref.scores)

    def test_zero_evidence_budget_answers_the_prior(self, tiny_network, tiny_data):
        """A wall-clock budget spent before step one still yields an
        honest answer: zero evidence plus the readout bias (the class
        prior), never garbage or an exception."""
        x = tiny_data[2][:4]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        result = sim.run(x, budget=Budget(ms=1e-4))
        assert isinstance(result, AnytimeResult)
        assert result.budget_exhausted
        assert result.scores.shape == (4, 3)
        assert np.isfinite(result.scores).all()
        assert (result.margins >= 0).all()
        # All rows sealed from identical (zero) evidence: same prior answer.
        np.testing.assert_array_equal(
            result.scores, np.broadcast_to(result.scores[0], result.scores.shape)
        )


def _assert_same_anytime(got, ref):
    assert isinstance(got, AnytimeResult)
    assert got.budget_exhausted == ref.budget_exhausted
    assert got.steps == ref.steps
    assert got.spike_counts == ref.spike_counts
    np.testing.assert_array_equal(got.predictions, ref.predictions)
    np.testing.assert_array_equal(got.scores, ref.scores)


class TestPlanTruncation:
    """A truncated compiled run cuts its bulk drains back to the steps it
    executed; it must equal the per-step reference engine bit for bit."""

    @pytest.mark.parametrize("early_firing", [False, True], ids=["baseline", "early"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("threshold", ["gemm", "event", "between"])
    def test_plan_equals_engine_at_every_truncation(
        self, tiny_network, tiny_data, early_firing, batch, threshold
    ):
        """Thresholds pinned to 0.0 make every drain dense, 1.0 makes every
        drain a packet; "between" sits under the full readout input's
        density, so its dense drain must be re-measured once cut."""
        x = tiny_data[2][:batch]

        def scheme():
            return TTFSCoding(window=12, early_firing=early_firing)

        if threshold == "between":
            last = [s for s in tiny_network.stages if s.spiking][-1]
            full = Simulator(tiny_network, scheme()).run(x)
            density = full.spike_counts[last.name] / np.prod(last.out_shape)
            assert density > 0
            pinned = float(density) / 2
        else:
            pinned = {"gemm": 0.0, "event": 1.0}[threshold]
        ref_sim = Simulator(
            tiny_network, scheme(), density_threshold=pinned, early_exit=False
        )
        plan = Simulator(tiny_network, scheme(), density_threshold=pinned).compile(
            batch_size=batch
        )
        horizon = plan.run(x).steps
        assert horizon > 12
        for k in range(1, horizon + 1):
            budget = Budget(max_steps=k)
            _assert_same_anytime(plan.run(x, budget=budget), ref_sim.run(x, budget=budget))

    def test_tied_tables_keep_per_step_firing(self, tiny_network, tiny_data):
        """A stage whose kernel table has ties cannot have its drain cut, so
        under a binding budget it fires step by step — still bit-identical."""
        x = tiny_data[2][:3]
        params = [default_kernel_params(12) for _ in range(3)]
        params[1] = KernelParams(tau=1e30, t_delay=0.0)  # the first stage's table ties

        def scheme():
            return TTFSCoding(window=12, kernel_params=params)

        ref_sim = Simulator(tiny_network, scheme(), early_exit=False)
        plan = Simulator(tiny_network, scheme()).compile(batch_size=3)
        cuttable = [dyn.can_drain(cut=True) for dyn in plan.bound.dynamics]
        assert cuttable == [False, True]
        horizon = plan.run(x).steps
        for k in range(1, horizon + 1):
            budget = Budget(max_steps=k)
            _assert_same_anytime(plan.run(x, budget=budget), ref_sim.run(x, budget=budget))

    def test_wall_clock_truncation_equals_the_step_budget(
        self, tiny_network, tiny_data
    ):
        """An ``ms`` budget that expires before step ``k`` (injected clock:
        one second per read) truncates exactly like ``max_steps=k``."""
        x = tiny_data[2][:3]
        plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
            batch_size=3
        )
        horizon = plan.run(x).steps
        for k in (1, horizon // 3, horizon // 2, horizon - 1):
            reads = iter(range(10_000))
            # Start reads 0, the check before step t reads t + 1.
            timer = Budget(ms=(k + 1) * 1000.0).start(clock=lambda: float(next(reads)))
            got = plan._run(x, None, timer=timer)
            assert got.budget_exhausted and got.steps == k
            _assert_same_anytime(got, plan.run(x, budget=Budget(max_steps=k)))

    @pytest.fixture()
    def drains(self, monkeypatch):
        """Call counts of the two bulk drains."""
        calls = {"drain_fire_events": 0, "drain_events": 0}
        for cls, name in (
            (TTFSNeurons, "drain_fire_events"),
            (TTFSInputEncoder, "drain_events"),
        ):
            original = getattr(cls, name)

            def counted(self, *args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        return calls

    @pytest.mark.parametrize("early_firing", [False], ids=["baseline"])
    def test_non_binding_ms_budget_keeps_every_drain(
        self, tiny_network, tiny_data, drains, early_firing
    ):
        """A budget that can bind but does not must run the same bulk
        drains as no budget at all."""
        x = tiny_data[2][:4]
        plan = Simulator(
            tiny_network, TTFSCoding(window=12, early_firing=early_firing)
        ).compile(batch_size=4)
        ref = plan.run(x)
        unbudgeted = dict(drains)
        assert unbudgeted["drain_fire_events"] > 0
        got = plan.run(x, budget=Budget(ms=60_000.0))
        assert not got.budget_exhausted
        assert {k: drains[k] - unbudgeted[k] for k in drains} == unbudgeted
        np.testing.assert_array_equal(got.scores, ref.scores)

    def test_early_firing_never_drains(self, tiny_network, tiny_data, drains):
        """Early firing's stages read their membranes while upstream still
        fires, so its runs step every source, with or without a budget."""
        x = tiny_data[2][:4]
        plan = Simulator(tiny_network, TTFSCoding(window=12, early_firing=True)).compile(
            batch_size=4
        )
        ref = plan.run(x)
        got = plan.run(x, budget=Budget(ms=60_000.0))
        assert drains == {"drain_fire_events": 0, "drain_events": 0}
        np.testing.assert_array_equal(got.scores, ref.scores)


class TestMinConfidence:
    def test_retirement_preserves_accuracy_at_a_sane_threshold(
        self, tiny_network, tiny_data
    ):
        x, y = tiny_data[2], tiny_data[3]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        full = sim.run(x, y)
        anytime = Simulator(tiny_network, TTFSCoding(window=12)).run(
            x, y, budget=Budget(min_confidence=0.3)
        )
        assert isinstance(anytime, AnytimeResult)
        # Deliberately lossy: a 0.3 evidence margin may retire a handful
        # of samples before a late spike would have flipped them.
        assert anytime.accuracy >= full.accuracy - 0.04

    def test_extreme_threshold_retires_nothing(self, tiny_network, tiny_data):
        """A margin no sample reaches retires nothing: full-run parity up
        to reassociation (confidence monitoring forces a per-step readout
        flush, so emission merge order differs from the deferred path)."""
        x = tiny_data[2][:16]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(x)
        got = Simulator(tiny_network, TTFSCoding(window=12)).run(
            x, budget=Budget(min_confidence=1e9)
        )
        assert not got.budget_exhausted
        np.testing.assert_allclose(got.scores, ref.scores, atol=1e-12)
        np.testing.assert_array_equal(got.predictions, ref.predictions)

    def test_plan_routes_min_confidence_through_the_engine(
        self, tiny_network, tiny_data
    ):
        x = tiny_data[2][:8]
        plan = Simulator(tiny_network, TTFSCoding(window=12)).compile(
            batch_size=8
        )
        got = plan.run(x, budget=Budget(min_confidence=0.3))
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run(
            x, budget=Budget(min_confidence=0.3)
        )
        np.testing.assert_array_equal(got.scores, ref.scores)


class TestBatchedBudget:
    def test_wall_clock_budget_spans_mini_batches(self, tiny_network, tiny_data):
        """One timer governs the whole call: once the wall-clock budget is
        spent, later mini-batches seal immediately instead of each
        enjoying a fresh budget."""
        x = tiny_data[2][:12]
        sim = Simulator(tiny_network, TTFSCoding(window=12))
        start = time.monotonic()
        result = sim.run_batched(x, batch_size=3, budget=Budget(ms=1e-3))
        elapsed_ms = (time.monotonic() - start) * 1000.0
        assert isinstance(result, AnytimeResult)
        assert result.budget_exhausted
        assert len(result.scores) == 12
        assert np.isfinite(result.scores).all()
        # 4 mini-batches under a 1 microsecond-scale budget: nowhere near
        # 4 full windows' worth of work.
        assert elapsed_ms < 5_000

    def test_non_binding_batched_budget_is_bit_identical(
        self, tiny_network, tiny_data
    ):
        x, y = tiny_data[2][:12], tiny_data[3][:12]
        ref = Simulator(tiny_network, TTFSCoding(window=12)).run_batched(
            x, y, batch_size=5
        )
        got = Simulator(tiny_network, TTFSCoding(window=12)).run_batched(
            x, y, batch_size=5, budget=Budget(max_steps=10_000)
        )
        assert isinstance(got, AnytimeResult)
        assert not got.budget_exhausted
        np.testing.assert_array_equal(got.scores, ref.scores)
