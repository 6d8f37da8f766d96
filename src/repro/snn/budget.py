"""Compute budgets for anytime inference (docs/DESIGN.md §14).

The T2FSNN readout accumulates evidence monotonically over the time
window, so a run stopped mid-window still has an answer: the *current*
argmax plus a confidence margin.  A :class:`Budget` makes that a
first-class execution mode — it bounds a run by wall-clock time
(``ms``), by executed steps (``max_steps``), or retires individual
samples the moment their margin clears ``min_confidence`` (composing
with the PR 2 retirement machinery, so confident samples free batch
capacity before the budget expires).

Semantics (pinned by ``tests/snn/test_anytime.py``):

* A budget-truncated run at step ``k`` seals the readout as "evidence so
  far plus any still-pending ``once_at`` bias" — exactly the score the
  full schedule would produce if no further spike arrived.  At zero
  accumulated evidence that is the class prior the readout bias encodes,
  the honest no-information anytime answer; it equals a per-step score
  monitor's record at step ``k - 1`` plus the pending bias (up to
  floating-point reassociation of the deferred readout flush).
* ``min_confidence`` retirement tests the margin of the *accumulated
  spike evidence alone* (the raw readout potential): a ``once_at`` bias
  would start every sample at the class prior's margin and retire the
  whole batch at step 0, so evidence must earn the early exit.  The
  sealed score — and the margin reported on the result — includes the
  pending bias (the sealed-now view is
  :meth:`~repro.snn.neurons.ReadoutAccumulator.peek_scores`).
* A budget that never binds returns bit-identical scores to an
  unbudgeted run (``min_confidence`` forces per-step readout flushes,
  which may reassociate floating-point sums — argmax and spike counts
  stay exact).

``Budget`` is a frozen value object; :meth:`Budget.start` produces the
mutable per-run :class:`BudgetTimer` the engine consults each step.
``Simulator.run_batched`` starts *one* timer for the whole call, so the
wall-clock budget spans every mini-batch while ``max_steps`` applies to
each (per-sample compute is per-window, latency is end-to-end).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["Budget", "BudgetTimer"]


def _check_positive(
    name: str, value: object, integral: bool = False
) -> float | int | None:
    """``value`` as a positive, finite float (with ``integral``, an int
    >= 1), or ``None`` when unset.

    The one rule for every budget, deadline and confidence knob
    (``Budget``, ``RunConfig``, ``InferenceService`` and its ``submit``):
    Python and numpy scalars pass; bools, NaN, infinities and anything
    else raise ``ValueError`` naming ``name``.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    if integral:
        if not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        return int(value)
    if not isinstance(value, (int, float, np.integer, np.floating)) or not (
        value > 0  # "not >" also catches NaN
    ):
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Budget:
    """A step-granular compute budget for one run (see module docstring).

    Parameters
    ----------
    ms:
        Wall-clock budget in milliseconds.  The engine checks it before
        every step; on expiry the window is truncated and the sealed
        scores carry the evidence accumulated so far.
    max_steps:
        Hard cap on executed steps per window — the deterministic axis
        (accuracy-vs-budget curves are swept on it).
    min_confidence:
        Per-sample early decision: a sample whose top-2 margin of
        accumulated spike evidence reaches this value is retired
        immediately (its slot is compacted away, PR 2 machinery),
        trading a possible late flip for latency and capacity.
        Deliberately lossy.

    At least one field must be set; each is validated eagerly
    (positive, finite, no NaN — same contract as ``RunConfig``).
    """

    ms: float | None = None
    max_steps: int | None = None
    min_confidence: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ms", _check_positive("ms", self.ms))
        object.__setattr__(
            self, "max_steps", _check_positive("max_steps", self.max_steps, True)
        )
        object.__setattr__(
            self,
            "min_confidence",
            _check_positive("min_confidence", self.min_confidence),
        )
        if self.ms is None and self.max_steps is None and self.min_confidence is None:
            raise ValueError(
                "an empty Budget bounds nothing; set ms, max_steps and/or "
                "min_confidence"
            )

    def start(self, clock: Callable[[], float] = time.monotonic) -> "BudgetTimer":
        """Begin the countdown; ``clock`` is injectable for tests."""
        return BudgetTimer(self, clock)


class BudgetTimer:
    """One run's live budget state (created by :meth:`Budget.start`)."""

    __slots__ = ("budget", "_clock", "_deadline")

    def __init__(
        self, budget: Budget, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.budget = budget
        self._clock = clock
        self._deadline = (
            None if budget.ms is None else clock() + budget.ms / 1000.0
        )

    @property
    def binds(self) -> bool:
        """Whether this timer can truncate the window at all.

        A binding timer keeps a compiled baseline plan on its layered
        policy: the run reads the timer once per step up to each drain,
        and one that truncates at step ``t`` cuts each drain back to the
        spikes scheduled before ``t`` (docs/DESIGN.md §10).  If any kernel
        table is not strictly decreasing, its spike weights do not name
        their steps, so the whole run steps window-phased instead.
        """
        return self.budget.max_steps is not None or self._deadline is not None

    @property
    def min_confidence(self) -> float | None:
        return self.budget.min_confidence

    def expired(self, steps_done: int) -> bool:
        """Whether the budget is spent after ``steps_done`` executed steps."""
        budget = self.budget
        if budget.max_steps is not None and steps_done >= budget.max_steps:
            return True
        return self._deadline is not None and self._clock() >= self._deadline

    def remaining_ms(self) -> float | None:
        """Milliseconds left on the wall-clock axis (``None`` = unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - self._clock()) * 1000.0)
