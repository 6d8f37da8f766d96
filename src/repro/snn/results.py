"""Result containers for SNN simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SimulationResult", "AnytimeResult", "confidence_margins"]


def confidence_margins(scores: np.ndarray) -> np.ndarray:
    """Per-sample top-2 score margin — the anytime confidence measure.

    The margin between the best and runner-up class scores: how much
    more evidence the current argmax has than any alternative.  Zero for
    a sample that has accumulated nothing yet (all scores equal).
    """
    flat = scores.reshape(len(scores), -1)
    if flat.shape[1] < 2:
        return np.zeros(len(scores), dtype=flat.dtype)
    top2 = np.partition(flat, flat.shape[1] - 2, axis=1)
    return top2[:, -1] - top2[:, -2]


@dataclass
class SimulationResult:
    """Outcome of one :class:`~repro.snn.engine.Simulator` run.

    Attributes
    ----------
    scores:
        Readout potentials at decision time, shape ``(N, classes)``.
    predictions:
        ``argmax`` of ``scores``.
    accuracy:
        Top-1 accuracy when labels were supplied, else ``None``.
    spike_counts:
        Average spike events **per inference** (i.e. totals divided by batch
        size), keyed by stage name; ``"input"`` covers encoder spikes.
    total_spikes:
        Sum of ``spike_counts`` values — the paper's "number of spikes".
    steps:
        Steps actually executed.  With quiescence early-exit
        (docs/DESIGN.md §9) this can be smaller than the scheduled
        ``decision_time`` — e.g. an over-provisioned free-running budget is
        trimmed once the network can no longer spike; batched/parallel runs
        report the slowest mini-batch.
    decision_time:
        The scheme's decision latency in time steps (the paper's "latency").
    """

    scores: np.ndarray
    predictions: np.ndarray
    accuracy: float | None
    spike_counts: dict[str, float] = field(default_factory=dict)
    total_spikes: float = 0.0
    steps: int = 0
    decision_time: int = 0

    def summary(self) -> str:
        """One-line human-readable summary."""
        acc = f"{self.accuracy * 100:.2f}%" if self.accuracy is not None else "n/a"
        return (
            f"accuracy={acc} latency={self.decision_time} steps "
            f"spikes/inference={self.total_spikes:.1f}"
        )


@dataclass
class AnytimeResult(SimulationResult):
    """A :class:`SimulationResult` produced under a compute budget.

    The readout accumulates evidence monotonically, so a run stopped
    mid-window still answers: ``predictions`` is the argmax of the
    evidence gathered so far and ``margins`` says how decided each
    sample is.  Returned by every budgeted execution path
    (``Simulator.run(..., budget=...)``, compiled plans, a budgeted
    ``RunConfig`` on the ``serial``/``compiled`` backends, the worker
    pool) — including when the budget never binds, so
    callers can branch on the type without racing the clock.

    Attributes
    ----------
    margins:
        Per-sample confidence margin (:func:`confidence_margins` of
        ``scores``): best minus runner-up class score at seal time.
    budget_exhausted:
        Whether the wall-clock/step budget truncated the window.
        ``False`` for runs that completed (or early-exited loss-free)
        inside the budget; samples retired by ``min_confidence`` alone
        do not set it.
    """

    margins: np.ndarray | None = None
    budget_exhausted: bool = False

    @property
    def steps_executed(self) -> int:
        """Steps actually executed (alias of ``steps``, anytime vocabulary)."""
        return self.steps

    @classmethod
    def from_result(
        cls, result: SimulationResult, budget_exhausted: bool
    ) -> "AnytimeResult":
        """Wrap a merged/plain result, deriving margins from its scores."""
        return cls(
            scores=result.scores,
            predictions=result.predictions,
            accuracy=result.accuracy,
            spike_counts=result.spike_counts,
            total_spikes=result.total_spikes,
            steps=result.steps,
            decision_time=result.decision_time,
            margins=confidence_margins(result.scores),
            budget_exhausted=budget_exhausted,
        )

    def summary(self) -> str:
        base = super().summary()
        state = "exhausted" if self.budget_exhausted else "within budget"
        margin = (
            f" min-margin={float(self.margins.min()):.3f}"
            if self.margins is not None and len(self.margins)
            else ""
        )
        return f"{base} [{state} after {self.steps} step(s){margin}]"
