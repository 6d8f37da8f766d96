"""Neuron dynamics (per-stage state machines).

Each class advances one spiking stage's neuron population by one global time
step: integrate the incoming synaptic drive, apply the scheme's firing rule,
and return the *weighted* outgoing spike tensor (zeros where silent).  The
number of spike events at a step is the number of nonzero entries.

The drive may be ``None`` as a cheap encoding of an all-zero input (lets the
engine skip convolution work for silent layers while neurons still evolve —
e.g. TTFS thresholds keep decaying with no input).

Throughput-runtime protocol (docs/DESIGN.md §9): dynamics may additionally
report *quiescence* — per-sample knowledge that no spike can ever be emitted
again, assuming no further input — via :meth:`NeuronDynamics.row_quiescent`.
The engine chains these reports depth-wise (a stage's report is only trusted
once everything upstream is quiescent and its drive buffer is empty) to
terminate the time loop early and to retire decided samples from the active
batch (:meth:`NeuronDynamics.compact`).

All state is kept in a configurable ``dtype`` (float64 by default for
reference parity; float32 opt-in halves memory traffic on the hot path).

Arena-backed state (docs/DESIGN.md §10): per-sample state arrays (membrane
potential, fired masks, readout potential) live in capacity-sized *base*
arrays owned by the dynamics object.  ``reset`` reuses the base when its
capacity suffices — consecutive batches of the same (or smaller) size
perform zero state allocations — and sample retirement compacts survivors
to the front of the base, so the working array is always a leading view.
The values are bit-identical to freshly allocated state (every reuse is
zero-filled, or written whole before it is read).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NeuronDynamics",
    "IFNeurons",
    "ReadoutAccumulator",
    "arena_view",
    "arena_zeros",
    "arena_compact",
]


def _bias_is_nonzero(bias) -> bool:
    """Whether a broadcast-ready bias (array or scalar) injects anything."""
    return not np.isscalar(bias) or bias != 0.0


def arena_view(base, shape, dtype):
    """An array of ``shape`` with unspecified contents, reusing ``base``'s
    storage when it fits.

    Returns ``(base, view)``: ``view`` is ``base[:shape[0]]`` when the base's
    trailing dims and dtype match and its leading capacity suffices;
    otherwise a fresh array serves as both.  This is the state-arena
    primitive of docs/DESIGN.md §10, for state its owner writes whole
    before reading it.
    """
    if (
        base is not None
        and base.dtype == np.dtype(dtype)
        and base.shape[1:] == tuple(shape[1:])
        and base.shape[0] >= shape[0]
    ):
        return base, base[: shape[0]]
    base = np.empty(shape, dtype=dtype)
    return base, base


def arena_zeros(base, shape, dtype):
    """:func:`arena_view`, zero-filled: values are identical to ``np.zeros``."""
    base, view = arena_view(base, shape, dtype)
    view[...] = 0
    return base, view


def arena_compact(base, view, keep):
    """Compact ``view``'s surviving rows to the front of ``base``.

    ``view`` must be a leading view of ``base`` (the ``arena_zeros``
    contract).  Survivors are copied forward so the compacted state is again
    ``base[:k]`` — the arena keeps its full capacity for the next batch.
    """
    k = int(np.count_nonzero(keep))
    base[:k] = view[keep]
    return base[:k]


class NeuronDynamics:
    """Base class for per-stage neuron populations.

    Subclasses implement :meth:`step`.  ``shape`` is the population shape
    without batch; ``bias`` (or ``None``) is broadcast-ready for
    ``(batch, *shape)``; ``dtype`` is the membrane-state dtype.
    """

    def __init__(self, shape: tuple[int, ...], bias, dtype=np.float64):
        self.shape = tuple(shape)
        self.bias = bias  # broadcastable array or 0.0
        self.dtype = np.dtype(dtype)
        self.u: np.ndarray | None = None
        self._u_base: np.ndarray | None = None
        # Hoisted out of the hot loop: re-testing np.isscalar(bias) every
        # step costs more than the bias add itself on small stages.
        self._has_bias = _bias_is_nonzero(bias)

    def reset(self, batch_size: int, zeroed: bool = True) -> None:
        """Zero all state for a fresh inference over ``batch_size`` samples.

        State lives in a capacity arena: consecutive resets at the same (or a
        smaller) batch size reuse the previous allocation (docs/DESIGN.md §10).
        With ``zeroed=False`` the membrane is left unwritten, for dynamics
        that write it whole before reading it.
        """
        arena = arena_zeros if zeroed else arena_view
        self._u_base, self.u = arena(self._u_base, (batch_size,) + self.shape, self.dtype)
        self._has_bias = _bias_is_nonzero(self.bias)

    def step(self, drive: np.ndarray | None, t: int) -> np.ndarray | None:
        """Advance one step; return weighted spikes (or ``None`` for silence)."""
        raise NotImplementedError

    def membrane_nbytes(self) -> int:
        """Bytes of the membrane arena this population holds."""
        return 0 if self._u_base is None else self._u_base.nbytes

    def drive_target(self) -> np.ndarray | None:
        """A membrane the event kernel may add this stage's drive into.

        The engine asks on every event-kernel flush it delivers to
        :meth:`step` and passes the answer to
        :func:`repro.snn.events.apply_stage_events` as ``into``; when the
        kernel accumulates into it, :meth:`step` receives no drive.  The
        default, ``None``, always takes the drive.
        """
        return None

    def needs_drive(self, t: int) -> bool:
        """Whether step ``t``'s firing rule reads the membrane potential.

        The event-driven engine buffers incoming synaptic events and defers
        the linear-op work until the potential is actually consulted
        (docs/DESIGN.md §7).  Integration is additive, so delivery order
        within a deferral window cannot change any firing decision.  The
        default is every step — rate/phase/burst neurons may fire whenever
        input arrives; phase-scheduled dynamics (TTFS) override this to
        restrict reads to their fire phase.
        """
        return True

    # ------------------------------------------------------------------ #
    # quiescence protocol (docs/DESIGN.md §9)
    # ------------------------------------------------------------------ #

    def row_quiescent(self, t: int) -> np.ndarray | None:
        """Per-sample quiescence after step ``t``, or ``None`` if unknown.

        ``result[r]`` is True when sample ``r`` can never emit another spike
        at any step ``> t`` **assuming it receives no further synaptic
        drive**.  The engine only trusts the answer for rows whose entire
        upstream (encoder, earlier stages, pending drive buffers) is already
        quiescent.  ``None`` (the default) means the dynamics cannot tell,
        which disables early exit and sample retirement for the run.
        """
        return None

    def quiescent(self, t: int) -> bool:
        """Whole-population quiescence after step ``t`` (see row_quiescent)."""
        rows = self.row_quiescent(t)
        return rows is not None and bool(rows.all())

    def note_input_exhausted(self, t: int) -> None:
        """Hook: the engine guarantees no drive will ever arrive after ``t``.

        Dynamics may use this to drop state for neurons that can no longer
        fire (TTFS prunes fire candidates below the remaining threshold
        floor).  Must not change any observable emission.
        """

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples: keep only rows where ``keep`` is True."""
        if self.u is not None:
            self.u = arena_compact(self._u_base, self.u, keep)

    def phase_window(self):
        """The stage's firing window when its schedule confines firing.

        Phase-scheduled dynamics (TTFS, reverse) return their
        :class:`~repro.snn.schedule.StageWindow`, which lets the step
        loop's window-phased policy (compiled plans, :mod:`repro.snn.plan`)
        skip the stage outside its active steps.  ``None`` (the default)
        marks free-running dynamics that may fire at any step.
        """
        return None

    def _require_state(self) -> np.ndarray:
        if self.u is None:
            raise RuntimeError("reset() must be called before step()")
        return self.u


class IFNeurons(NeuronDynamics):
    """Integrate-and-fire with reset by subtraction — rate coding's neuron.

    Reset by subtraction (rather than to zero) preserves the sub-threshold
    remainder, which is what makes rate-coded conversion asymptotically exact
    [Rueckauer 2017].  The bias is injected every step, mirroring the constant
    bias current of the conversion literature.
    """

    def __init__(
        self, shape: tuple[int, ...], bias, threshold: float = 1.0, dtype=np.float64
    ):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        super().__init__(shape, bias, dtype)
        self.threshold = threshold

    def step(self, drive: np.ndarray | None, t: int) -> np.ndarray | None:
        u = self._require_state()
        if drive is not None:
            u += drive
        if self._has_bias:
            u += self.bias
        fired = u >= self.threshold
        if not fired.any():
            return None
        spikes = fired.astype(self.dtype)
        u -= spikes * self.threshold
        return spikes

    def row_quiescent(self, t: int) -> np.ndarray | None:
        """With no further input, an IF neuron below threshold stays silent
        forever; the per-step bias is a standing input, so any bias blocks
        quiescence."""
        if self.u is None:
            return None
        if self._has_bias:
            return np.zeros(self.u.shape[0], dtype=bool)
        n = self.u.shape[0]
        return ~(self.u >= self.threshold).reshape(n, -1).any(axis=1)


class ReadoutAccumulator:
    """Non-spiking classifier stage: the membrane potential *is* the score.

    ``bias_policy`` controls bias injection:

    * ``"per_step"`` — every step (rate/burst; logits scale with elapsed time);
    * ``"per_period"`` — amortized as ``bias/period`` per step (phase coding);
    * ``"once_at"`` — a single injection at ``bias_time`` (TTFS: the decoded
      potential directly reconstructs the DNN logits).
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        bias,
        bias_policy: str = "per_step",
        period: int = 1,
        bias_time: int = 0,
        dtype=np.float64,
    ):
        if bias_policy not in ("per_step", "per_period", "once_at"):
            raise ValueError(f"unknown bias policy {bias_policy!r}")
        self.shape = tuple(shape)
        self.bias = bias
        self.bias_policy = bias_policy
        self.period = max(1, period)
        self.bias_time = bias_time
        self.dtype = np.dtype(dtype)
        self.potential: np.ndarray | None = None
        self._potential_base: np.ndarray | None = None
        self._has_bias = _bias_is_nonzero(bias)

    def reset(self, batch_size: int) -> None:
        self._potential_base, self.potential = arena_zeros(
            self._potential_base, (batch_size,) + self.shape, self.dtype
        )
        self._has_bias = _bias_is_nonzero(self.bias)

    def accumulate(self, current: np.ndarray | None, t: int) -> None:
        if self.potential is None:
            raise RuntimeError("reset() must be called before accumulate()")
        if current is not None:
            self.potential += current
        if not self._has_bias:
            return
        if self.bias_policy == "per_step":
            self.potential += self.bias
        elif self.bias_policy == "per_period":
            self.potential += self.bias / self.period
        elif t == self.bias_time:
            self.potential += self.bias

    def absorb(self, current: np.ndarray | None) -> None:
        """Fold a flushed drive into the potential with no bias bookkeeping.

        Used when the engine flushes the deferred readout buffer outside the
        regular per-step accumulate (early exit / sample retirement); the
        scheduled bias injections are handled by :meth:`accumulate` and
        :meth:`seal_rows` exactly once.
        """
        if self.potential is None:
            raise RuntimeError("reset() must be called before absorb()")
        if current is not None:
            self.potential += current

    # ------------------------------------------------------------------ #
    # quiescence protocol (docs/DESIGN.md §9)
    # ------------------------------------------------------------------ #

    def rows_sealable(self) -> bool:
        """Whether a sample's score is final once its spike traffic ends.

        Run-constant (the engine checks it once before the time loop).
        Per-step and per-period bias policies keep injecting current until
        the scheduled end of the run, so stopping early would change the
        scores; a zero bias or the TTFS-style one-shot injection makes the
        potential final (the pending one-shot is applied by
        :meth:`seal_rows`)."""
        return not self._has_bias or self.bias_policy == "once_at"

    def seal_rows(
        self, rows: np.ndarray, t: int, scheduled_steps: int | None = None
    ) -> np.ndarray:
        """Final scores for ``rows`` (bool mask) retired after step ``t``.

        Applies the still-pending ``once_at`` bias when the run ends before
        ``bias_time``, so retiring a sample early never loses its bias —
        but only if the schedule would have reached ``bias_time`` at all
        (``scheduled_steps``): a deliberately truncated budget keeps the
        reference engine's no-bias scores."""
        if self.potential is None:
            raise RuntimeError("reset() must be called before seal_rows()")
        scores = self.potential[rows]
        if (
            self._has_bias
            and self.bias_policy == "once_at"
            and t < self.bias_time
            and (scheduled_steps is None or self.bias_time < scheduled_steps)
        ):
            scores = scores + self.bias
        return scores

    def peek_scores(self, t: int) -> np.ndarray:
        """Scores as they would seal after step ``t`` (anytime preview).

        The live potential plus a still-pending ``once_at`` bias — exactly
        what :meth:`seal_rows` would return for every row right now: the
        margin of the answer a sample would give if it stopped here.
        """
        if self.potential is None:
            raise RuntimeError("reset() must be called before peek_scores()")
        if self._has_bias and self.bias_policy == "once_at" and t < self.bias_time:
            return self.potential + self.bias
        return self.potential

    def evidence_scores(self, t: int) -> np.ndarray:
        """Accumulated spike evidence alone after step ``t`` (no bias).

        The live potential with an already-injected ``once_at`` bias
        removed.  Confidence retirement tests its margin: the constant
        bias starts (or, once injected, floors) every sample at the class
        prior's margin, so evidence must earn the early exit.
        """
        if self.potential is None:
            raise RuntimeError("reset() must be called before evidence_scores()")
        if self._has_bias and self.bias_policy == "once_at" and t >= self.bias_time:
            return self.potential - self.bias
        return self.potential

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired samples: keep only rows where ``keep`` is True."""
        if self.potential is not None:
            self.potential = arena_compact(self._potential_base, self.potential, keep)

    def scores(self) -> np.ndarray:
        if self.potential is None:
            raise RuntimeError("reset() must be called before scores()")
        return self.potential
