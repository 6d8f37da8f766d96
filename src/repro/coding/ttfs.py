"""TTFS coding — the T2FSNN model (Sec. III-A).

Each spiking stage runs an integration phase then a fire phase within the
pipeline schedule of Fig. 3.  During the fire phase a *dynamic threshold*
``theta(t) = theta0 * eps_FI(t - t_ref)`` decays exponentially (Eq. 6); the
first step at which a neuron's integrated potential meets the threshold is
its (single) spike time — larger potentials fire earlier.  Each emitted spike
is weighted by the matching *integration kernel* value (the paper's dendrite,
Eq. 8), so the receiving layer accumulates the decoded value directly.

Fire-once semantics: once fired, a neuron ignores all further input.  Under
early firing the fire phase overlaps the tail of integration, so information
arriving after a neuron fired is lost — the paper's "non-guaranteed
integration" — while not-yet-fired neurons still benefit from late arrivals.

Throughput runtime (docs/DESIGN.md §9): once the engine guarantees a stage
will receive no further drive (``note_input_exhausted``), its potentials
are final and — because the exponential threshold decays monotonically —
every unfired neuron's spike time has a closed form.  The stage switches
from per-step threshold comparisons to a precomputed *firing schedule*:
survivors of the threshold floor are counting-sorted into per-step buckets
and each remaining step just slices its bucket, making fire-phase cost
O(spikes emitted) instead of O(population x steps).  Firing decisions are
identical to the per-step comparison; both stages and the encoder also
report per-sample quiescence (``row_quiescent``), which powers early exit
and batch retirement.

Every spike time comes from one closed-form routine (:class:`_SpikeTimes`,
bit-identical to ``np.searchsorted`` over the kernel table).  The compiled
plan's bulk drains (docs/DESIGN.md §10) use it to emit a whole fire window
either as one packet or, when the receiver runs its GEMM, as a dense
tensor written into a buffer the plan supplies, without allocating.  A
drained spike's weight is the kernel value at its firing offset, so on a
strictly decreasing table a run truncated by a compute budget can cut a
drain back to the spikes it actually reached (:func:`_cut`).
"""

from __future__ import annotations

import numpy as np

from repro.coding.base import BoundCoding, CodingScheme, InputEncoder
from repro.convert.converter import ConvertedNetwork
from repro.core.kernels import (
    ExpKernel,
    KernelParams,
    default_kernel_params,
    tabulate_kernel,
)
from repro.snn.events import SpikePacket
from repro.snn.neurons import (
    NeuronDynamics,
    ReadoutAccumulator,
    arena_compact,
    arena_zeros,
)
from repro.snn.schedule import PhasedSchedule, StageWindow, build_phased_schedule

__all__ = [
    "TTFSCoding",
    "TTFSInputEncoder",
    "TTFSNeurons",
    "default_kernel_params",
]


#: The smallest positive float64: ``x >= _SMALLEST_POSITIVE`` is ``x > 0``
#: for any real input dtype (a numpy scalar, so float32 inputs compare in
#: float64 rather than rounding it to zero).
_SMALLEST_POSITIVE = np.nextafter(np.float64(0.0), np.float64(1.0))


def _suffix_min(weights: np.ndarray) -> np.ndarray:
    """``out[i] = min(weights[i:])`` — the threshold floor of the remaining
    fire window.  A potential below ``out[i]`` can never fire from step ``i``
    on (the kernel is evaluated exactly, so no monotonicity assumption is
    needed)."""
    return np.minimum.accumulate(weights[::-1])[::-1]


class _SpikeTimes:
    """Closed-form spike offsets over a monotone threshold table.

    ``offsets(v, dt_from)`` is, per value, the first offset ``dt`` with
    ``v >= weights[dt]`` (``len(weights)`` when there is none), raised to at
    least ``dt_from`` — bit-identical to
    ``np.maximum(np.searchsorted(-weights, -v), dt_from)``.

    A geometric table (the exponential kernel of Eq. 5, tabulated or as a
    LUT) has the closed-form inverse ``dt = ceil(t_d - tau * ln(v/theta0))``.
    The index is estimated log-linearly from the table's own endpoints,
    truncated, then fixed up once in each direction against the table
    (``dt += v < W[dt]``, ``dt -= W[dt-1] <= v``), which makes it exact for
    any estimate within one of the answer.  That bound is verified once here,
    at every step boundary of the table and its float neighbours, with a
    quarter-step margin; the estimate is monotone in ``v``, so the boundaries
    bound every value between them.  A table that fails the check (not
    geometric, zero or non-finite entries, a single entry) keeps
    ``np.searchsorted``.  Every pass can write into caller-owned scratch,
    which is what makes the compiled plan's dense drain allocation-free.
    """

    __slots__ = (
        "weights", "emitted", "cuttable", "_neg", "_lo", "_hi", "_fit", "_clip"
    )

    #: Slack, in steps, the estimate must keep from the fix-ups' reach.
    MARGIN = 0.25

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        dtype = weights.dtype
        # Tables padded past both ends, so a fix-up never indexes outside
        # them: _lo[dt] = W[dt], _hi[dt] = W[dt - 1], emitted[dt] = the spike
        # weight, zero for "never fires".  The pads keep both fix-ups inside
        # [0, len]: -inf never steps up past the end (_lo) and always steps
        # back from len + 1 (_hi); NaN never steps below zero (_hi).
        self._lo = np.concatenate((weights, np.full(2, -np.inf, dtype=dtype)))
        self._hi = np.concatenate(
            (np.full(1, np.nan, dtype=dtype), weights, np.full(1, -np.inf, dtype=dtype))
        )
        self.emitted = np.concatenate((weights, np.zeros(2, dtype=dtype)))
        self._neg = -weights
        self._clip = (weights[-1], weights[0])
        # Strictly decreasing and positive: every spike weight names exactly
        # one offset, and a dense drain's zeros are never spikes (_cut).
        self.cuttable = bool(weights[-1] > 0 and np.all(weights[1:] < weights[:-1]))
        self._fit = self._log_fit()

    @property
    def closed_form(self) -> bool:
        """Whether offsets come from the log-linear estimate (else searchsorted)."""
        return self._fit is not None

    def _log_fit(self) -> tuple[float, float] | None:
        w = self.weights
        if (
            len(w) < 2
            or not np.all(np.isfinite(w))
            or not w[-1] > 0
            or not np.all(w[1:] < w[:-1])
        ):
            return None
        top, bottom = np.log(float(w[0])), np.log(float(w[-1]))
        slope = (len(w) - 1) / (bottom - top)
        # Continuous index c(v) = slope * (ln v - ln W[0]) puts a value in
        # [W[i], W[i-1]) at c in (i-1, i]; +1 centres the truncated estimate
        # on the fix-ups' reach [i-1, i+1].
        fit = (1.0 - slope * top, slope)
        probe = np.concatenate((w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)))
        est = self._estimate(probe, fit)
        exact = np.searchsorted(self._neg, -probe, side="left")
        fits = bool(
            np.all(est >= exact - 1 + self.MARGIN)
            and np.all(est <= exact + 2 - self.MARGIN)
        )
        return fit if fits else None

    def _estimate(
        self, values: np.ndarray, fit: tuple[float, float], g: np.ndarray | None = None
    ) -> np.ndarray:
        """Fractional offset estimate, within one of the answer once
        truncated; ``g`` is the float scratch it is written into."""
        intercept, slope = fit
        g = np.clip(values, *self._clip, out=g)
        np.log(g, out=g)
        np.multiply(g, slope, out=g)
        np.add(g, intercept, out=g)
        return g

    def offsets(
        self,
        values: np.ndarray,
        dt_from: int = 0,
        out: np.ndarray | None = None,
        g: np.ndarray | None = None,
        cmp: np.ndarray | None = None,
    ) -> np.ndarray:
        """Spike offset of every value (see the class docstring).

        ``out`` (intp), ``g`` (``values.dtype``) and ``cmp`` (bool), each
        shaped like ``values``, are optional scratch; without them the
        passes allocate.
        """
        if self._fit is None or values.dtype != self.weights.dtype:
            dt = np.searchsorted(self._neg, -values, side="left")
            if out is not None:
                out[...] = dt
                dt = out
        else:
            g = self._estimate(values, self._fit, g)
            dt = np.empty(values.shape, dtype=np.intp) if out is None else out
            np.copyto(dt, g, casting="unsafe")  # truncation toward zero
            np.take(self._lo, dt, out=g, mode="clip")
            cmp = np.less(values, g, out=cmp)
            np.add(dt, cmp, out=dt)  # fired later than estimated
            np.take(self._hi, dt, out=g, mode="clip")
            np.less_equal(g, values, out=cmp)
            np.subtract(dt, cmp, out=dt)  # fired earlier than estimated
        if dt_from > 0:
            np.maximum(dt, dt_from, out=dt)
        return dt


def _scratch(workspace, name: str, shape, dtype) -> np.ndarray:
    """A drain scratch buffer: shared by every stage through the plan's
    workspace (it sizes itself to the largest), fresh without one."""
    if workspace is None:
        return np.empty(shape, dtype=dtype)
    return workspace.buffer(("ttfs.drain", name), shape, dtype)


def _drain(
    times: _SpikeTimes,
    values: np.ndarray,
    fired: np.ndarray,
    floor,
    dt_from: int,
    shape: tuple[int, ...],
    out: np.ndarray | None,
    threshold: float,
    workspace,
) -> tuple[SpikePacket | np.ndarray | None, int]:
    """Fire every unit of ``values`` (``(batch, features)``) that is unfired
    and at or above ``floor`` at its closed-form offset; latch it fired.

    Returns ``(spikes, count)``.  The spikes leave as a
    :class:`SpikePacket` in row-major order when ``out`` is ``None`` or
    their density is at or below ``threshold`` (the receiver's event-kernel
    decision), otherwise as the dense weighted tensor written into ``out``
    (``(batch, *shape)``, any strides — e.g. a conv's transposed GEMM
    output) — bit-identical to the packet's ``to_dense()``.  With a
    ``workspace`` the dense path allocates nothing.
    """
    mask = _scratch(workspace, "mask", values.shape, bool)
    np.greater_equal(values, floor, out=mask)
    np.greater(mask, fired, out=mask)  # over the floor and not yet fired
    count = int(np.count_nonzero(mask))
    if count == 0:
        return None, 0
    if out is None or count / values.size <= threshold:
        rows, idx = np.divmod(np.flatnonzero(mask), values.shape[1])
        fire_dt = times.offsets(values[rows, idx], dt_from)
        fired[rows, idx] = True
        packet = SpikePacket(
            rows=rows,
            idx=idx,
            weights=times.weights[fire_dt],
            batch=values.shape[0],
            shape=tuple(shape),
            unique=True,
        )
        return packet, count
    g = _scratch(workspace, "g", values.shape, times.weights.dtype)
    dt = times.offsets(
        values,
        dt_from,
        out=_scratch(workspace, "dt", values.shape, np.intp),
        g=g,
        cmp=_scratch(workspace, "cmp", values.shape, bool),
    )
    np.take(times.emitted, dt, out=g, mode="clip")
    np.multiply(g.reshape(out.shape), mask.reshape(out.shape), out=out)
    np.logical_or(fired, mask, out=fired)
    return out, count


def _cut(
    spikes: SpikePacket | np.ndarray | None, times: _SpikeTimes, dt: int
) -> tuple[SpikePacket | np.ndarray | None, int]:
    """Take back from a bulk drain's ``spikes`` every event firing at offset
    ``dt`` or later; returns ``(kept, removed)``.

    A drained spike carries the kernel weight of its firing offset, and on
    a cuttable table (strictly decreasing, positive) an event fires at
    ``dt`` or later exactly when its weight is at most ``weights[dt]``.  A
    packet is filtered (``None`` once nothing is left); a dense tensor has
    its late entries zeroed in place.
    """
    weights = times.weights
    if spikes is None or dt >= len(weights):
        return spikes, 0
    limit = weights[max(dt, 0)]
    if isinstance(spikes, SpikePacket):
        keep = spikes.weights > limit
        kept = int(np.count_nonzero(keep))
        removed = spikes.count - kept
        if removed == 0:
            return spikes, 0
        if kept == 0:
            return None, removed
        packet = SpikePacket(
            rows=spikes.rows[keep],
            idx=spikes.idx[keep],
            weights=spikes.weights[keep],
            batch=spikes.batch,
            shape=spikes.shape,
            unique=True,
        )
        return packet, removed
    late = (spikes > 0) & (spikes <= limit)
    spikes[late] = 0
    return spikes, int(np.count_nonzero(late))


class _FiringSchedule:
    """Closed-form firing schedule over a monotone threshold table.

    Once a population's potentials are final (an encoder's pixels at reset,
    a stage once the engine exhausts its input), the first offset ``dt``
    with ``value >= weights[dt]`` is each unit's spike time.  Units are
    counting-sorted by that offset — stable and on narrow uint16 keys, so
    numpy radix-sorts, and the row-major order survives within each bucket
    (the nondecreasing row order SpikePacket kernels rely on).  Each step
    then just slices its bucket: O(spikes emitted) per step instead of
    O(population).  The per-event kernel weights are materialised once at
    build time, so a bucket emission is three array *views* — the steady
    state allocates nothing per step.  Firing decisions are identical to
    the per-step threshold comparison.
    """

    __slots__ = ("rows", "idx", "weights", "bounds", "row_last")

    def __init__(
        self,
        flat: np.ndarray,
        alive: np.ndarray,
        times: _SpikeTimes,
        dt_from: int,
    ):
        rows, idx = np.divmod(np.flatnonzero(alive), alive.shape[1])
        weights = times.weights
        fire_dt = times.offsets(flat[rows, idx], dt_from).astype(np.uint16, copy=False)
        order = np.argsort(fire_dt, kind="stable")
        fire_dt = fire_dt[order]
        self.rows = rows[order]
        self.idx = idx[order]
        # Per-event spike weight (the kernel value at the firing offset),
        # gathered once: bucket slices reuse views of this array instead of
        # np.full-ing a fresh weight vector every step.
        self.weights = weights[fire_dt]
        self.bounds = np.searchsorted(
            fire_dt, np.arange(len(weights) + 1, dtype=np.int64)
        )
        row_last = np.full(flat.shape[0], -1, dtype=np.int64)
        # fire_dt is sorted ascending, so per row the last scatter wins with
        # exactly its maximum offset — far cheaper than np.maximum.at.
        row_last[self.rows] = fire_dt
        self.row_last = row_last

    def bucket(self, dt: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(rows, idx, weights) firing at offset ``dt`` (``None`` = silent)."""
        lo, hi = self.bounds[dt], self.bounds[dt + 1]
        if hi == lo:
            return None
        return self.rows[lo:hi], self.idx[lo:hi], self.weights[lo:hi]

    def rows_done(self, next_dt: int) -> np.ndarray:
        """Per-row True when no bucket at offset >= ``next_dt`` remains."""
        return self.row_last < next_dt

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired batch rows; the offset sort survives the subset, so
        only the bucket boundaries shift down by the events removed below
        them."""
        new_index = np.cumsum(keep) - 1
        m = keep[self.rows]
        self.rows = new_index[self.rows[m]]
        self.idx = self.idx[m]
        self.weights = self.weights[m]
        removed = np.cumsum(~m)
        self.bounds = self.bounds - np.concatenate(([0], removed))[self.bounds]
        self.row_last = self.row_last[keep]


class TTFSInputEncoder(InputEncoder):
    """Encode pixels as first-spike times during ``[0, T)``.

    The image plays the role of pre-integrated membrane potential: pixel
    intensity ``x`` fires at the first step where ``x >= theta0 * eps(t)``,
    and the emitted spike is weighted by the kernel (the decoded intensity).

    With ``emit_events=True`` (and a monotone kernel) the encoder receives
    no drive, so every pixel's spike time is known at :meth:`reset`: spikes
    are counting-sorted into per-step buckets once and each step just
    slices its bucket — identical emissions to the per-step threshold
    comparison at O(spikes) cost.
    """

    counts_spikes = True
    constant = False

    def __init__(
        self,
        kernel: ExpKernel,
        window: int,
        theta0: float = 1.0,
        emit_events: bool = False,
        dtype=np.float64,
    ):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.kernel = kernel
        self.window = window
        self.theta0 = theta0
        self.emit_events = emit_events
        self.dtype = np.dtype(dtype)
        self._weights = tabulate_kernel(kernel, window, theta0, dtype)
        self._floor = _suffix_min(self._weights)
        self._monotone = bool(np.all(np.diff(self._weights) <= 0))
        self._times = _SpikeTimes(self._weights)
        self._x: np.ndarray | None = None
        self._fired: np.ndarray | None = None
        self._fired_base: np.ndarray | None = None
        self._drained = False
        self._sched: _FiringSchedule | None = None

    def emission_window(self) -> int:
        return self.window

    def reset(self, x: np.ndarray) -> None:
        if x.min() < 0.0:
            raise ValueError("TTFS input encoding requires non-negative inputs")
        self._x = x
        self._fired_base, self._fired = arena_zeros(self._fired_base, x.shape, bool)
        self._sched = None
        self._drained = False

    def _build_schedule(self) -> None:
        """Counting-sort every pixel's closed-form spike time into buckets.

        Built lazily at the first :meth:`step` (the encoder receives no
        drive, so its potentials — the pixels — are final at reset); a
        bulk-drained run never pays for it.
        """
        flat = self._x.reshape(self._x.shape[0], -1)
        alive = flat >= self._pixel_floor()
        self._sched = _FiringSchedule(flat, alive, self._times, 0)

    def _pixel_floor(self):
        """Smallest pixel that fires: at or above the last threshold and
        above zero (zero pixels never fire, whatever the table holds)."""
        return max(self._weights[-1], _SMALLEST_POSITIVE)

    def step(self, t: int) -> np.ndarray | SpikePacket | None:
        if self._x is None or self._fired is None:
            raise RuntimeError("reset() must be called before step()")
        if not (0 <= t < self.window):
            return None
        if (
            self._sched is None
            and not self._drained
            and self.emit_events
            and self._monotone
        ):
            self._build_schedule()
        weight = self._weights[t]
        if self._sched is not None:
            bucket = self._sched.bucket(t)
            if bucket is None:
                return None
            rows, idx, weights = bucket
            flat_fired = self._fired.reshape(self._fired.shape[0], -1)
            flat_fired[rows, idx] = True
            return SpikePacket(
                rows=rows,
                idx=idx,
                weights=weights,
                batch=self._x.shape[0],
                shape=self._x.shape[1:],
                unique=True,
            )
        threshold = weight  # theta(t) and the decoded weight coincide
        can_fire = (~self._fired) & (self._x >= threshold) & (self._x > 0.0)
        if not can_fire.any():
            return None
        self._fired |= can_fire
        if self.emit_events:
            return SpikePacket.from_mask(can_fire, float(weight), dtype=self.dtype)
        return can_fire.astype(self.dtype) * weight

    def can_drain(self, cut: bool = False) -> bool:
        """Whether the whole remaining emission schedule can leave as one
        packet (monotone kernel: every pixel's spike time has a closed form);
        with ``cut``, also whether a truncated run can take the drain back
        (:meth:`cut_drain`)."""
        return self._monotone and (not cut or self._times.cuttable)

    def cut_drain(
        self, spikes: SpikePacket | np.ndarray | None, steps: int
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Take back the drained ``spikes`` that a run stopped after ``steps``
        executed steps never emitted; returns ``(kept, removed)`` (:func:`_cut`)."""
        return _cut(spikes, self._times, steps)

    def drain_events(
        self,
        out: np.ndarray | None = None,
        threshold: float = 1.0,
        workspace=None,
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Emit every remaining pixel spike at once; returns ``(spikes, count)``.

        Valid whenever the receiving stage integrates the full encoder
        window before reading its membrane (the window-phased step loop
        checks the schedule): TTFS pixels fire at most once, so the event
        positions are unique and the receiver's accumulation is
        bit-identical no matter how the events are grouped over steps.
        Spikes carry per-event kernel weights and all emitting pixels are
        latched fired.  They leave as one row-major packet unless ``out``
        (``x``-shaped) is given and their density exceeds ``threshold`` —
        the receiver's calibrated event-kernel threshold — in which case
        the dense weighted tensor is written into ``out``; ``workspace``
        supplies shared scratch (:func:`_drain`).
        """
        if self._x is None or self._fired is None:
            raise RuntimeError("reset() must be called before drain_events()")
        if not self._monotone:
            raise RuntimeError("drain_events() requires a monotone kernel")
        self._drained = True
        self._sched = None  # all buckets drained; step() now sees all-fired
        n = self._x.shape[0]
        return _drain(
            self._times,
            self._x.reshape(n, -1),
            self._fired.reshape(n, -1),
            self._pixel_floor(),
            0,
            self._x.shape[1:],
            out,
            threshold,
            workspace,
        )

    def row_quiescent(self, t: int) -> np.ndarray | None:
        """A sample is exhausted when every pixel either fired or sits below
        the threshold floor of the remaining window (zero pixels never fire)."""
        if self._x is None or self._fired is None:
            return None
        n = self._x.shape[0]
        if t + 1 >= self.window:
            return np.ones(n, dtype=bool)
        if self._sched is not None:
            return self._sched.rows_done(t + 1)
        floor = self._floor[t + 1]
        alive = (~self._fired) & (self._x >= floor) & (self._x > 0.0)
        return ~alive.reshape(n, -1).any(axis=1)

    def compact(self, keep: np.ndarray) -> None:
        if self._x is None or self._fired is None:
            return
        self._x = self._x[keep]
        self._fired = arena_compact(self._fired_base, self._fired, keep)
        if self._sched is not None:
            self._sched.compact(keep)


class TTFSNeurons(NeuronDynamics):
    """Fire-once IF neurons under a dynamic exponential threshold.

    Integration: the synaptic drive is accumulated whenever it arrives (the
    schedule guarantees it arrives during this stage's integration window);
    the stage bias is injected once, at ``window.integration_start``.

    Fire phase (``[fire_start, fire_end)``): at offset ``dt`` the threshold
    is ``theta0 * kernel(dt)``; neurons at or above it emit one spike of
    weight ``kernel(dt) * theta0`` and are latched fired.

    With ``emit_events=True`` spikes leave as native
    :class:`~repro.snn.events.SpikePacket` event lists, and once the engine
    reports the stage's input exhausted the fire phase switches to the
    precomputed firing schedule (see module docstring); otherwise the
    classic full-tensor comparison runs and a dense weighted tensor is
    returned.  All paths make identical firing decisions.
    """

    def __init__(
        self,
        shape,
        bias,
        window: StageWindow,
        kernel: ExpKernel,
        theta0: float = 1.0,
        emit_events: bool = False,
        dtype=np.float64,
    ):
        super().__init__(shape, bias, dtype)
        if theta0 <= 0:
            raise ValueError(f"theta0 must be positive, got {theta0}")
        self.window = window
        self.kernel = kernel
        self.theta0 = theta0
        self.emit_events = emit_events
        self._weights = tabulate_kernel(kernel, window.fire_window, theta0, dtype)
        self._floor = _suffix_min(self._weights)
        # The exponential threshold decays monotonically, which is what lets
        # final potentials be turned into a closed-form firing schedule once
        # no further drive can arrive (checked, not assumed, so exotic
        # kernels simply keep the per-step comparison).
        self._monotone = bool(np.all(np.diff(self._weights) <= 0))
        self._times = _SpikeTimes(self._weights)
        self._fired: np.ndarray | None = None
        self._fired_base: np.ndarray | None = None
        self._no_more_input = False
        self._drained = False
        self._sched: _FiringSchedule | None = None

    def phase_window(self) -> StageWindow:
        return self.window

    def reset(self, batch_size: int) -> None:
        super().reset(batch_size)
        self._fired_base, self._fired = arena_zeros(
            self._fired_base, (batch_size,) + self.shape, bool
        )
        self._no_more_input = False
        self._drained = False
        self._sched = None

    # ------------------------------------------------------------------ #
    # firing schedule
    # ------------------------------------------------------------------ #

    def _schedule_from_state(self, dt_from: int) -> None:
        """Turn final potentials into a per-step firing schedule.

        Valid once no further drive can arrive: unfired neurons below the
        remaining threshold floor never fire and are dropped outright; the
        rest get closed-form spike offsets (:class:`_FiringSchedule`).
        """
        if not self._monotone:
            return
        u = self._require_state()
        n = u.shape[0]
        flat = u.reshape(n, -1)
        fired_flat = self._fired.reshape(n, -1)
        dt_from = max(dt_from, 0)
        if dt_from >= self.window.fire_window:
            alive = np.zeros_like(fired_flat)
            dt_from = 0  # no offsets left; the empty schedule is inert
        else:
            alive = (~fired_flat) & (flat >= self._floor[dt_from])
        self._sched = _FiringSchedule(flat, alive, self._times, dt_from)

    def _bias_settled(self, t: int) -> bool:
        """Whether the one-shot stage bias has been injected by step ``t``."""
        return not self._has_bias or t >= self.window.integration_start

    def note_input_exhausted(self, t: int) -> None:
        self._no_more_input = True
        if (
            self.emit_events
            and self._sched is None
            and not self._drained
            and self._fired is not None
            and self._bias_settled(t)
        ):
            self._schedule_from_state(t + 1 - self.window.fire_start)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #

    def step(self, drive: np.ndarray | None, t: int) -> np.ndarray | SpikePacket | None:
        u = self._require_state()
        if self._fired is None:
            raise RuntimeError("reset() must be called before step()")
        if drive is not None:
            u += drive
        if t == self.window.integration_start and self._has_bias:
            u += self.bias
        if (
            self.emit_events
            and self._no_more_input
            and self._sched is None
            and not self._drained
            and self._bias_settled(t)
        ):
            # The engine exhausted our input before the bias landed; the
            # potential is final from this step on — schedule now.
            self._schedule_from_state(max(t - self.window.fire_start, 0))
        if not self.window.in_fire_phase(t):
            return None
        dt = t - self.window.fire_start
        weight = self._weights[dt]
        if self.emit_events and self._sched is not None:
            # Scheduled mode: this step's spikes are a precomputed bucket
            # slice — three views, no comparison over undecided neurons and
            # no per-step allocation.
            bucket = self._sched.bucket(dt)
            if bucket is None:
                return None
            rows, idx, weights = bucket
            flat_fired = self._fired.reshape(self._fired.shape[0], -1)
            flat_fired[rows, idx] = True
            return SpikePacket(
                rows=rows,
                idx=idx,
                weights=weights,
                batch=u.shape[0],
                shape=self.shape,
                unique=True,
            )
        can_fire = (~self._fired) & (u >= weight)
        if not can_fire.any():
            return None
        self._fired |= can_fire
        if self.emit_events:
            return SpikePacket.from_mask(can_fire, float(weight), dtype=self.dtype)
        return can_fire.astype(self.dtype) * weight

    def needs_drive(self, t: int) -> bool:
        """The membrane potential is only compared during the fire phase, so
        integration-phase drives can be delivered in one deferred batch."""
        return self.window.in_fire_phase(t)

    def can_drain(self, cut: bool = False) -> bool:
        """Whether the remaining fire phase can leave as one packet (monotone
        kernel — spike times are in closed form once input is exhausted);
        with ``cut``, also whether a truncated run can take the drain back
        (:meth:`cut_drain`)."""
        return self._monotone and (not cut or self._times.cuttable)

    def cut_drain(
        self, spikes: SpikePacket | np.ndarray | None, steps: int
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Take back the drained ``spikes`` that a run stopped after ``steps``
        executed steps never fired; returns ``(kept, removed)`` (:func:`_cut`)."""
        return _cut(spikes, self._times, steps - self.window.fire_start)

    def drain_fire_events(
        self,
        t: int,
        drive: np.ndarray | None = None,
        out: np.ndarray | None = None,
        threshold: float = 1.0,
        workspace=None,
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Emit every remaining scheduled spike at once; returns
        ``(spikes, count)``.

        Calling this carries the ``note_input_exhausted`` contract — the
        caller guarantees no drive arrives after step ``t`` beyond the
        final ``drive`` delivered here — and requires a settled bias (the
        potentials are final once ``drive`` is integrated).  The window-phased
        step loop uses it *instead of* the per-step firing schedule
        when no downstream stage reads its membrane before this stage's
        fire window ends.  Fire-once semantics make the event positions
        unique, so the receiver's merged drive is bit-identical to per-step
        bucket delivery; spikes carry per-event kernel weights and are
        latched fired.

        They leave as one row-major packet unless ``out`` (shaped like the
        population) is given and their density exceeds ``threshold`` — the
        receiver's calibrated event-kernel threshold — in which case the
        dense weighted tensor is written into ``out`` (which may be
        ``drive`` itself: it is integrated first); ``workspace`` supplies
        shared scratch (:func:`_drain`).
        """
        if self._fired is None:
            raise RuntimeError("reset() must be called before drain_fire_events()")
        if not self._monotone:
            raise RuntimeError("drain_fire_events() requires a monotone kernel")
        if not self._bias_settled(t):
            raise RuntimeError("drain_fire_events() needs a settled bias")
        self._no_more_input = True
        self._drained = True
        u = self._require_state()
        if drive is not None:
            u += drive
        self._sched = None  # the schedule is spent; step() now sees all-fired
        n = u.shape[0]
        dt_from = max(t + 1 - self.window.fire_start, 0)
        if dt_from >= self.window.fire_window:
            return None, 0
        return _drain(
            self._times,
            u.reshape(n, -1),
            self._fired.reshape(n, -1),
            self._floor[dt_from],
            dt_from,
            self.shape,
            out,
            threshold,
            workspace,
        )

    def row_quiescent(self, t: int) -> np.ndarray | None:
        if self._fired is None:
            return None
        n = self._fired.shape[0]
        if t + 1 >= self.window.fire_end:
            return np.ones(n, dtype=bool)
        if t < self.window.integration_start and self._has_bias:
            # The one-shot bias is still pending; potentials are not final.
            return np.zeros(n, dtype=bool)
        next_dt = max(t + 1 - self.window.fire_start, 0)
        if self._sched is not None:
            # Scheduled mode: a sample is done once its last bucket passed.
            return self._sched.rows_done(next_dt)
        u = self._require_state()
        alive = (~self._fired) & (u >= self._floor[next_dt])
        return ~alive.reshape(n, -1).any(axis=1)

    def compact(self, keep: np.ndarray) -> None:
        super().compact(keep)
        if self._fired is not None:
            self._fired = arena_compact(self._fired_base, self._fired, keep)
        if self._sched is not None:
            self._sched.compact(keep)

    def spike_fraction(self) -> float:
        """Fraction of neurons that have fired (sparsity diagnostic)."""
        if self._fired is None:
            return 0.0
        return float(self._fired.mean())


class TTFSCoding(CodingScheme):
    """T2FSNN's coding scheme: kernels + pipeline schedule.

    Parameters
    ----------
    window:
        Per-layer time window T.
    kernel_params:
        One :class:`KernelParams` per spike source — the input encoder plus
        each spiking stage, in depth order (``num_spiking_stages + 1``
        entries).  ``None`` uses :func:`default_kernel_params` everywhere.
        These are the parameters the gradient-based optimization trains.
    early_firing:
        Enable the early-firing pipeline (fire offset ``T/2`` by default).
    fire_offset:
        Explicit fire offset (only with ``early_firing=True``).
    theta0:
        Threshold constant (1.0 after normalization).
    use_lut:
        Evaluate kernels through a lookup table over the fire window instead
        of the exponential — the hardware realisation the Discussion section
        proposes.  Bit-identical results (simulations only query integer
        offsets; property-tested), so this is purely a cost statement.

    Notes
    -----
    The integration kernel of stage ``l`` is set equal to the fire kernel of
    its presynaptic source (Sec. III-A), so each source owns exactly one
    kernel used for both encoding (threshold) and decoding (spike weight).

    The bound encoders/dynamics/readout inherit the converted network's
    compute dtype (``ConvertedNetwork.dtype``): float64 by default, float32
    when the network was converted or cast with ``dtype=np.float32``.
    """

    name = "ttfs"

    def __init__(
        self,
        window: int,
        kernel_params: list[KernelParams] | None = None,
        early_firing: bool = False,
        fire_offset: int | None = None,
        theta0: float = 1.0,
        use_lut: bool = False,
    ):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.window = window
        self.kernel_params = kernel_params
        self.early_firing = early_firing
        self.fire_offset = fire_offset
        self.theta0 = theta0
        self.use_lut = use_lut

    def expected_sources(self, network: ConvertedNetwork) -> int:
        """Number of kernels this network needs (input + spiking stages)."""
        return network.num_spiking_stages + 1

    def resolved_params(self, network: ConvertedNetwork) -> list[KernelParams]:
        """Kernel parameters per source, applying defaults when unset."""
        n = self.expected_sources(network)
        if self.kernel_params is None:
            return [default_kernel_params(self.window) for _ in range(n)]
        if len(self.kernel_params) != n:
            raise ValueError(
                f"expected {n} kernel parameter sets (input + spiking stages), "
                f"got {len(self.kernel_params)}"
            )
        return list(self.kernel_params)

    def schedule(self, network: ConvertedNetwork) -> PhasedSchedule:
        """The pipeline schedule this scheme uses for ``network``."""
        return build_phased_schedule(
            network.num_spiking_stages,
            self.window,
            early_firing=self.early_firing,
            fire_offset=self.fire_offset,
        )

    def bind(self, network: ConvertedNetwork, steps: int | None = None) -> BoundCoding:
        self._check_network(network)
        params = self.resolved_params(network)
        schedule = self.schedule(network)
        kernels = [
            ExpKernel(p).to_lut(self.window) if self.use_lut else ExpKernel(p)
            for p in params
        ]
        dtype = network.dtype

        # Bound encoders/dynamics emit SpikePackets natively: the engine gets
        # spike counts for free and the dense fire tensor is never allocated.
        encoder = TTFSInputEncoder(
            kernels[0], self.window, self.theta0, emit_events=True, dtype=dtype
        )
        spiking = [s for s in network.stages if s.spiking]
        dynamics = [
            TTFSNeurons(
                stage.out_shape,
                stage.bias_broadcast(1),
                window,
                kernel,
                self.theta0,
                emit_events=True,
                dtype=dtype,
            )
            for stage, window, kernel in zip(spiking, schedule.windows, kernels[1:])
        ]
        readout = ReadoutAccumulator(
            network.stages[-1].out_shape,
            network.stages[-1].bias_broadcast(1),
            bias_policy="once_at",
            bias_time=schedule.windows[-1].fire_start,
            dtype=dtype,
        )
        total = steps if steps is not None else schedule.total_steps
        return BoundCoding(
            encoder=encoder,
            dynamics=dynamics,
            readout=readout,
            total_steps=max(total, schedule.total_steps),
            decision_time=schedule.decision_time,
            counts_input_spikes=True,
        )
