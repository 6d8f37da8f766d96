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

One fire-once population (:class:`_FireOnce`) is the firing core of every
TTFS spike source.  The input encoder is that population over the pixels
(pre-integrated potentials: fire offset 0, no drive); a spiking stage is it
over its integrated membrane, opening at ``fire_start``.  Nothing fires
below the population's firing floor — the threshold table's last entry,
and never zero, so a zero potential stays silent even where the kernel
underflows to 0.  Threshold tables must be non-increasing, as every
exponential and LUT kernel is.

Throughput runtime (docs/DESIGN.md §9): once a population's potentials
are final (the encoder's at reset, a stage's once the engine reports its
input exhausted with ``note_input_exhausted``), every unfired unit's spike
time has a closed form.  The population switches from per-step threshold
comparisons to a precomputed *firing schedule*: survivors of the floor are
counting-sorted into per-step buckets and each remaining step just slices
its bucket, making fire-phase cost O(spikes emitted) instead of
O(population x steps).  The encoder never compares per step.  Firing
decisions are identical either way; every population also reports
per-sample quiescence (``row_quiescent``), which powers early exit and
batch retirement.

Every spike time comes from one closed-form routine (:class:`_SpikeTimes`:
a log-linear estimate and one fix-up against the table, bit-identical to
``np.searchsorted`` over it; a NaN potential never fires).  The compiled
plan's bulk drains (docs/DESIGN.md §10) use it to emit a whole fire window
either as one packet or, when the receiver runs its GEMM, as a dense
tensor gathered straight into a buffer the plan supplies, without
allocating.  A drained spike's weight is the kernel value at its firing
offset, so on a strictly decreasing table a run truncated by a compute
budget can cut a drain back to the spikes it actually reached
(:func:`_cut`).  Under the engine's layered schedule policy no step
touches a stage: its one drain integrates the whole window's drive and
lands the one-shot bias with it, so a stage fires with one call.
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
from repro.utils.arena import FRESH

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


class _SpikeTimes:
    """Closed-form spike offsets over a monotone threshold table.

    ``offsets(v, dt_from)`` is, per value, the first offset ``dt`` with
    ``v >= weights[dt]`` (``len(weights)`` when there is none), raised to at
    least ``dt_from`` — bit-identical to
    ``np.maximum(np.searchsorted(-weights, -v), dt_from)``.

    A geometric table (the exponential kernel of Eq. 5, tabulated or as a
    LUT) has the closed-form inverse ``dt = ceil(t_d - tau * ln(v/theta0))``.
    The index is estimated log-linearly from the table's own endpoints,
    half a step late, truncated, then fixed up once against the table
    (``dt -= W[dt-1] <= v``), which makes it exact for any estimate of the
    answer or one past it.  That bound is verified once here, at every step
    boundary of the table and its float neighbours, with a quarter-step
    margin; the estimate is monotone in ``v``, so the boundaries bound every
    value between them.  Values are clamped into the table's range with
    ``fmax``/``fmin``, so a NaN never reaches the integer cast: it clamps to
    the last entry, fails the fix-up's comparison and never fires.  A table
    that fails the check (not geometric, zero or non-finite entries, a
    single entry) keeps ``np.searchsorted``.  Every pass can write into
    caller-owned scratch, which is what makes the compiled plan's dense
    drain allocation-free.
    """

    __slots__ = ("weights", "emitted", "cuttable", "_neg", "_hi", "_fit", "_clip")

    #: Slack, in steps, the estimate must keep from the fix-up's reach.
    MARGIN = 0.25

    def __init__(self, weights: np.ndarray):
        self.weights = weights
        dtype = weights.dtype
        # Tables padded past both ends, so the fix-up never indexes outside
        # them: _hi[dt] = W[dt - 1], emitted[dt] = the spike weight, zero for
        # "never fires".  The pads keep the fix-up inside [0, len]: NaN never
        # steps below zero, -inf always steps back from len + 1.
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
        # [W[i], W[i-1]) at c in (i-1, i]; +1.5 centres the truncated
        # estimate on the fix-up's reach {i, i+1}.
        fit = (1.5 - slope * top, slope)
        probe = np.concatenate((w, np.nextafter(w, np.inf), np.nextafter(w, -np.inf)))
        est = self._estimate(probe, fit)
        exact = np.searchsorted(self._neg, -probe, side="left")
        fits = bool(
            np.all(est >= exact + self.MARGIN)
            and np.all(est <= exact + 2 - self.MARGIN)
        )
        return fit if fits else None

    def _estimate(
        self, values: np.ndarray, fit: tuple[float, float], g: np.ndarray | None = None
    ) -> np.ndarray:
        """Fractional offset estimate, the answer or one past it once
        truncated; ``g`` is the float scratch it is written into."""
        intercept, slope = fit
        lo, hi = self._clip
        g = np.fmax(values, lo, out=g)  # NaN -> the last entry
        np.fmin(g, hi, out=g)
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
            np.take(self._hi, dt, out=g, mode="clip")
            cmp = np.less_equal(g, values, out=cmp)
            np.subtract(dt, cmp, out=dt)  # the estimate ran one past
        if dt_from > 0:
            np.maximum(dt, dt_from, out=dt)
        return dt


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
    output) — bit-identical to the packet's ``to_dense()``.  Scratch comes
    from the arena ``workspace`` under ``("ttfs.drain", name)`` keys every
    stage shares (a plan's buffers size themselves to the largest), so
    with a plan's workspace the dense path allocates nothing.

    The dense tensor is the gather ``emitted[dt]`` with no mask multiply: a
    unit below the floor (NaN included) is offset past the table and
    gathers the zero pad, so only units that fired earlier need zeroing,
    and only when there are any.
    """
    scratch = workspace.buffer
    mask = scratch(("ttfs.drain", "mask"), values.shape, bool)
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
    g = scratch(("ttfs.drain", "g"), values.shape, times.weights.dtype)
    dt = times.offsets(
        values,
        dt_from,
        out=scratch(("ttfs.drain", "dt"), values.shape, np.intp),
        g=g,
        cmp=scratch(("ttfs.drain", "cmp"), values.shape, bool),
    )
    if out.flags.c_contiguous:
        np.take(times.emitted, dt.reshape(out.shape), out=out, mode="clip")
    else:  # a strided target: gather into scratch, then copy across
        np.take(times.emitted, dt, out=g, mode="clip")
        np.copyto(out, g.reshape(out.shape))
    if fired.any():
        np.copyto(out, 0, where=fired.reshape(out.shape))
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
    counting-sorted by that offset — stable and on the narrowest unsigned
    keys that hold every offset (16 bits or fewer below 65,536 steps), so
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
        key = np.min_scalar_type(len(weights))
        fire_dt = times.offsets(flat[rows, idx], dt_from).astype(key, copy=False)
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


class _FireOnce:
    """One fire-once TTFS population: the firing core of every spike source.

    A unit's potential is compared with the decaying kernel threshold of its
    fire window, which opens at step ``start``; the unit fires once, at the
    first step whose threshold it meets, with the kernel value there as its
    spike weight.  The input encoder is this population over the pixels
    (``start`` 0, no drive); a spiking stage is it over the integrated
    membrane (``start`` = its ``fire_start``).  Steps are absolute; step
    ``t`` is offset ``t - start`` into the table.

    Nothing fires below the firing ``floor``: the table's last entry, and
    never zero — a zero potential stays silent even where the kernel
    underflows to 0.  Once the potentials are final, :meth:`schedule` turns
    them into a :class:`_FiringSchedule` and every later step is a bucket
    slice; :meth:`drain` instead emits the whole rest at once.
    """

    __slots__ = (
        "weights", "floor", "times", "start", "fired", "sched", "drained", "shape", "_base"
    )

    def __init__(self, kernel: ExpKernel, window: int, start: int, theta0: float, dtype):
        if theta0 <= 0:
            raise ValueError(f"theta0 must be positive, got {theta0}")
        weights = tabulate_kernel(kernel, window, theta0, dtype)
        if not np.all(weights[1:] <= weights[:-1]):
            raise ValueError("a TTFS threshold table must be non-increasing")
        self.weights = weights
        # The smallest potential that fires: the suffix minimum of a
        # non-increasing table is its last entry, over the whole window.
        self.floor = max(weights[-1], _SMALLEST_POSITIVE)
        self.times = _SpikeTimes(weights)
        self.start = start
        self.fired: np.ndarray | None = None
        self.sched: _FiringSchedule | None = None
        self.drained = False
        self.shape: tuple[int, ...] = ()
        self._base: np.ndarray | None = None

    def reset(self, shape: tuple[int, ...]) -> None:
        """All units of a ``(batch, *population)`` population unfired."""
        self._base, self.fired = arena_zeros(self._base, shape, bool)
        self.shape = tuple(shape[1:])
        self.sched = None
        self.drained = False

    @property
    def pending(self) -> bool:
        """Whether the fire window is neither scheduled nor drained yet."""
        return self.sched is None and not self.drained

    def _flat(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = values.shape[0]
        return values.reshape(n, -1), self.fired.reshape(n, -1)

    def schedule(self, values: np.ndarray, t_from: int) -> None:
        """Turn final potentials into the firing schedule of steps ``t_from``
        on: unfired units below the floor never fire and are dropped, the
        rest get closed-form spike offsets."""
        flat, fired = self._flat(values)
        dt_from = max(t_from - self.start, 0)
        if dt_from >= len(self.weights):
            alive = np.zeros_like(fired)
            dt_from = 0  # no offsets left; the empty schedule is inert
        else:
            alive = (~fired) & (flat >= self.floor)
        self.sched = _FiringSchedule(flat, alive, self.times, dt_from)

    def emit(self, t: int) -> SpikePacket | None:
        """The scheduled spikes of step ``t``, latched fired: a bucket slice —
        three views, no comparison and no per-step allocation."""
        dt = t - self.start
        if self.sched is None or not 0 <= dt < len(self.weights):
            return None
        bucket = self.sched.bucket(dt)
        if bucket is None:
            return None
        rows, idx, weights = bucket
        self.fired.reshape(self.fired.shape[0], -1)[rows, idx] = True
        return SpikePacket(
            rows=rows,
            idx=idx,
            weights=weights,
            batch=self.fired.shape[0],
            shape=self.shape,
            unique=True,
        )

    def fire(self, values: np.ndarray, t: int) -> SpikePacket | None:
        """The spikes of step ``t``: from the schedule once there is one,
        else the units at or above this step's threshold and the floor."""
        if self.sched is not None or self.drained:
            return self.emit(t)
        dt = t - self.start
        if not 0 <= dt < len(self.weights):
            return None
        weight = self.weights[dt]
        can_fire = (~self.fired) & (values >= max(weight, self.floor))
        if not can_fire.any():
            return None
        self.fired |= can_fire
        return SpikePacket.from_mask(can_fire, float(weight), dtype=self.weights.dtype)

    def drain(
        self,
        values: np.ndarray,
        t_from: int,
        out: np.ndarray | None,
        threshold: float,
        workspace,
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Emit every spike of steps ``t_from`` on at once (:func:`_drain`);
        the population is spent afterwards."""
        self.drained = True
        self.sched = None
        dt_from = max(t_from - self.start, 0)
        if dt_from >= len(self.weights):
            return None, 0
        flat, fired = self._flat(values)
        return _drain(
            self.times, flat, fired, self.floor, dt_from, self.shape, out, threshold, workspace
        )

    def can_drain(self, cut: bool) -> bool:
        """Every table drains; with ``cut``, only one a truncation can cut."""
        return not cut or self.times.cuttable

    def cut(
        self, spikes: SpikePacket | np.ndarray | None, steps: int
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Take back the drained ``spikes`` that a run stopped after ``steps``
        executed steps never emitted; returns ``(kept, removed)`` (:func:`_cut`)."""
        return _cut(spikes, self.times, steps - self.start)

    def quiescent(self, values: np.ndarray | None, t: int) -> np.ndarray | None:
        """Per row, whether nothing fires after step ``t``: the window is
        over, the row's last bucket passed, or every unit fired or sits below
        the floor (``values`` must be final)."""
        if self.fired is None:
            return None
        n = self.fired.shape[0]
        next_dt = t + 1 - self.start
        if next_dt >= len(self.weights):
            return np.ones(n, dtype=bool)
        if self.sched is not None:
            return self.sched.rows_done(max(next_dt, 0))
        flat, fired = self._flat(values)
        return ~((~fired) & (flat >= self.floor)).any(axis=1)

    def compact(self, keep: np.ndarray) -> None:
        if self.fired is None:
            return
        self.fired = arena_compact(self._base, self.fired, keep)
        if self.sched is not None:
            self.sched.compact(keep)


class TTFSInputEncoder(InputEncoder):
    """Encode pixels as first-spike times during ``[0, T)``.

    The image plays the role of pre-integrated membrane potential: the
    encoder is the fire-once population (:class:`_FireOnce`) over the
    pixels, with fire offset 0 and no drive.  Pixel ``x`` fires at the first
    step where ``x >= theta0 * eps(t)`` (zero pixels never fire), and the
    emitted spike is weighted by the kernel (the decoded intensity).  The
    pixels are final at :meth:`reset`, so the first :meth:`step`
    counting-sorts every spike time into per-step buckets and each step
    just slices its bucket.
    """

    counts_spikes = True
    constant = False

    def __init__(self, kernel: ExpKernel, window: int, theta0: float = 1.0, dtype=np.float64):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.kernel = kernel
        self.window = window
        self.theta0 = theta0
        self.dtype = np.dtype(dtype)
        self._core = _FireOnce(kernel, window, 0, theta0, dtype)
        self._x: np.ndarray | None = None

    def emission_window(self) -> int:
        return self.window

    def reset(self, x: np.ndarray) -> None:
        if x.min() < 0.0:
            raise ValueError("TTFS input encoding requires non-negative inputs")
        self._x = x
        self._core.reset(x.shape)

    def step(self, t: int) -> SpikePacket | None:
        if self._x is None:
            raise RuntimeError("reset() must be called before step()")
        if self._core.pending:
            # Built at the first step, so a bulk-drained run never pays for it.
            self._core.schedule(self._x, 0)
        return self._core.emit(t)

    def can_drain(self, cut: bool = False) -> bool:
        """Whether a truncated run can take a drain back (with ``cut``,
        :meth:`cut_drain`); every encoder drains."""
        return self._core.can_drain(cut)

    def cut_drain(
        self, spikes: SpikePacket | np.ndarray | None, steps: int
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Take back the drained ``spikes`` that a run stopped after ``steps``
        executed steps never emitted; returns ``(kept, removed)``."""
        return self._core.cut(spikes, steps)

    def drain_events(
        self,
        out: np.ndarray | None = None,
        threshold: float = 1.0,
        workspace=FRESH,
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
        the receiver's event-kernel density threshold — in which case
        the dense weighted tensor is written into ``out``; the arena
        ``workspace`` supplies shared scratch (:func:`_drain`).
        """
        if self._x is None:
            raise RuntimeError("reset() must be called before drain_events()")
        return self._core.drain(self._x, 0, out, threshold, workspace)

    def row_quiescent(self, t: int) -> np.ndarray | None:
        """A sample is exhausted when every pixel either fired or sits below
        the firing floor."""
        return self._core.quiescent(self._x, t)

    def compact(self, keep: np.ndarray) -> None:
        if self._x is None:
            return
        self._x = self._x[keep]
        self._core.compact(keep)


class TTFSNeurons(NeuronDynamics):
    """Fire-once IF neurons under a dynamic exponential threshold.

    Integration: the synaptic drive is accumulated whenever it arrives (the
    schedule guarantees it arrives during this stage's integration window);
    the stage bias is injected once, at ``window.integration_start``.

    Fire phase (``[fire_start, fire_end)``): at offset ``dt`` the threshold
    is ``theta0 * kernel(dt)``; neurons at or above it (and above zero)
    emit one spike of weight ``kernel(dt) * theta0`` and are latched fired.
    The membrane is the fire-once population (:class:`_FireOnce`) opening
    at ``fire_start``.  Spikes leave as
    :class:`~repro.snn.events.SpikePacket` event lists; once the engine
    reports the stage's input exhausted and the bias has landed, the fire
    phase switches from per-step comparisons to the precomputed firing
    schedule (see module docstring), with identical firing decisions.
    """

    def __init__(
        self,
        shape,
        bias,
        window: StageWindow,
        kernel: ExpKernel,
        theta0: float = 1.0,
        dtype=np.float64,
    ):
        super().__init__(shape, bias, dtype)
        self.window = window
        self.kernel = kernel
        self.theta0 = theta0
        self._core = _FireOnce(kernel, window.fire_window, window.fire_start, theta0, dtype)
        # Input exhausted but the potentials not yet scheduled (the one-shot
        # bias had not landed when the engine reported it).
        self._schedule_due = False
        # No step since reset: the membrane is still zero and the one-shot
        # bias has not landed (drain_fire_events lands it with the drive).
        self._fresh = True

    def phase_window(self) -> StageWindow:
        return self.window

    def reset(self, batch_size: int) -> None:
        super().reset(batch_size)
        self._core.reset((batch_size,) + self.shape)
        self._schedule_due = False
        self._fresh = True

    def _bias_settled(self, t: int) -> bool:
        """Whether the one-shot stage bias has been injected by step ``t``."""
        return not self._has_bias or t >= self.window.integration_start

    def _schedule_if_final(self, t: int, t_from: int) -> None:
        """Schedule the fire window from step ``t_from`` on once the
        potentials are final: input exhausted and the bias landed by ``t``."""
        if self._bias_settled(t):
            self._schedule_due = False
            self._core.schedule(self.u, t_from)

    def note_input_exhausted(self, t: int) -> None:
        if self.u is not None and self._core.pending:
            self._schedule_due = True
            self._schedule_if_final(t, t + 1)

    def step(self, drive: np.ndarray | None, t: int) -> SpikePacket | None:
        u = self._require_state()
        self._fresh = False
        if drive is not None:
            u += drive
        if t == self.window.integration_start and self._has_bias:
            u += self.bias
        if self._schedule_due:
            self._schedule_if_final(t, t)
        return self._core.fire(u, t)

    def needs_drive(self, t: int) -> bool:
        """The membrane potential is only compared during the fire phase, so
        integration-phase drives can be delivered in one deferred batch."""
        return self.window.in_fire_phase(t)

    def can_drain(self, cut: bool = False) -> bool:
        """Whether a truncated run can take a drain back (with ``cut``,
        :meth:`cut_drain`); every stage drains once its input is exhausted."""
        return self._core.can_drain(cut)

    def cut_drain(
        self, spikes: SpikePacket | np.ndarray | None, steps: int
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Take back the drained ``spikes`` that a run stopped after ``steps``
        executed steps never fired; returns ``(kept, removed)``."""
        return self._core.cut(spikes, steps)

    def drain_fire_events(
        self,
        t: int,
        drive: np.ndarray | None = None,
        out: np.ndarray | None = None,
        threshold: float = 1.0,
        workspace=FRESH,
    ) -> tuple[SpikePacket | np.ndarray | None, int]:
        """Emit every remaining scheduled spike at once; returns
        ``(spikes, count)``.

        Calling this carries the ``note_input_exhausted`` contract — the
        caller guarantees no drive arrives after step ``t`` beyond the
        final ``drive`` delivered here — and requires a settled bias (the
        potentials are final once ``drive`` is integrated).  On a population
        no step has touched since reset, ``drive`` is the whole integration
        window and the one-shot bias lands with it: the layered schedule
        policy fires a stage with this one call.  The window-phased
        step loop uses it *instead of* the per-step firing schedule
        when no downstream stage reads its membrane before this stage's
        fire window ends.  Fire-once semantics make the event positions
        unique, so the receiver's merged drive is bit-identical to per-step
        bucket delivery; spikes carry per-event kernel weights and are
        latched fired.

        They leave as one row-major packet unless ``out`` (shaped like the
        population) is given and their density exceeds ``threshold`` — the
        receiver's event-kernel density threshold — in which case the
        dense weighted tensor is written into ``out`` (which may be
        ``drive`` itself: it is integrated first); the arena ``workspace``
        supplies shared scratch (:func:`_drain`).
        """
        u = self.u
        if u is None:
            raise RuntimeError("reset() must be called before drain_fire_events()")
        if not self._bias_settled(t):
            raise RuntimeError("drain_fire_events() needs a settled bias")
        if self._fresh and self._has_bias:
            # No step has run (the layered schedule policy): the one-shot
            # bias lands now, in one pass with the drive where the dtypes
            # agree.  drive + bias is bit-identical to the per-step
            # 0 + bias + drive (signed zeros aside, which never fire).
            if drive is None or not drive.dtype == u.dtype == getattr(self.bias, "dtype", None):
                u += self.bias
            else:
                np.add(drive, self.bias, out=u)
                drive = None
        self._fresh = False
        if drive is not None:
            u += drive
        self._schedule_due = False
        return self._core.drain(u, t + 1, out, threshold, workspace)

    def row_quiescent(self, t: int) -> np.ndarray | None:
        if self.u is not None and t < self.window.integration_start and self._has_bias:
            # The one-shot bias is still pending; potentials are not final.
            return np.zeros(self.u.shape[0], dtype=bool)
        return self._core.quiescent(self.u, t)

    def compact(self, keep: np.ndarray) -> None:
        super().compact(keep)
        self._core.compact(keep)

    def spike_fraction(self) -> float:
        """Fraction of neurons that have fired (sparsity diagnostic)."""
        if self._core.fired is None:
            return 0.0
        return float(self._core.fired.mean())


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

        # Encoders/dynamics emit SpikePackets natively: the engine gets spike
        # counts for free and the dense fire tensor is never allocated.
        encoder = TTFSInputEncoder(kernels[0], self.window, self.theta0, dtype=dtype)
        spiking = [s for s in network.stages if s.spiking]
        dynamics = [
            TTFSNeurons(
                stage.out_shape,
                stage.bias_broadcast(1),
                window,
                kernel,
                self.theta0,
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
