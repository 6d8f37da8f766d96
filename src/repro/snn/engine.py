"""Clock-driven SNN simulation engine with an event-driven fast path.

The engine is scheme-agnostic: a :class:`~repro.coding.base.CodingScheme`
binds a :class:`~repro.convert.converter.ConvertedNetwork` into an encoder,
per-stage neuron dynamics and a readout; the engine advances the global clock,
routes weighted spike tensors through each stage's linear ops, and bookkeeps
spike counts and monitors.

Synchronous zero-delay propagation: spikes emitted by stage ``l`` at step
``t`` arrive at stage ``l+1`` within the same step — consistent with the
phase pipeline where layer ``l+1`` integrates exactly while layer ``l``
fires (Fig. 3).

Event-driven propagation (docs/DESIGN.md §7): a step's spikes travel as
either a dense tensor or a :class:`~repro.snn.events.SpikePacket` (flat
event list).  Encoders/dynamics may emit packets natively (TTFS does — its
fire-once semantics make per-step density tiny); dense emissions are packed
by the engine whenever the measured density falls at or below
``density_threshold``.  Sparse propagation scatter-adds weight patches per
event instead of running the full im2col convolution, so simulation cost
scales with the number of spikes.  Spike counts come from packet sizes —
no per-step ``np.count_nonzero`` on the sparse path — and predictions and
counts are identical to the dense path on every coding scheme.

Silent-layer shortcut: an all-zero spike tensor is propagated as ``None`` so
stages skip their convolution work entirely; neuron state still advances
(TTFS thresholds decay even without input).

Throughput runtime (docs/DESIGN.md §9): encoders and dynamics report
per-sample *quiescence* — no spike can ever be emitted again.  The engine
chains the reports depth-wise each step; once every sample is quiescent and
the readout score is final the time loop terminates early, and samples whose
fate is sealed before the rest of the batch are *retired* — their score is
recorded and every piece of per-sample state (drive buffers, neuron state,
readout potential, encoder state) is compacted down to the surviving rows —
so wall time tracks the slowest sample's decision time instead of
``total_steps x full batch``.  Both mechanisms are loss-free: predictions,
scores and spike counts are identical to the full-schedule run.

One step loop, three schedule policies (docs/DESIGN.md §10):
:meth:`Simulator._run` is the only step loop, and the *per-step* policy
above is the reference.  A compiled plan of a window-scheduled scheme
(TTFS, reverse) runs the same loop under the *window-phased* policy: it
visits only the stages whose windows let them act, drains fire-once
sources in bulk and stops at the last fire window's end.  Where every
source drains and no budget binds (TTFS baseline, Fig. 3a), the
*layered* policy visits no step at all: each stage's input ends where
its fire window opens, so the run is a quantized forward pass — per
stage one propagate of the upstream drain and one drain of its own.
"""

from __future__ import annotations

import numpy as np

from repro.convert.converter import ConvertedNetwork
from repro.snn import events as ev
from repro.snn.budget import Budget, BudgetTimer
from repro.snn.events import SpikePacket
from repro.snn.parallel import merge_results, run_parallel
from repro.snn.results import AnytimeResult, SimulationResult, confidence_margins
from repro.utils.arena import FRESH

__all__ = ["Simulator"]


def _check_batch_size(batch_size, name: str = "batch_size") -> int:
    """Reject non-positive / bool batch sizes loudly (no silent fallback)."""
    if isinstance(batch_size, bool) or not isinstance(
        batch_size, (int, np.integer)
    ):
        raise ValueError(f"{name} must be an int >= 1, got {batch_size!r}")
    if batch_size < 1:
        raise ValueError(f"{name} must be >= 1, got {batch_size}")
    return int(batch_size)


def _check_inputs(x: np.ndarray, y: np.ndarray | None) -> None:
    """Reject an empty ``x`` or labels of another length, before any compute."""
    if len(x) == 0:
        raise ValueError("x holds no samples; inference needs at least one")
    if y is not None and len(y) != len(x):
        raise ValueError(f"labels length {len(y)} != number of samples {len(x)}")


def _drain_target(receiver, inbox, shape, dtype, consumed=None) -> dict:
    """Keyword arguments of a bulk drain towards ``receiver`` (a StagePlan).

    The drain goes dense exactly when ``receiver.threshold`` would send its
    packet through the GEMM (the kernel decision ``_propagate`` makes),
    writing into ``consumed`` — the draining stage's drive, integrated and
    dead until that stage's next flush — or, without one, into the
    receiver's own arena buffer, which lives until the receiver flushes it.
    A receiver with input already pending keeps packets: its buffer merges
    them itself.
    """
    if not inbox.empty:
        return {}
    workspace = receiver.workspace
    if consumed is None:
        consumed = workspace.buffer(("drain", receiver.index), shape, dtype)
    return {"out": consumed, "threshold": receiver.threshold, "workspace": workspace}


class _DriveBuffer:
    """Accumulates a stage's incoming spike emissions between drive reads.

    The event-driven engine defers a stage's linear-op work until its
    dynamics actually consult the membrane potential (``needs_drive``):
    emissions are buffered here and flushed as one batch.  A single buffered
    emission passes through untouched (the per-step fast path — also the
    dense engine's behavior, which flushes every step); multiple emissions
    are merged into one dense tensor, since integration is additive and the
    stage ops are linear.

    Packets are merged (:func:`repro.snn.events.merge_packets`) into the
    arena ``ws``'s buffer under ``key``: the stage's ``("merge", index)``
    in its plan's workspace.
    """

    __slots__ = ("_single", "_packets", "_sum", "_ws", "_key")

    def __init__(self, ws=FRESH, key=None):
        self._single: np.ndarray | SpikePacket | None = None
        self._packets: list[SpikePacket] | None = None
        self._sum: np.ndarray | None = None
        self._ws = ws
        self._key = key

    def _merged(self) -> np.ndarray:
        """The buffered packets merged into the arena buffer; clears them."""
        first = self._packets[0]
        shape = (first.batch,) + tuple(first.shape)
        out = self._ws.buffer(self._key, shape, first.weights.dtype)
        merged = ev.merge_packets(self._packets, out)
        self._packets = None
        return merged

    def add(self, spikes: np.ndarray | SpikePacket) -> None:
        if self._sum is not None:
            self._accumulate(spikes)
        elif self._packets is not None:
            if isinstance(spikes, SpikePacket):
                self._packets.append(spikes)
            else:
                self._sum = self._merged()
                self._accumulate(spikes)
        elif self._single is None:
            self._single = spikes
        else:
            first = self._single
            self._single = None
            if isinstance(first, SpikePacket) and isinstance(spikes, SpikePacket):
                # All-packet deferral windows stay as event lists and merge
                # in one scatter at flush time.
                self._packets = [first, spikes]
                return
            if isinstance(first, SpikePacket):
                self._sum = first.to_dense()
            else:
                self._sum = first.copy()  # monitors may hold the original
            self._accumulate(spikes)

    def _accumulate(self, spikes: np.ndarray | SpikePacket) -> None:
        if isinstance(spikes, SpikePacket):
            flat = self._sum.reshape(self._sum.shape[0], -1)
            np.add.at(flat, (spikes.rows, spikes.idx), spikes.weights)
        else:
            self._sum += spikes

    @property
    def empty(self) -> bool:
        return self._single is None and self._packets is None and self._sum is None

    def rows_with_events(self, batch: int) -> np.ndarray | None:
        """Boolean mask of batch rows with pending events (``None`` = empty)."""
        if self._sum is not None:
            return self._sum.reshape(batch, -1).any(axis=1)
        if self._packets is not None:
            present = np.zeros(batch, dtype=bool)
            for packet in self._packets:
                present[packet.rows] = True
            return present
        if self._single is None:
            return None
        if isinstance(self._single, SpikePacket):
            return self._single.rows_with_events()
        return self._single.reshape(batch, -1).any(axis=1)

    def compact(self, keep: np.ndarray) -> None:
        """Drop retired batch rows from any buffered content."""
        if self._single is not None:
            if isinstance(self._single, SpikePacket):
                self._single = self._single.compact_rows(keep)
            else:
                self._single = self._single[keep]
        if self._packets is not None:
            self._packets = [p.compact_rows(keep) for p in self._packets]
        if self._sum is not None:
            self._sum = self._sum[keep]

    def take(self) -> tuple[np.ndarray | SpikePacket | None, bool]:
        """Pop the buffered drive input; second element marks a merged tensor
        (whose density the caller should re-measure before propagating).

        An all-packet deferral window is merged into the arena buffer; a
        single buffered emission passes through untouched.
        """
        if self._packets is not None:
            return self._merged(), True
        single, merged = self._single, self._sum
        self._single = None
        self._sum = None
        if merged is not None:
            return merged, True
        return single, False


class Simulator:
    """Run a converted network under a neural coding scheme.

    Parameters
    ----------
    network:
        The converted (normalized, staged) network.  Its parameter dtype
        (``network.dtype``) is the engine's compute dtype: float64 by
        default, float32 after ``network.astype(np.float32)``.
    scheme:
        A :class:`~repro.coding.base.CodingScheme`.
    steps:
        Time budget for free-running schemes (rate/phase/burst).  Ignored by
        phase-scheduled schemes (TTFS), whose binding derives its own length.
    monitors:
        Objects implementing the monitor protocol
        (:mod:`repro.snn.monitors`); observed every step.
    event_driven:
        Enable the sparse propagation fast path.  ``False`` forces every
        step through the dense linear ops (the reference baseline; results
        match the event-driven path exactly in predictions and counts).
    density_threshold:
        Spike density (nonzero fraction) at or below which a step's spikes
        are propagated sparsely.  The default is measured in
        ``benchmarks/bench_engine_throughput.py``.
    early_exit:
        Enable quiescence early-exit and per-sample retirement
        (docs/DESIGN.md §9).  Loss-free (identical predictions, scores and
        spike counts); only ``SimulationResult.steps`` — the steps actually
        executed — shrinks.  Automatically disabled when the scheme cannot
        report quiescence (e.g. analog/Poisson input encoders), when the
        readout's bias policy keeps scores changing until the scheduled
        end, or when an attached monitor requires the full schedule
        (``Monitor.requires_full_run``).

    Examples
    --------
    >>> # doctest: +SKIP
    >>> sim = Simulator(net, RateCoding(), steps=200)
    >>> result = sim.run(x_test, y_test)
    >>> result.accuracy
    """

    def __init__(
        self,
        network: ConvertedNetwork,
        scheme,
        steps: int | None = None,
        monitors=(),
        event_driven: bool = True,
        density_threshold: float = ev.DEFAULT_DENSITY_THRESHOLD,
        early_exit: bool = True,
    ):
        if density_threshold < 0.0 or density_threshold > 1.0:
            raise ValueError(
                f"density_threshold must lie in [0, 1], got {density_threshold}"
            )
        self.network = network
        self.scheme = scheme
        self.monitors = list(monitors)
        self.event_driven = bool(event_driven)
        self.density_threshold = float(density_threshold)
        self.early_exit = bool(early_exit)
        self.bound = scheme.bind(network, steps)
        self._steps_arg = steps
        self._plans: dict = {}

    def _replica(self, scheme=None, steps=None, monitors=()) -> "Simulator":
        """A fresh simulator with this one's engine options and its own
        bound state; ``scheme`` and ``steps`` override when given."""
        return Simulator(
            self.network,
            self.scheme if scheme is None else scheme,
            steps=self._steps_arg if steps is None else steps,
            monitors=monitors,
            event_driven=self.event_driven,
            density_threshold=self.density_threshold,
            early_exit=self.early_exit,
        )

    def _propagate(
        self, pstage, spikes: np.ndarray | SpikePacket | None
    ) -> np.ndarray | None:
        """Synaptic drive of ``pstage``'s stage for one step's spikes.

        ``pstage`` (a :class:`~repro.snn.plan.StagePlan`) binds the stage's
        kernels to an arena: a packet at or below its threshold takes the
        event kernel, anything else the dense ops.
        """
        if spikes is None:
            return None
        if isinstance(spikes, SpikePacket):
            if self.event_driven and spikes.density <= pstage.threshold:
                return ev.apply_stage_events(
                    pstage.stage, spikes, pstage.workspace, pstage.index
                )
            spikes = spikes.to_dense()
        return pstage.apply_dense(spikes)

    def _flush(self, pstage, buffer: _DriveBuffer) -> np.ndarray | None:
        spikes, merged = buffer.take()
        if merged:
            # A deferred batch: re-measure density so a sparse accumulation
            # (e.g. a near-silent integration window) still takes the fast path.
            spikes, _ = ev.ingest(spikes, pstage.threshold if self.event_driven else 0.0)
        return self._propagate(pstage, spikes)

    def _notify_batch_start(self, x: np.ndarray, y: np.ndarray | None) -> None:
        for monitor in self.monitors:
            hook = getattr(monitor, "on_batch_start", None)
            if hook is not None:
                hook(self, x, y)

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        budget: Budget | None = None,
    ) -> SimulationResult:
        """Simulate a batch ``x`` (optionally scoring against labels ``y``).

        ``budget`` (:class:`~repro.snn.budget.Budget`) bounds the run by
        wall-clock time and/or executed steps and/or retires samples the
        moment their confidence margin clears ``min_confidence``.  A
        budgeted run returns an :class:`~repro.snn.results.AnytimeResult`
        — the current argmax, per-sample margins and ``steps_executed`` —
        whether or not the budget actually bound (docs/DESIGN.md §14).
        """
        return self._session(x, y, budget)

    def _session(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        budget: Budget | None,
        batch_size: int | None = None,
        plan=None,
    ) -> SimulationResult:
        """One monitored call: the run shell every entry point shares.

        Monitors get one ``on_run_start`` / ``on_run_end`` around the whole
        call.  ``x`` runs as windows of ``batch_size`` samples (one window
        when ``None``) whose results merge in sample order; a ``budget``
        starts *one* timer for the call.  ``plan`` overlays a compiled
        plan's kernels and arenas on every window.
        """
        if budget is not None and not isinstance(budget, Budget):
            raise TypeError(f"budget must be a Budget or None, got {budget!r}")
        _check_inputs(x, y)
        for monitor in self.monitors:
            monitor.on_run_start(self, x, y)
        timer = budget.start() if budget is not None else None
        if batch_size is None or len(x) <= batch_size:
            result = self._run(x, y, plan, timer)
        else:
            shards, sizes = [], []
            for start in range(0, len(x), batch_size):
                xb = x[start : start + batch_size]
                yb = y[start : start + batch_size] if y is not None else None
                shards.append(self._run(xb, yb, plan, timer))
                sizes.append(len(xb))
            result = merge_results(shards, sizes, y, self.bound.decision_time)
            if timer is not None:
                result = AnytimeResult.from_result(
                    result, any(s.budget_exhausted for s in shards)
                )
        for monitor in self.monitors:
            monitor.on_run_end(result)
        return result

    def _quiescence(
        self,
        bound,
        buffers: list[_DriveBuffer],
        t: int,
        batch: int,
        exhausted_flags: list[bool],
        done_flags: list[bool],
    ) -> np.ndarray | None:
        """Per-sample quiescence after step ``t`` — the depth-wise chain.

        A stage's self-report is only trusted for rows whose entire upstream
        is silent forever: the encoder exhausted, every earlier stage
        quiescent, and no undelivered events sitting in drive buffers.
        Returns ``None`` when the scheme cannot report quiescence (disables
        the machinery for the rest of the run).

        ``exhausted_flags[i]`` latches "stage i will never receive drive
        again" (fires the one-shot ``note_input_exhausted`` hook that lets
        dynamics precompute their remaining schedule); ``done_flags`` caches
        fully-quiescent sources (encoder at index 0, stage ``i`` at ``i+1``)
        so settled stages cost nothing on later steps — with exhausted input
        and fire-once/threshold dynamics, quiescence is monotone.
        """
        if done_flags[0]:
            quiet = np.ones(batch, dtype=bool)
        else:
            quiet = bound.encoder.row_quiescent(t)
            if quiet is None:
                return None
            if quiet.all():
                done_flags[0] = True
        upstream_silent = bool(quiet.all())
        for i, dyn in enumerate(bound.dynamics):
            if done_flags[i + 1]:
                continue  # settled: all rows quiescent, buffer drained
            buffer_empty = buffers[i].empty
            if upstream_silent and buffer_empty and not exhausted_flags[i]:
                dyn.note_input_exhausted(t)
                exhausted_flags[i] = True
            if not quiet.any():
                return quiet  # nothing can retire; skip the deeper checks
            if not buffer_empty:
                pending = buffers[i].rows_with_events(batch)
                if pending is not None:
                    quiet &= ~pending
            stage_quiet = dyn.row_quiescent(t)
            if stage_quiet is None:
                return None
            all_rows_quiet = bool(stage_quiet.all())
            if not all_rows_quiet:
                quiet &= stage_quiet
            elif exhausted_flags[i] and buffer_empty:
                done_flags[i + 1] = True
            upstream_silent = upstream_silent and buffer_empty and all_rows_quiet
        return quiet

    def _run(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        plan=None,
        timer: BudgetTimer | None = None,
    ) -> SimulationResult:
        """Simulate one window of ``x``: the engine's only step loop.

        ``plan`` (an :class:`~repro.snn.plan.ExecutionPlan`) binds the
        kernels to its workspace arena; without one they run over fresh
        arrays (``repro.snn.plan.stage_plans`` over
        ``repro.utils.arena.FRESH``).  ``timer`` is checked
        between steps and truncates the window once spent.  The schedule
        policy is fixed before the first step (docs/DESIGN.md §10):
        *per-step* — the reference, with quiescence, retirement,
        ``min_confidence`` and monitors — or *window-phased*, taken when
        ``plan.schedule`` is set, no monitor is attached and the budget
        has no ``min_confidence``; its results are bit-identical to the
        per-step policy run with ``early_exit=False``.  Its *layered* case
        — every source drains and no timer binds — makes each drain at
        the step the phased loop would and visits no step.  A bulk drain emits
        spikes scheduled for future steps, so a truncated window cuts them
        back (``cut_drain``): from its source's spike count and, for the
        last stage's drain, held aside until the loop ends, from the
        readout's input.
        """
        if x.shape[1:] != tuple(self.network.input_shape):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network "
                f"{self.network.input_shape}"
            )
        compute_dtype = self.network.dtype
        if x.dtype != compute_dtype:
            x = x.astype(compute_dtype)
        bound = self.bound
        n = len(x)
        # Dense emissions are packed when at or below the density threshold;
        # a threshold of 0 disables packing (packets pass through regardless
        # and are densified in _propagate when the fast path is off).
        pack_threshold = self.density_threshold if self.event_driven else 0.0

        bound.encoder.reset(x)
        for dyn in bound.dynamics:
            dyn.reset(n)
        bound.readout.reset(n)

        spiking_stages = [s for s in self.network.stages if s.spiking]
        stage_names = [s.name for s in spiking_stages]
        counts = {name: 0.0 for name in ["input", *stage_names]}
        # Kernel bindings: the plan's over its arena, the reference's over
        # fresh arrays, both under the density rule.
        if plan is not None:
            stage_plans, readout_plan = plan.stage_plans, plan.readout_plan
        else:
            from repro.snn.plan import stage_plans as bind_kernels

            *stage_plans, readout_plan = bind_kernels(self, FRESH)

        self._notify_batch_start(x, y)

        # Constant analog encoders (rate/burst) emit the identical tensor
        # every step, so the first stage's synaptic drive is computed once.
        constant = bound.encoder.constant
        input_drive_cache: np.ndarray | None = None

        # Per-stage event buffers: drives are delivered only when the
        # receiving dynamics read their membrane potential.  The dense
        # engine, and any dynamics whose needs_drive is always true, flush
        # every step — i.e. the classic per-step propagation.
        *buffers, readout_buffer = [
            _DriveBuffer(p.workspace, ("merge", p.index)) for p in (*stage_plans, readout_plan)
        ]
        # Anytime budget (docs/DESIGN.md §14): a binding timer truncates the
        # window between steps; min_confidence forces per-step readout
        # flushes so margins are live.
        budget_active = timer is not None and timer.binds
        min_conf = timer.min_confidence if timer is not None else None
        # Schedule policy, fixed for the run: window-phased when the plan
        # carries its window schedule and nothing needs the per-step view.
        sched = None
        if plan is not None and not self.monitors and min_conf is None:
            sched = plan.schedule
        phased = sched is not None
        # Layered, a case of window-phased: every source drains and nothing
        # can stop the window early, so each stage integrates one drain and
        # fires once — a quantized forward pass with no step visits.
        layered = (
            phased
            and not budget_active
            and sched.encoder_drains
            and all(sched.stage_drains)
        )
        # The readout potential is only read at the end — unless a monitor
        # observes it per step (e.g. accuracy-vs-time curves) or confidence
        # retirement needs the live margin.  Monitors without the
        # observes_readout attribute are treated conservatively.
        flush_readout_each_step = (
            not self.event_driven
            or min_conf is not None
            or any(
                getattr(monitor, "observes_readout", True)
                for monitor in self.monitors
            )
        )
        last_step = bound.total_steps - 1

        # Quiescence early-exit + sample retirement: off when a monitor needs
        # the full schedule or the readout keeps injecting bias until the
        # scheduled end; self-disables when the scheme cannot report.
        no_full_run_monitor = not any(
            getattr(monitor, "requires_full_run", True)
            for monitor in self.monitors
        )
        exit_enabled = (
            not phased
            and self.early_exit
            and bound.readout.rows_sealable()
            and no_full_run_monitor
        )
        # Confidence retirement rides the same seal/compact machinery but is
        # deliberately lossy: a retired sample's score freezes at its current
        # margin (a pending once_at bias is suppressed by the t+1 seal).
        conf_enabled = (
            min_conf is not None
            and bound.readout.rows_sealable()
            and no_full_run_monitor
        )
        # exhausted_flags[i]: stage i will never receive drive again;
        # done_flags: settled sources (encoder at 0, stage i at i + 1).
        exhausted_flags = [False] * len(bound.dynamics)
        done_flags = [False] * (len(bound.dynamics) + 1)
        active: np.ndarray | None = None  # original row of each live sample
        scores_out: np.ndarray | None = None
        executed = 0
        truncated = False
        steps = enc_steps = bound.total_steps

        if phased:
            steps = sched.horizon
            enc_steps = sched.enc_end
            awake = list(sched.awake)
            silent = (False,) * steps
            upstream_end = sched.upstream_end
            bias_step = sched.bias_step
            last = len(awake) - 1
            # receivers[s] / inboxes[s]: the plan and drive buffer of source
            # s's receiver (s = 0 the encoder, s = i + 1 spiking stage i).
            receivers = [*stage_plans, readout_plan]
            inboxes = [*buffers, readout_buffer]
            # (source, counts key, spikes) of every drain a truncation cuts
            # back; the last stage's drain reaches the readout after the loop.
            drained = []
            held = None

            def drain_stage(i: int, t: int):
                """Drain stage ``i`` after step ``t``: deliver the last of its
                drive, then emit the rest of its fire window at once (the
                potentials are final) towards its receiver."""
                stage = spiking_stages[i]
                drive = self._flush(stage_plans[i], buffers[i])
                target = _drain_target(
                    receivers[i + 1],
                    inboxes[i + 1],
                    (n, *stage.out_shape),
                    compute_dtype,
                    drive,
                )
                packet, count = bound.dynamics[i].drain_fire_events(t, drive, **target)
                counts[stage.name] += float(count)
                if i != last:
                    drained.append((bound.dynamics[i], stage.name, packet))
                    if packet is not None:
                        inboxes[i + 1].add(packet)
                return packet

            if sched.encoder_drains and bound.encoder.can_drain(cut=budget_active):
                packet, count = bound.encoder.drain_events(
                    **_drain_target(receivers[0], buffers[0], x.shape, compute_dtype)
                )
                if bound.counts_input_spikes:
                    counts["input"] += float(count)
                    drained.append((bound.encoder, "input", packet))
                if packet is not None:
                    buffers[0].add(packet)
                enc_steps = 0  # every pixel spike is already in flight
            if layered:
                # Each stage's input ends where its fire window opens: one
                # propagate-and-fire per stage, whose drain also lands the
                # stage's bias, then the readout's bias.
                for i in range(last + 1):
                    held = drain_stage(i, upstream_end[i] - 1)
                if bias_step is not None:
                    bound.readout.accumulate(None, bias_step)
                executed = steps

        for t in range(executed, steps):
            if budget_active and timer.expired(executed):
                truncated = True
                break
            if t < enc_steps:
                spikes = bound.encoder.step(t)
                if constant:
                    # Analog current injection: never packed (it is not a
                    # spike tensor), only short-circuited when all-zero.
                    if spikes is not None and not spikes.any():
                        spikes = None
                else:
                    spikes, count = ev.ingest(spikes, pack_threshold)
                    if bound.counts_input_spikes:
                        counts["input"] += float(count)
            else:
                spikes = None

            step_spikes: list[np.ndarray | SpikePacket | None] = []
            for i, (stage, dyn) in enumerate(zip(spiking_stages, bound.dynamics)):
                if constant and i == 0 and spikes is not None:
                    if input_drive_cache is None:
                        # The cache outlives the arena buffers it was
                        # computed in; detach it.
                        input_drive_cache = self._propagate(stage_plans[0], spikes).copy()
                    drive = input_drive_cache
                else:
                    if spikes is not None:
                        buffers[i].add(spikes)
                    elif phased and not awake[i][t]:
                        continue  # schedule-silent: the stage cannot act at t
                    if not self.event_driven or dyn.needs_drive(t):
                        drive = self._flush(stage_plans[i], buffers[i])
                    else:
                        drive = None
                spikes, count = ev.ingest(dyn.step(drive, t), pack_threshold)
                step_spikes.append(spikes)
                counts[stage.name] += float(count)

            if spikes is not None:
                readout_buffer.add(spikes)
            if not phased:
                if flush_readout_each_step or t == last_step:
                    current = self._flush(readout_plan, readout_buffer)
                else:
                    current = None
                bound.readout.accumulate(current, t)
            elif t == bias_step:
                bound.readout.accumulate(None, t)

            for monitor in self.monitors:
                monitor.on_step(t, step_spikes, bound.readout)
            executed = t + 1

            if phased:
                for i, dyn in enumerate(bound.dynamics):
                    if exhausted_flags[i] or t < upstream_end[i] - 1:
                        continue
                    # No drive can arrive after this step.  A binding budget
                    # drains only tables a truncation can cut back.
                    if sched.stage_drains[i] and dyn.can_drain(cut=budget_active):
                        packet = drain_stage(i, t)
                        if i == last:
                            held = packet
                        exhausted_flags[i] = True
                        awake[i] = silent  # a drained stage never acts again
                    elif buffers[i].empty:
                        # Switch to the closed-form per-step firing schedule.
                        exhausted_flags[i] = True
                        dyn.note_input_exhausted(t)
                continue
            if t == last_step or not (exit_enabled or conf_enabled):
                continue
            batch = len(active) if active is not None else n
            quiet = None
            if exit_enabled:
                quiet = self._quiescence(
                    bound, buffers, t, batch, exhausted_flags, done_flags
                )
                if quiet is None:
                    exit_enabled = False
            if quiet is None:
                if not conf_enabled:
                    continue
                quiet = np.zeros(batch, dtype=bool)
            if conf_enabled:
                # Retire a sample once the accumulated spike evidence alone
                # is decisive.  NOT the sealed-now view: a once_at readout
                # bias floors every sample at the class prior's margin,
                # which would retire everything the moment it lands —
                # evidence must earn the exit.  The sealed score (and the
                # reported margin) still includes the bias.
                margins = confidence_margins(bound.readout.evidence_scores(t))
                retire = quiet | (margins >= min_conf)
            else:
                retire = quiet
            if not retire.any():
                continue
            # Deliver any deferred readout drive before sealing anything.
            bound.readout.absorb(self._flush(readout_plan, readout_buffer))
            if retire.all():
                # Every sample is decided: stop the clock and let the tail
                # seal settle any pending bias uniformly.
                break
            # Retire the decided samples and compact everything per-sample.
            if scores_out is None:
                scores_out = np.zeros(
                    (n,) + tuple(bound.readout.shape),
                    dtype=bound.readout.scores().dtype,
                )
                active = np.arange(n, dtype=np.int64)
            scores_out[active[retire]] = bound.readout.seal_rows(
                retire, t, bound.total_steps
            )
            keep = ~retire
            active = active[keep]
            bound.encoder.compact(keep)
            for dyn in bound.dynamics:
                dyn.compact(keep)
            bound.readout.compact(keep)
            for buffer in buffers:
                buffer.compact(keep)
            readout_buffer.compact(keep)
            if input_drive_cache is not None:
                input_drive_cache = input_drive_cache[keep]

        if phased:
            if truncated:
                for source, name, spikes in drained:
                    counts[name] -= source.cut_drain(spikes, executed)[1]
                if held is not None:
                    held, removed = bound.dynamics[last].cut_drain(held, executed)
                    counts[stage_names[last]] -= removed
                    # A cut dense tensor is re-measured, so the readout takes
                    # the kernel its remaining density selects, as per-step
                    # input would.
                    held, _ = ev.ingest(held, readout_plan.threshold)
            if held is not None:
                readout_buffer.add(held)
        # Deliver any deferred readout drive (a truncated window's; the
        # phased policy's only flush), then seal.
        bound.readout.absorb(self._flush(readout_plan, readout_buffer))
        last_t = executed - 1
        # Budget truncation keeps the full-schedule seal: a still-pending
        # once_at bias IS applied, so the partial answer is exactly the
        # score the full run would produce if no further spike arrived (at
        # zero evidence: the class prior the readout bias encodes).
        if scores_out is None:
            scores = bound.readout.seal_rows(
                np.ones(n, dtype=bool), last_t, bound.total_steps
            )
        else:
            scores_out[active] = bound.readout.seal_rows(
                np.ones(len(active), dtype=bool), last_t, bound.total_steps
            )
            scores = scores_out
        predictions = scores.argmax(axis=1)
        per_inference = {name: c / n for name, c in counts.items()}
        result = SimulationResult(
            scores=scores,
            predictions=predictions,
            accuracy=float((predictions == y).mean()) if y is not None else None,
            spike_counts=per_inference,
            total_spikes=float(sum(per_inference.values())),
            steps=executed,
            decision_time=bound.decision_time,
        )
        if timer is not None:
            return AnytimeResult.from_result(result, truncated)
        return result

    def run_batched(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        batch_size: int = 64,
        budget: Budget | None = None,
    ) -> SimulationResult:
        """Run :meth:`run` over mini-batches and merge the results.

        Keeps peak memory bounded for large test sets; monitors receive
        exactly one ``on_run_start`` for the whole run, an ``on_batch_start``
        per mini-batch, and one ``on_run_end`` carrying the *merged* result.

        A ``budget`` starts *one* timer for the whole call: the wall-clock
        axis spans every mini-batch (end-to-end latency) while ``max_steps``
        bounds each window (per-sample compute).  Mini-batches after
        wall-clock expiry execute zero steps — their all-zero scores are the
        honest "no evidence yet" anytime answer.
        """
        return self._session(x, y, budget, _check_batch_size(batch_size))

    def run_parallel(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        workers: int | str = 2,
        batch_size: int = 64,
        start_method: str | None = None,
        compiled: bool = False,
    ) -> SimulationResult:
        """Shard mini-batches across worker processes and merge the results.

        See :func:`repro.snn.parallel.run_parallel`; with ``workers=1`` this
        degrades gracefully to the serial :meth:`run_batched`, and
        ``workers="auto"`` resolves to ``min(os.cpu_count(), shards)`` —
        staying serial on single-core hosts, where a pool only adds
        overhead.  ``compiled=True`` makes each worker compile (and cache)
        its own execution plan — arenas are process-local, so compiled
        parallel runs mean per-worker compilation.
        """
        return run_parallel(
            self,
            x,
            y,
            workers=workers,
            batch_size=batch_size,
            start_method=start_method,
            compiled=compiled,
        )

    # ------------------------------------------------------------------ #
    # compiled execution plans (docs/DESIGN.md §10)
    # ------------------------------------------------------------------ #

    def compile(self, batch_size: int = 64, steps: int | None = None):
        """Compile this simulator into an :class:`~repro.snn.plan.ExecutionPlan`.

        Walks the stages once and binds, per stage, the propagation
        operators (event-scatter vs single-GEMM dense, chosen per packet by
        the simulator's ``density_threshold``, exactly as the uncompiled
        engine chooses) to a :class:`~repro.snn.plan.Workspace` arena of
        preallocated drive/merge/im2col/GEMM buffers, so steady-state
        inference reuses storage across steps, batches and runs.  The
        plan's results are bit-identical to the uncompiled engine run with
        ``early_exit=False``.  Plans are cached per ``(batch_size, steps)``.

        Parameters
        ----------
        batch_size:
            Mini-batch size the plan's buffers are sized for (smaller
            batches reuse the same arenas as leading views).
        steps:
            Optional time-budget override; ``None`` keeps the simulator's.
        """
        from repro.snn.plan import compile_plan

        batch_size = _check_batch_size(batch_size)
        key = (batch_size, steps)
        plan = self._plans.get(key)
        if plan is None:
            plan = compile_plan(self, batch_size=batch_size, steps=steps)
            self._plans[key] = plan
        return plan

    def run_compiled(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        batch_size: int = 64,
        budget: Budget | None = None,
    ) -> SimulationResult:
        """Run through a cached compiled plan (:meth:`compile` on first use)."""
        plan = self.compile(batch_size=batch_size)
        return plan.run_batched(x, y, budget=budget)
