"""Compiled execution plans and workspace arenas (docs/DESIGN.md §10).

``Simulator.compile(batch, steps)`` walks a bound network once and fixes
everything the per-step loop otherwise re-decides:

* **Per-stage operator choice.**  Each stage gets its own density threshold
  for the event-scatter vs single-GEMM decision, *calibrated* by timing both
  kernels at the spike densities the stage actually sees on a probe batch —
  replacing the engine's single global ``density_threshold``, which picks
  the wrong kernel for some stages (a prebuilt full synapse-CSR operator
  was measured as well and lost to both kernels at every probed density, so
  the calibrated operator set is {event-scatter, arena-GEMM}).
* **Workspace arena.**  Drive/merge tensors, one-sample im2col blocks,
  GEMM and pool outputs and (via :mod:`repro.snn.neurons`) membrane/readout
  state are preallocated once per (batch, dtype) signature and reused
  across steps, batches and runs; smaller batches (including retirement
  compaction) use leading views of the same storage, so steady-state
  inference performs no per-step heap allocations.
* **Phased executor.**  Window-scheduled schemes (TTFS, reverse) declare
  their firing windows (``NeuronDynamics.phase_window`` /
  ``InputEncoder.emission_window``), which lets the compiled loop touch only
  the stages that can possibly act at each step, call
  ``note_input_exhausted`` at the schedule-derived step (enabling scheduled
  TTFS firing without the per-step quiescence chain), and stop at the end of
  the last fire window — trimming over-provisioned budgets without running
  the quiescence machinery at all.

Parity contract: an *uncalibrated* plan (``calibrate=False``) makes exactly
the reference engine's kernel decisions and is **bit-identical** — same
predictions, per-stage spike counts and scores — to the uncompiled engine
run with ``early_exit=False`` (the reference configuration) on every coding
scheme.  Calibration may re-associate floating-point sums (a different
kernel computes the same drive), so a calibrated plan pins predictions and
spike counts exactly and scores to reassociation error.  The uncompiled
path remains the reference implementation; ``tests/snn/test_plan.py`` pins
both contracts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.snn import events as ev
from repro.snn.budget import Budget, BudgetTimer
from repro.snn.engine import Simulator, _DriveBuffer, _start_timer
from repro.snn.results import AnytimeResult, SimulationResult, confidence_margins

__all__ = ["Workspace", "StagePlan", "ExecutionPlan", "compile_plan"]


class Workspace:
    """A keyed arena of persistent numpy buffers.

    ``buffer(key, shape, dtype)`` returns a C-contiguous view of exactly
    ``shape`` backed by a flat capacity array that survives across calls:
    repeated requests (steps, batches, runs) reuse the same storage, and a
    request needing at most the existing capacity allocates nothing.
    ``allocations`` counts backing allocations — a steady-state workload
    holds it constant, which the zero-allocation test asserts.

    Ownership rules (docs/DESIGN.md §10): views returned here are valid
    until the next request for the *same key*; callers that need a result
    to outlive the arena (caches, returned scores) must copy.
    """

    def __init__(self):
        self._buffers: dict = {}
        self._trailing: dict = {}
        self.allocations = 0

    def buffer(self, key, shape, dtype, zeroed: bool = False) -> np.ndarray:
        """A persistent buffer of ``shape``/``dtype`` under ``key``.

        ``zeroed`` guarantees untouched cells read zero on first use and
        whenever the trailing (per-sample) layout changes; a pure
        leading-dimension change keeps previously zeroed cells at the same
        flat offsets, so no re-zeroing is needed (the padded-border case).
        """
        shape = tuple(int(s) for s in shape)
        size = int(np.prod(shape))
        dtype = np.dtype(dtype)
        base = self._buffers.get(key)
        if base is None or base.dtype != dtype or base.size < size:
            base = np.zeros(size, dtype) if zeroed else np.empty(size, dtype)
            self._buffers[key] = base
            self._trailing[key] = shape[1:]
            self.allocations += 1
        elif zeroed and self._trailing.get(key) != shape[1:]:
            base[...] = 0
            self._trailing[key] = shape[1:]
        return base[:size].reshape(shape)

    def nbytes(self, key=None) -> int:
        """Bytes held by the arena, or under ``key`` alone (0 if unused)."""
        if key is not None:
            base = self._buffers.get(key)
            return 0 if base is None else base.nbytes
        return sum(b.nbytes for b in self._buffers.values())


@dataclass
class StagePlan:
    """One stage's compiled kernel choice and arena bindings.

    ``threshold`` is the stage's calibrated density threshold: an incoming
    packet at or below it propagates through the event-scatter kernel,
    above it through the workspace-arena dense GEMM (``1.0`` pins the event
    path, ``0.0`` the GEMM).  ``calibration`` records the probe densities
    and kernel timings the choice was derived from (``None`` when
    uncalibrated — the threshold is then the engine's global default and
    decisions match the reference engine exactly).
    """

    index: int
    name: str
    stage: object
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    threshold: float
    workspace: Workspace
    calibration: dict | None = None

    def apply_dense(self, x: np.ndarray) -> np.ndarray:
        """The stage's dense linear ops through the workspace arena.

        Bit-identical to ``ConvertedStage.apply`` (each op's ``infer_ws``
        runs the same kernel as its ``infer``) with every intermediate
        landing in persistent buffers; the returned drive may be a view
        into the arena, valid until this stage's next flush.
        """
        out = x
        for j, op in enumerate(self.stage.ops):
            out = op.infer_ws(out, self.workspace, (self.index, j))
        return out

    def merge_out(self, shape, dtype) -> np.ndarray:
        """Arena buffer a deferral window's packets are merged into."""
        return self.workspace.buffer(("merge", self.index), shape, dtype)


def _random_packet(rng, batch: int, shape: tuple[int, ...], density: float, dtype):
    """A synthetic spike packet at a target density (calibration input)."""
    features = int(np.prod(shape))
    total = batch * features
    count = max(1, min(total, int(round(density * total))))
    pos = rng.choice(total, size=count, replace=False)
    pos.sort()
    rows, idx = np.divmod(pos, features)
    return ev.SpikePacket(
        rows=rows,
        idx=idx,
        weights=rng.random(count).astype(dtype, copy=False),
        batch=batch,
        shape=tuple(shape),
    )


def _best_times(fns, repeats: int = 2, clock=time.perf_counter) -> tuple[list[float], float]:
    """Best-of-``repeats`` wall time of each kernel, timed alternately, and
    the repeat-to-repeat spread: the kernels' max-min gaps, summed — the
    noise a difference of two best times can carry.

    Interleaving exposes the kernels to the same scheduler noise, so a slow
    spell on a shared machine cannot flip the comparison by landing on one
    kernel's timings only.
    """
    for fn in fns:
        fn()  # warm caches (reverse im2col maps, BLAS threads, arena buffers)
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = clock()
            fn()
            times[i].append(clock() - t0)
    return [min(t) for t in times], sum(max(t) - min(t) for t in times)


def _threshold_from_timings(timings, default: float) -> float:
    """The density threshold a stage's probe timings call for.

    ``timings`` holds ``(density, event_s, gemm_s, spread_s)`` per probe.
    The event kernel wins a probe only by more than the spread its timings
    showed from repeat to repeat; a closer call is noise, and the GEMM —
    whose cost does not depend on the spikes — keeps the probe, so near-tie
    stages calibrate the same way on every compile.  The threshold lands
    at the crossover between the densities the event kernel wins (below)
    and the ones it loses (above); wins above a loss (a non-monotone
    pattern) fall back to ``default``.
    """
    wins = [d for d, te, tg, spread in timings if tg - te > spread]
    losses = [d for d, te, tg, spread in timings if tg - te <= spread]
    if not losses:
        return 1.0
    if not wins:
        return 0.0
    if max(wins) < min(losses):
        return 0.5 * (max(wins) + min(losses))
    return default


def _calibrate_stage(pstage: StagePlan, batch: int, dtype, densities, default: float):
    """Pick a stage's density threshold by timing both kernels.

    Probes the event-scatter and arena-GEMM kernels at each observed flush
    density and places the threshold at the measured crossover
    (:func:`_threshold_from_timings`).
    """
    rng = np.random.default_rng(0xC0FFEE + pstage.index)
    points = sorted({min(max(float(d), 1e-4), 1.0) for d in densities})
    if not points:
        pstage.calibration = {"densities": [], "threshold": default}
        return
    timings = []
    for d in points:
        packet = _random_packet(rng, batch, pstage.in_shape, d, dtype)
        dense = packet.to_dense()
        (t_event, t_gemm), spread = _best_times(
            [
                lambda: ev.apply_stage_events(
                    pstage.stage, packet, pstage.workspace, pstage.index
                ),
                lambda: pstage.apply_dense(dense),
            ]
        )
        timings.append((d, t_event, t_gemm, spread))
    threshold = float(_threshold_from_timings(timings, default))
    pstage.threshold = threshold
    pstage.calibration = {
        "densities": points,
        "timings": [
            {"density": d, "event_s": te, "gemm_s": tg, "spread_s": sp}
            for d, te, tg, sp in timings
        ],
        "threshold": threshold,
    }


def _observe_flush_densities(sim: Simulator, probe: np.ndarray) -> dict:
    """Per-stage spike densities of every drive flush on a probe run."""
    record: dict[str, list[float]] = {}

    def observer(stage, spikes):
        if isinstance(spikes, ev.SpikePacket):
            density = spikes.density
        else:
            density = float(np.count_nonzero(spikes)) / max(spikes.size, 1)
        record.setdefault(stage.name, []).append(density)

    # A private simulator keeps monitor state and bound dynamics untouched.
    probe_sim = Simulator(
        sim.network,
        sim.scheme,
        steps=sim._steps_arg,
        event_driven=sim.event_driven,
        density_threshold=sim.density_threshold,
        early_exit=sim.early_exit,
    )
    probe_sim._flush_observer = observer
    probe_sim._run(probe, None)
    return record


@dataclass
class ExecutionPlan:
    """A compiled run: per-stage kernels + workspace arena + phased timeline.

    Produced by :meth:`repro.snn.engine.Simulator.compile`; run with
    :meth:`run` / :meth:`run_batched`.  Results are loss-free with respect
    to the simulator's uncompiled path (see the module docstring for the
    exact bit-parity contract).
    """

    simulator: Simulator
    bound: object
    stage_plans: list = field(default_factory=list)
    readout_plan: StagePlan | None = None
    workspace: Workspace | None = None
    batch_size: int = 64
    calibrated: bool = False
    phased: bool = False

    @property
    def network(self):
        return self.simulator.network

    def describe(self) -> str:
        """Human-readable per-stage operator table."""
        lines = [
            f"ExecutionPlan(batch={self.batch_size}, "
            f"phased={self.phased}, calibrated={self.calibrated})"
        ]
        for p in [*self.stage_plans, self.readout_plan]:
            seen = p.calibration["densities"] if p.calibration else []
            op = "event" if p.threshold >= 1.0 else (
                "gemm" if p.threshold <= 0.0 else f"auto<= {p.threshold:.4f}"
            )
            lines.append(
                f"  {p.name}: operator={op} in={p.in_shape} "
                f"probed_densities={[round(d, 4) for d in seen]}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        budget: Budget | None = None,
    ) -> SimulationResult:
        """Simulate one batch through the compiled plan.

        Batch-size contract (the serving layer leans on this): any batch
        up to ``batch_size`` runs as leading views of the compiled arenas
        — results at every size ``1..batch_size`` are identical to the
        uncompiled engine's (``tests/snn/test_plan.py`` pins it).  A batch
        *larger* than the compiled capacity is rejected: silently growing
        the arenas would void the zero-allocation steady state and hide a
        mis-sized plan; use :meth:`run_batched` (which splits) or compile
        a larger plan instead.

        ``budget`` bounds the run like ``Simulator.run(..., budget=...)``
        (docs/DESIGN.md §14); a budgeted plan run returns an
        :class:`~repro.snn.results.AnytimeResult`.
        """
        if len(x) > self.batch_size:
            raise ValueError(
                f"batch of {len(x)} exceeds this plan's compiled capacity "
                f"{self.batch_size}; use run_batched (which splits into "
                f"capacity-sized chunks) or compile a larger plan"
            )
        sim = self.simulator
        for monitor in sim.monitors:
            monitor.on_run_start(sim, x, y)
        result = self._run(x, y, timer=_start_timer(budget, None))
        for monitor in sim.monitors:
            monitor.on_run_end(result)
        return result

    def run_batched(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        batch_size: int | None = None,
        budget: Budget | None = None,
    ) -> SimulationResult:
        """Run mini-batches through the plan, reusing the arenas throughout.

        As in ``Simulator.run_batched``, a ``budget`` starts one shared
        timer: wall-clock spans all mini-batches, ``max_steps`` applies to
        each window.
        """
        from repro.snn.parallel import merge_results

        sim = self.simulator
        if batch_size is None:
            batch_size = self.batch_size
        elif isinstance(batch_size, bool) or batch_size < 1:
            # No silent `or`-fallback: a zero/negative size is a caller bug.
            raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r}")
        if batch_size > self.batch_size:
            raise ValueError(
                f"mini-batch size {batch_size} exceeds this plan's compiled "
                f"capacity {self.batch_size}; compile a larger plan"
            )
        if len(x) <= batch_size:
            return self.run(x, y, budget=budget)
        for monitor in sim.monitors:
            monitor.on_run_start(sim, x, y)
        timer = _start_timer(budget, None)
        shards, sizes = [], []
        for start in range(0, len(x), batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size] if y is not None else None
            shards.append(self._run(xb, yb, timer=timer))
            sizes.append(len(xb))
        result = merge_results(shards, sizes, y, self.bound.decision_time)
        if timer is not None:
            result = AnytimeResult.from_result(
                result,
                any(getattr(s, "budget_exhausted", False) for s in shards),
            )
        for monitor in sim.monitors:
            monitor.on_run_end(result)
        return result

    def _run(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        timer: BudgetTimer | None = None,
    ) -> SimulationResult:
        # min_confidence needs the per-sample retirement machinery — route
        # those runs through the engine loop, which shares this plan's
        # kernels and arenas via plan=self.
        if (
            self.phased
            and not self.simulator.monitors
            and (timer is None or timer.min_confidence is None)
        ):
            return self._run_phased(x, y, timer)
        return self.simulator._run(x, y, plan=self, timer=timer)

    def _drain_target(
        self,
        receiver: StagePlan,
        inbox: _DriveBuffer,
        shape: tuple[int, ...],
        dtype,
        consumed: np.ndarray | None = None,
    ) -> dict:
        """Keyword arguments of a bulk drain towards ``receiver``.

        The drain goes dense exactly when ``receiver.threshold`` would send
        its packet through the GEMM (the kernel decision ``_propagate``
        makes), writing into ``consumed`` — the draining stage's drive,
        integrated and dead until that stage's next flush — or, without
        one, into the receiver's own arena buffer, which lives until the
        receiver flushes it.  A receiver with input already pending keeps
        packets: its buffer merges them itself.
        """
        if not inbox.empty:
            return {}
        if consumed is None:
            consumed = self.workspace.buffer(("drain", receiver.index), shape, dtype)
        return {"out": consumed, "threshold": receiver.threshold, "workspace": self.workspace}

    def _run_phased(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        timer: BudgetTimer | None = None,
    ) -> SimulationResult:
        """The window-scheduled fast loop (TTFS / reverse coding).

        Touches only the stages whose schedule lets them act at each step
        and derives input exhaustion from the windows instead of the
        per-step quiescence chain; emissions, flush cadence and merge order
        are exactly the reference engine's, so results are bit-identical to
        the uncompiled ``early_exit=False`` run (and loss-free versus the
        early-exit runtime).

        A ``timer`` is checked between steps exactly like the engine loop,
        and the bulk drains run the same with or without one.  A drain
        emits spikes scheduled for future steps, so a run that truncates at
        step ``t`` cuts them back (``cut_drain``): each drain's events at
        step ``t`` or later leave its source's spike count, and the last
        stage's drain, held aside until the loop ends, also leaves the
        readout's input.  No other receiver needs the cut: it does not read
        its membrane before the source's window ends, which a truncated
        window never reached.  The spike step is read off the spike's
        kernel weight, so under a binding timer only strictly decreasing
        tables drain; any other keeps per-step firing.
        """
        sim = self.simulator
        bound = self.bound
        network = sim.network
        if x.shape[1:] != tuple(network.input_shape):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match network "
                f"{network.input_shape}"
            )
        if y is not None and len(y) != len(x):
            raise ValueError(f"labels length {len(y)} != batch {len(x)}")
        compute_dtype = network.dtype
        if x.dtype != compute_dtype:
            x = x.astype(compute_dtype)
        n = len(x)
        pack_threshold = sim.density_threshold if sim.event_driven else 0.0

        bound.encoder.reset(x)
        for dyn in bound.dynamics:
            dyn.reset(n)
        bound.readout.reset(n)

        spiking_stages = [s for s in network.stages if s.spiking]
        readout_stage = network.stages[-1]
        counts = {name: 0.0 for name in ["input", *(s.name for s in spiking_stages)]}

        windows = [dyn.phase_window() for dyn in bound.dynamics]
        num_stages = len(windows)
        enc_end = bound.encoder.emission_window()
        # Step after which stage i's drive source is structurally silent.
        upstream_end = [enc_end] + [w.fire_end for w in windows[:-1]]
        noted = [False] * num_stages
        done = [False] * num_stages
        readout = bound.readout
        bias_step = readout.bias_time if readout.bias_policy == "once_at" else None

        horizon = min(bound.total_steps, max(enc_end, windows[-1].fire_end))
        buffers = [_DriveBuffer() for _ in spiking_stages]
        readout_buffer = _DriveBuffer()
        # receivers[s] / inboxes[s]: the plan and drive buffer of source s's
        # receiver (s = 0 the encoder, s = i + 1 spiking stage i).
        receivers = [*self.stage_plans, self.readout_plan]
        inboxes = [*buffers, readout_buffer]

        # Bulk drains (fire-once schemes): a source whose receiver does not
        # read its membrane before the source's window ends can emit its
        # whole remaining schedule as ONE packet — event positions are
        # unique (at most one spike per neuron), so the receiver's merged
        # drive is bit-identical to per-step delivery.  Always true on the
        # baseline schedule and for the last stage; under early firing the
        # overlap windows keep per-step (bucketed) delivery.  A binding
        # budget also needs tables a truncated run can cut drains back on.
        budget_active = timer is not None and timer.binds
        drain_ok = [
            (i + 1 == num_stages or windows[i + 1].fire_start >= windows[i].fire_end)
            and getattr(dyn, "can_drain", None) is not None
            and dyn.can_drain(cut=budget_active)
            for i, dyn in enumerate(bound.dynamics)
        ]
        # (source, counts key, spikes) of every drain a truncation cuts
        # back; the last stage's drain reaches the readout after the loop.
        drained = []
        held = None
        encoder = bound.encoder
        enc_steps = enc_end
        if (
            windows[0].fire_start >= enc_end
            and getattr(encoder, "can_drain", None) is not None
            and encoder.can_drain(cut=budget_active)
        ):
            packet, count = encoder.drain_events(
                **self._drain_target(receivers[0], inboxes[0], x.shape, compute_dtype)
            )
            if bound.counts_input_spikes:
                counts["input"] += float(count)
                drained.append((encoder, "input", packet))
            if packet is not None:
                buffers[0].add(packet)
            enc_steps = 0  # every pixel spike is already in flight

        last = num_stages - 1
        executed = horizon
        truncated = False
        for t in range(horizon):
            if budget_active and timer.expired(t):
                executed = t
                truncated = True
                break
            if t < enc_steps:
                spikes, count = ev.ingest(encoder.step(t), pack_threshold)
                if bound.counts_input_spikes:
                    counts["input"] += float(count)
            else:
                spikes = None
            for i, (stage, dyn, win) in enumerate(
                zip(spiking_stages, bound.dynamics, windows)
            ):
                arrived = spikes is not None
                if arrived:
                    buffers[i].add(spikes)
                if done[i] or not (
                    arrived or win.in_fire_phase(t) or t == win.integration_start
                ):
                    spikes = None
                    continue  # schedule-silent: the stage cannot act at t
                if (
                    t == win.fire_start
                    and not noted[i]
                    and t >= upstream_end[i] - 1
                    and drain_ok[i]
                ):
                    # Full drain: the last possible drive is flushed here,
                    # so the potentials are final before the first fire
                    # step — the whole fire window leaves as one packet.
                    drive = sim._flush(stage, buffers[i], self.stage_plans[i])
                    spikes, count = dyn.drain_fire_events(
                        t - 1,
                        drive,
                        **self._drain_target(
                            receivers[i + 1],
                            inboxes[i + 1],
                            (n, *stage.out_shape),
                            compute_dtype,
                            drive,
                        ),
                    )
                    counts[stage.name] += float(count)
                    if i == last:
                        held, spikes = spikes, None
                    else:
                        drained.append((dyn, stage.name, spikes))
                    noted[i] = True
                    done[i] = True
                    continue
                if dyn.needs_drive(t):
                    drive = sim._flush(stage, buffers[i], self.stage_plans[i])
                else:
                    drive = None
                spikes, count = ev.ingest(dyn.step(drive, t), pack_threshold)
                counts[stage.name] += float(count)
            if spikes is not None:
                readout_buffer.add(spikes)
            if t == bias_step:
                readout.accumulate(None, t)
            for i, win in enumerate(windows):
                if noted[i] or t < upstream_end[i] - 1 or not buffers[i].empty:
                    continue
                # No drive can arrive after this step: drain the remaining
                # schedule in bulk where the receiver allows it, otherwise
                # switch to the closed-form per-step firing schedule.
                dyn = bound.dynamics[i]
                noted[i] = True
                if drain_ok[i]:
                    name = spiking_stages[i].name
                    packet, count = dyn.drain_fire_events(
                        t,
                        **self._drain_target(
                            receivers[i + 1],
                            inboxes[i + 1],
                            (n, *spiking_stages[i].out_shape),
                            compute_dtype,
                        ),
                    )
                    counts[name] += float(count)
                    if i == last:
                        held = packet
                    else:
                        drained.append((dyn, name, packet))
                        if packet is not None:
                            inboxes[i + 1].add(packet)
                    done[i] = True
                else:
                    dyn.note_input_exhausted(t)

        if truncated:
            for source, name, spikes in drained:
                counts[name] -= source.cut_drain(spikes, executed)[1]
            if held is not None:
                held, removed = bound.dynamics[last].cut_drain(held, executed)
                counts[spiking_stages[last].name] -= removed
                # A cut dense tensor is re-measured, so the readout takes the
                # kernel its remaining density selects, as per-step input would.
                held, _ = ev.ingest(held, self.readout_plan.threshold)
        if held is not None:
            readout_buffer.add(held)
        readout.absorb(sim._flush(readout_stage, readout_buffer, self.readout_plan))
        # Truncated runs keep the full-schedule seal: a pending once_at bias
        # IS applied, matching the engine's anytime seal (the partial answer
        # is the score the full run would give if no further spike arrived).
        scores = readout.seal_rows(
            np.ones(n, dtype=bool), executed - 1, bound.total_steps
        )
        predictions = scores.argmax(axis=1)
        accuracy = float((predictions == y).mean()) if y is not None else None
        per_inference = {name: c / n for name, c in counts.items()}
        if timer is not None:
            return AnytimeResult(
                scores=scores,
                predictions=predictions,
                accuracy=accuracy,
                spike_counts=per_inference,
                total_spikes=float(sum(per_inference.values())),
                steps=executed,
                decision_time=bound.decision_time,
                margins=confidence_margins(scores),
                budget_exhausted=truncated,
            )
        return SimulationResult(
            scores=scores,
            predictions=predictions,
            accuracy=accuracy,
            spike_counts=per_inference,
            total_spikes=float(sum(per_inference.values())),
            steps=executed,
            decision_time=bound.decision_time,
        )


def compile_plan(
    sim: Simulator,
    batch_size: int = 64,
    steps: int | None = None,
    probe: np.ndarray | None = None,
    calibrate: bool = True,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for ``sim`` (see ``Simulator.compile``)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if steps is not None and steps != sim._steps_arg:
        runner = Simulator(
            sim.network,
            sim.scheme,
            steps=steps,
            monitors=sim.monitors,
            event_driven=sim.event_driven,
            density_threshold=sim.density_threshold,
            early_exit=sim.early_exit,
        )
    else:
        runner = sim
    network = runner.network
    bound = runner.bound
    workspace = Workspace()
    dtype = network.dtype

    spiking = [s for s in network.stages if s.spiking]
    in_shapes = [tuple(network.input_shape)] + [tuple(s.out_shape) for s in spiking]
    stage_plans = [
        StagePlan(
            index=i,
            name=stage.name,
            stage=stage,
            in_shape=in_shapes[i],
            out_shape=tuple(stage.out_shape),
            threshold=runner.density_threshold,
            workspace=workspace,
        )
        for i, stage in enumerate(spiking)
    ]
    readout_plan = StagePlan(
        index=len(spiking),
        name=network.stages[-1].name,
        stage=network.stages[-1],
        in_shape=in_shapes[-1],
        out_shape=tuple(network.stages[-1].out_shape),
        threshold=runner.density_threshold,
        workspace=workspace,
    )

    if calibrate:
        if probe is None:
            rng = np.random.default_rng(0)
            probe = rng.random(
                (min(batch_size, 4),) + tuple(network.input_shape)
            ).astype(dtype)
        observed = _observe_flush_densities(runner, probe)
        cal_batch = min(batch_size, 4)
        for pstage in [*stage_plans, readout_plan]:
            _calibrate_stage(
                pstage,
                cal_batch,
                dtype,
                observed.get(pstage.name, []),
                runner.density_threshold,
            )

    phased = (
        runner.event_driven
        and bound.encoder.emission_window() is not None
        and all(dyn.phase_window() is not None for dyn in bound.dynamics)
        and bound.readout.rows_sealable()
    )
    return ExecutionPlan(
        simulator=runner,
        bound=bound,
        stage_plans=stage_plans,
        readout_plan=readout_plan,
        workspace=workspace,
        batch_size=int(batch_size),
        calibrated=bool(calibrate),
        phased=phased,
    )
