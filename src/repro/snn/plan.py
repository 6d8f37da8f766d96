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
* **Window schedule.**  Window-scheduled schemes (TTFS, reverse) declare
  their firing windows (``NeuronDynamics.phase_window`` /
  ``InputEncoder.emission_window``).  The plan stores them once, with what
  follows from them (:class:`WindowSchedule`), and the engine's one step
  loop (``Simulator._run``) runs such a plan under its *window-phased*
  policy: it touches only the stages that can act at each step, calls
  ``note_input_exhausted`` at the schedule-derived step (enabling scheduled
  TTFS firing without the per-step quiescence chain), drains fire-once
  sources in bulk, and stops at the end of the last fire window — trimming
  over-provisioned budgets without running the quiescence machinery.

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
from repro.snn.engine import Simulator, _check_batch_size
from repro.snn.results import SimulationResult
from repro.snn.schedule import StageWindow

__all__ = ["Workspace", "StagePlan", "WindowSchedule", "ExecutionPlan", "compile_plan"]


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
    probe_sim = sim._replica()
    probe_sim._flush_observer = observer
    probe_sim._run(probe, None)
    return record


@dataclass(frozen=True)
class WindowSchedule:
    """Run-constant data of the window-phased schedule policy.

    Built once per plan; the engine's step loop (``Simulator._run``) reads
    it on every window.  ``upstream_end[i]`` is the step after which stage
    ``i``'s drive source is structurally silent; ``horizon`` is where the
    loop stops (the end of the last fire window); ``awake[i][t]`` says
    whether stage ``i`` can act at step ``t`` with no input arriving (its
    integration start and fire phase); ``bias_step`` is the readout's
    one-shot bias step.  ``encoder_drains`` / ``stage_drains[i]`` are the
    structural half of the bulk-drain test: the source can drain, and its
    receiver does not read its membrane before the source's window ends.
    Whether the kernel table allows a drain under a binding budget is
    checked per run.
    """

    windows: tuple[StageWindow, ...]
    enc_end: int
    upstream_end: tuple[int, ...]
    horizon: int
    awake: tuple[tuple[bool, ...], ...]
    bias_step: int | None
    encoder_drains: bool
    stage_drains: tuple[bool, ...]


def _window_schedule(runner: Simulator) -> WindowSchedule | None:
    """The plan's window schedule, or ``None`` when the scheme has none."""
    bound = runner.bound
    enc_end = bound.encoder.emission_window()
    windows = [dyn.phase_window() for dyn in bound.dynamics]
    if (
        not runner.event_driven
        or enc_end is None
        or any(w is None for w in windows)
        or not bound.readout.rows_sealable()
    ):
        return None
    horizon = min(bound.total_steps, max(enc_end, windows[-1].fire_end))
    return WindowSchedule(
        windows=tuple(windows),
        enc_end=enc_end,
        upstream_end=(enc_end, *(w.fire_end for w in windows[:-1])),
        horizon=horizon,
        awake=tuple(
            tuple(
                w.in_fire_phase(step) or step == w.integration_start
                for step in range(horizon)
            )
            for w in windows
        ),
        bias_step=bound.readout.bias_time if bound.readout.bias_policy == "once_at" else None,
        encoder_drains=windows[0].fire_start >= enc_end and hasattr(bound.encoder, "can_drain"),
        stage_drains=tuple(
            (i + 1 == len(windows) or windows[i + 1].fire_start >= w.fire_end)
            and hasattr(dyn, "can_drain")
            for i, (w, dyn) in enumerate(zip(windows, bound.dynamics))
        ),
    )


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
    schedule: WindowSchedule | None = None

    @property
    def network(self):
        return self.simulator.network

    @property
    def phased(self) -> bool:
        """Whether monitor-free runs take the window-phased policy."""
        return self.schedule is not None

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
        return self.simulator._session(x, y, budget, plan=self)

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
        batch_size = _check_batch_size(
            self.batch_size if batch_size is None else batch_size
        )
        if batch_size > self.batch_size:
            raise ValueError(
                f"mini-batch size {batch_size} exceeds this plan's compiled "
                f"capacity {self.batch_size}; compile a larger plan"
            )
        if len(x) <= batch_size:
            # One window is one run() call, so wrappers of run() (tracers,
            # profilers) see every batch.
            return self.run(x, y, budget=budget)
        return self.simulator._session(x, y, budget, batch_size, plan=self)

    def _run(
        self,
        x: np.ndarray,
        y: np.ndarray | None,
        timer: BudgetTimer | None = None,
    ) -> SimulationResult:
        return self.simulator._run(x, y, self, timer)


def compile_plan(
    sim: Simulator,
    batch_size: int = 64,
    steps: int | None = None,
    probe: np.ndarray | None = None,
    calibrate: bool = True,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for ``sim`` (see ``Simulator.compile``)."""
    batch_size = _check_batch_size(batch_size)
    runner = sim
    if steps is not None and steps != sim._steps_arg:
        runner = sim._replica(steps=steps, monitors=sim.monitors)
    network = runner.network
    bound = runner.bound
    workspace = Workspace()
    dtype = network.dtype

    # The spiking stages, then the readout: each stage's input is the
    # previous one's output.
    stages = [*(s for s in network.stages if s.spiking), network.stages[-1]]
    in_shapes = [tuple(network.input_shape)] + [tuple(s.out_shape) for s in stages]
    plans = [
        StagePlan(
            index=i,
            name=stage.name,
            stage=stage,
            in_shape=in_shapes[i],
            out_shape=tuple(stage.out_shape),
            threshold=runner.density_threshold,
            workspace=workspace,
        )
        for i, stage in enumerate(stages)
    ]
    stage_plans, readout_plan = plans[:-1], plans[-1]

    if calibrate:
        cal_batch = min(batch_size, 4)
        if probe is None:
            rng = np.random.default_rng(0)
            probe = rng.random((cal_batch,) + tuple(network.input_shape)).astype(dtype)
        observed = _observe_flush_densities(runner, probe)
        for pstage in plans:
            _calibrate_stage(
                pstage,
                cal_batch,
                dtype,
                observed.get(pstage.name, []),
                runner.density_threshold,
            )

    return ExecutionPlan(
        simulator=runner,
        bound=bound,
        stage_plans=stage_plans,
        readout_plan=readout_plan,
        workspace=workspace,
        batch_size=batch_size,
        calibrated=bool(calibrate),
        schedule=_window_schedule(runner),
    )
