"""Compiled execution plans and workspace arenas (docs/DESIGN.md §10).

``Simulator.compile(batch, steps)`` walks a bound network once and fixes
everything the per-step loop otherwise re-decides:

* **Per-stage operator binding.**  Each stage's event-scatter vs
  single-GEMM decision uses the engine's own density rule: a packet at or
  below the simulator's ``density_threshold`` takes the event kernel,
  anything denser the arena GEMM.  Under TTFS coding every neuron fires at
  most once per window, so the density a stage's drain delivers is set by
  the coding rather than by the machine, and one rule serves every stage.
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

Parity contract: a plan makes exactly the reference engine's kernel
decisions and is **bit-identical** — same predictions, per-stage spike
counts and scores — to the uncompiled engine run with ``early_exit=False``
(the reference configuration) on every coding scheme.  The uncompiled path
remains the reference implementation; ``tests/snn/test_plan.py`` pins the
contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.snn.budget import Budget, BudgetTimer
from repro.snn.engine import Simulator, _check_batch_size
from repro.snn.results import SimulationResult
from repro.snn.schedule import StageWindow

__all__ = [
    "Workspace",
    "StagePlan",
    "WindowSchedule",
    "ExecutionPlan",
    "stage_plans",
    "compile_plan",
]

#: Page size, and the step between successive arena buffers' start offsets
#: within a page: 17 cache lines, coprime with the page's 64, so 64
#: successive buffers start on 64 different lines.
_PAGE = 4096
_STAGGER = 17 * 64


def _page_staggered(size: int, dtype: np.dtype, zeroed: bool, slot: int) -> np.ndarray:
    """``size`` elements of ``dtype`` starting at the ``slot``-th staggered
    offset within a page.

    Arena buffers are allocated back to back, and a malloc'd array whose
    byte size is a multiple of the page starts at nearly the same page
    offset as the one before it.  A kernel streaming one such buffer into
    another then stalls on 4K aliasing (a load whose page offset matches an
    earlier store's waits for it).  Spreading the starts over the page
    avoids that whatever the allocator's state was.
    """
    pad = _PAGE // dtype.itemsize
    raw = np.zeros(size + pad, dtype) if zeroed else np.empty(size + pad, dtype)
    skip = ((slot * _STAGGER - raw.ctypes.data) % _PAGE) // dtype.itemsize
    return raw[skip : skip + size]


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
        size = math.prod(shape)
        base = self._buffers.get(key)
        if base is None or base.dtype != dtype or base.size < size:
            base = _page_staggered(size, np.dtype(dtype), zeroed, self.allocations)
            self._buffers[key] = base
            self._trailing[key] = tuple(shape[1:])
            self.allocations += 1
        elif zeroed and self._trailing[key] != tuple(shape[1:]):
            base[...] = 0
            self._trailing[key] = tuple(shape[1:])
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

    ``threshold`` is the simulator's ``density_threshold``: an incoming
    packet at or below it propagates through the event-scatter kernel,
    above it through the workspace-arena dense GEMM (``1.0`` pins the event
    path, ``0.0`` the GEMM).
    """

    index: int
    name: str
    stage: object
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    threshold: float
    workspace: Workspace

    def apply_dense(self, x: np.ndarray) -> np.ndarray:
        """The stage's dense linear ops through the workspace arena.

        ``ConvertedStage.apply`` with every op's buffers taken from this
        plan's arena under the op keys ``(index, j)``: bit-identical, and
        over a persistent workspace the returned drive may be a view into
        it, valid until this stage's next flush.
        """
        out = x
        for j, op in enumerate(self.stage.ops):
            out = op.infer(out, self.workspace, (self.index, j))
        return out


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
        lines = [f"ExecutionPlan(batch={self.batch_size}, phased={self.phased})"]
        for p in [*self.stage_plans, self.readout_plan]:
            op = "event" if p.threshold >= 1.0 else (
                "gemm" if p.threshold <= 0.0 else f"auto<= {p.threshold:.4f}"
            )
            lines.append(f"  {p.name}: operator={op} in={p.in_shape}")
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


def stage_plans(sim: Simulator, workspace) -> list[StagePlan]:
    """``sim``'s kernel bindings over the arena ``workspace``: one
    :class:`StagePlan` per spiking stage, then the readout's, each under
    the simulator's density rule.  The reference engine runs them over
    fresh arrays (``repro.utils.arena.FRESH``), a compiled plan over its
    own :class:`Workspace`."""
    network = sim.network
    # Each stage's input is the previous one's output.
    stages = [*(s for s in network.stages if s.spiking), network.stages[-1]]
    in_shapes = [tuple(network.input_shape)] + [tuple(s.out_shape) for s in stages]
    return [
        StagePlan(
            index=i,
            name=stage.name,
            stage=stage,
            in_shape=in_shapes[i],
            out_shape=tuple(stage.out_shape),
            threshold=sim.density_threshold,
            workspace=workspace,
        )
        for i, stage in enumerate(stages)
    ]


def compile_plan(
    sim: Simulator,
    batch_size: int = 64,
    steps: int | None = None,
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for ``sim`` (see ``Simulator.compile``)."""
    batch_size = _check_batch_size(batch_size)
    runner = sim
    if steps is not None and steps != sim._steps_arg:
        runner = sim._replica(steps=steps, monitors=sim.monitors)
    workspace = Workspace()
    plans = stage_plans(runner, workspace)
    return ExecutionPlan(
        simulator=runner,
        bound=runner.bound,
        stage_plans=plans[:-1],
        readout_plan=plans[-1],
        workspace=workspace,
        batch_size=batch_size,
        schedule=_window_schedule(runner),
    )
