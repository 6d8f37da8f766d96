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
  state are allocated on first use and reused across steps, batches and
  runs; smaller batches (including retirement compaction) use leading
  views of the same storage, so steady-state inference performs no
  per-step heap allocations.  The arena holds one slab per *role*
  (:func:`slab_of`): stage outputs ping-pong between two parity slabs and
  scratch is shared, so like an ANN forward pass it holds two
  activations, not one per stage.
* **Window schedule.**  Window-scheduled schemes (TTFS, reverse) declare
  their firing windows (``NeuronDynamics.phase_window`` /
  ``InputEncoder.emission_window``).  The plan stores them once, with what
  follows from them (:class:`WindowSchedule`), and the engine's one step
  loop (``Simulator._run``) runs such a plan under its *window-phased*
  policy: it touches only the stages that can act at each step, calls
  ``note_input_exhausted`` at the schedule-derived step (enabling scheduled
  TTFS firing without the per-step quiescence chain), and stops at the end
  of the last fire window — trimming over-provisioned budgets without
  running the quiescence machinery.  Where every source can drain (the
  TTFS baseline schedule), its *layered* case drains each source in bulk
  and visits no step.

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

from repro.nn.layers import Flatten
from repro.snn.budget import Budget, BudgetTimer
from repro.snn.engine import Simulator, _check_batch_size
from repro.snn.results import SimulationResult

__all__ = [
    "Workspace",
    "slab_of",
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


#: Stage outputs: one slab per role and stage parity, so a stage reads the
#: slab the stage before it wrote while it writes the other one.
_OUTPUT_ROLES = frozenset({"gemm", "pool", "dense"})
#: Per-call scratch, dead when its kernel returns: one slab per role.
_SCRATCH_ROLES = frozenset({"im2col", "pool.pair", "scatter_acc"})


def slab_of(key, private=frozenset()):
    """The slab serving the arena buffer ``key``: the slab rule.

    A kernel's key is ``(op key, role)``, its op key ``(stage index, op
    index)`` or a stage index.  A stage output (``"gemm"``, ``"pool"``,
    ``"dense"``) lives in the slab ``(role, index % 2)``, per-call scratch
    (``"im2col"``, ``"pool.pair"``, ``"scatter_acc"``) in the slab
    ``role``.  Every other key is a slab of its own: a stage's ``("merge",
    index)`` (it holds deferred drives across steps), ``("drain",
    receiver)`` (the receiver's inbox), a conv's ``"pad"`` (its zeroed
    border), the drains' shared ``("ttfs.drain", name)`` scratch, any key
    without a stage index, and the outputs of the ``private`` stages.
    """
    if type(key) is tuple and len(key) == 2:
        owner, role = key
        if role in _SCRATCH_ROLES:
            return role
        if role in _OUTPUT_ROLES:
            index = owner[0] if type(owner) is tuple else owner
            if type(index) is int and index not in private:
                return role, index % 2
    return key


def _role(slab) -> str:
    """The role a slab serves: its first string part."""
    if isinstance(slab, str):
        return slab
    parts = slab if isinstance(slab, tuple) else ()
    return next((part for part in parts if isinstance(part, str)), repr(slab))


class Workspace:
    """An arena of persistent numpy buffers, one slab per role.

    ``buffer(key, shape, dtype)`` returns a C-contiguous view of exactly
    ``shape`` backed by the flat capacity array of the slab serving
    ``key`` (:func:`slab_of`), which survives across calls: repeated
    requests (steps, batches, runs) reuse the same storage, a slab grows
    to its largest request, and a request needing at most the existing
    capacity allocates nothing.  A slab serves one dtype; a request in
    another replaces its storage.  ``allocations`` counts backing
    allocations — a steady-state workload holds it constant, which the
    zero-allocation test asserts.

    Ownership rule (docs/DESIGN.md §10): a view returned here is valid
    until the next request for the *same slab*.  Stage outputs ping-pong
    between two parity slabs, so a stage's output lives until the stage
    two later writes its own; callers that need a result to outlive that
    (caches, returned scores) must copy.  A stage holding two ops of one
    kind (two pools, say) would read the slab it writes, so the stages
    named in ``private`` keep one output buffer per op.
    """

    def __init__(self, private=frozenset()):
        self._buffers: dict = {}
        self._trailing: dict = {}
        self._private = frozenset(private)
        self.allocations = 0

    def buffer(self, key, shape, dtype, zeroed: bool = False) -> np.ndarray:
        """A persistent buffer of ``shape``/``dtype`` in the slab serving ``key``.

        ``zeroed`` guarantees untouched cells read zero on first use and
        whenever the trailing (per-sample) layout changes; a pure
        leading-dimension change keeps previously zeroed cells at the same
        flat offsets, so no re-zeroing is needed (the padded-border case).
        """
        slab = slab_of(key, self._private)
        size = math.prod(shape)
        base = self._buffers.get(slab)
        if base is None or base.dtype != dtype or base.size < size:
            base = _page_staggered(size, np.dtype(dtype), zeroed, self.allocations)
            self._buffers[slab] = base
            self._trailing[slab] = tuple(shape[1:])
            self.allocations += 1
        elif zeroed and self._trailing[slab] != tuple(shape[1:]):
            base[...] = 0
            self._trailing[slab] = tuple(shape[1:])
        return base[:size].reshape(shape)

    def nbytes(self, key=None) -> int:
        """Bytes held by the arena, or by the slab serving ``key`` alone (0
        if unused); a slab's own key (``"im2col"``, ``("gemm", 0)``) names it."""
        if key is not None:
            base = self._buffers.get(slab_of(key, self._private))
            return 0 if base is None else base.nbytes
        return sum(b.nbytes for b in self._buffers.values())

    def roles(self) -> dict[str, tuple[int, int]]:
        """``{role: (slabs, bytes)}`` over the arena's slabs."""
        table: dict[str, tuple[int, int]] = {}
        for slab, base in self._buffers.items():
            count, size = table.get(_role(slab), (0, 0))
            table[_role(slab)] = (count + 1, size + base.nbytes)
        return table


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
        over a persistent workspace the returned drive may be a view of
        the output slab of this stage's parity, valid until the next
        request for that slab (this stage's next flush, or the flush of a
        stage of the same parity).
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
    one-shot bias step.  ``layered`` is the structural half of the layered
    policy's test: every source can drain, and no receiver reads its
    membrane before its source's window ends (the TTFS baseline schedule,
    Fig. 3a).  Whether every kernel table allows a drain under a binding
    budget is checked per run.
    """

    enc_end: int
    upstream_end: tuple[int, ...]
    horizon: int
    awake: tuple[tuple[bool, ...], ...]
    bias_step: int | None
    layered: bool


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
    upstream_end = (enc_end, *(w.fire_end for w in windows[:-1]))
    return WindowSchedule(
        enc_end=enc_end,
        upstream_end=upstream_end,
        horizon=horizon,
        awake=tuple(
            tuple(
                w.in_fire_phase(step) or step == w.integration_start
                for step in range(horizon)
            )
            for w in windows
        ),
        bias_step=bound.readout.bias_time if bound.readout.bias_policy == "once_at" else None,
        layered=all(
            hasattr(source, "can_drain")
            for source in (bound.encoder, *bound.dynamics)
        )
        and all(w.fire_start >= end for w, end in zip(windows, upstream_end)),
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
        """Human-readable per-stage operator table, then the arena by role
        (slabs and bytes; it holds nothing before the first run) and the
        membrane bytes the dynamics hold."""
        lines = [f"ExecutionPlan(batch={self.batch_size}, phased={self.phased})"]
        for p in [*self.stage_plans, self.readout_plan]:
            op = "event" if p.threshold >= 1.0 else (
                "gemm" if p.threshold <= 0.0 else f"auto<= {p.threshold:.4f}"
            )
            lines.append(f"  {p.name}: operator={op} in={p.in_shape}")
        roles = self.workspace.roles()
        slabs = sum(count for count, _ in roles.values())
        lines.append(f"  arena: {self.workspace.nbytes() / 1e6:.2f} MB in {slabs} slabs")
        for role, (count, size) in sorted(roles.items()):
            lines.append(f"    {role}: {count} x, {size} B")
        membranes = sum(dyn.membrane_nbytes() for dyn in self.bound.dynamics)
        lines.append(f"  membranes: {membranes / 1e6:.2f} MB (the dynamics')")
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
    stages = [s for s in runner.network.stages if s.spiking] + [runner.network.stages[-1]]
    kinds = [[type(op) for op in s.ops if not isinstance(op, Flatten)] for s in stages]
    workspace = Workspace(
        private=(i for i, ops in enumerate(kinds) if len(set(ops)) < len(ops))
    )
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
