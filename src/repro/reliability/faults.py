"""Deterministic fault injection (docs/DESIGN.md §13).

The `BrokenExecutor` fallback paths of :mod:`repro.snn.parallel`'s worker
pool, in ``run_parallel`` and in the service that keeps one, were
untestable before this harness: nothing could make a worker die on cue.
This module plants named **fault points** at the reliability-critical
seams and lets tests (and the CI chaos job) arm them with a
:class:`FaultPlan`:

========================  ====================================================
``worker.crash``          a pool worker hard-exits (``os._exit``) inside
                          ``_run_shard`` — the parent sees ``BrokenProcessPool``
``pool.spawn``            pool construction raises ``OSError`` — a host
                          without working fork/spawn
``flush.slow``            the service's flush sleeps ``delay_ms`` — a stalled
                          dispatch thread backing up the pending queue
``flush.hang``            the *execution* of a dispatched flush sleeps
                          ``delay_ms`` — a hung worker the flush watchdog
                          must detect, abandon and recover from (distinct
                          from ``flush.slow``, which stalls the dispatch
                          thread before any compute is committed)
``kernel.exception``      plan execution raises :class:`InjectedFault` — a
                          workload bug, rejected to callers, never retried
========================  ====================================================

Determinism has two halves.  *Budgets* are *cross-process*: arming a plan
materialises ``times`` token files per fault point in a temp directory,
and a fault only fires by atomically claiming a token — so
``FaultSpec("worker.crash", times=1)`` kills exactly one worker across
the whole pool, including pools rebuilt by the supervisor (whose fresh
workers see an exhausted budget and run clean).  *Randomness* is seeded:
an optional ``probability < 1`` draws from a per-point ``random.Random``
derived from the plan seed, so a chaos run replays identically.

Fault plans reach worker processes through the pool payload
(:func:`repro.snn.parallel.worker_payload` ships the active plan and the
initializer adopts it), which works under fork, forkserver and spawn.
Install a plan **before** the pool is built or it will not reach
worker-side points.

Production code calls :func:`check` at each fault point; with no plan
installed that is one global read — effectively free.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.reliability.errors import InjectedFault

__all__ = [
    "WORKER_CRASH",
    "POOL_SPAWN",
    "SLOW_FLUSH",
    "FLUSH_HANG",
    "KERNEL_EXCEPTION",
    "FAULT_POINTS",
    "FaultSpec",
    "FaultPlan",
    "install",
    "uninstall",
    "adopt",
    "active",
    "inject",
    "check",
]

WORKER_CRASH = "worker.crash"
POOL_SPAWN = "pool.spawn"
SLOW_FLUSH = "flush.slow"
FLUSH_HANG = "flush.hang"
KERNEL_EXCEPTION = "kernel.exception"

FAULT_POINTS = (WORKER_CRASH, POOL_SPAWN, SLOW_FLUSH, FLUSH_HANG, KERNEL_EXCEPTION)

#: Exit status used by ``worker.crash`` (distinctive in pool diagnostics).
CRASH_EXIT_CODE = 73


@dataclass
class FaultSpec:
    """One fault point's schedule.

    ``times`` bounds total firings (cross-process once armed); ``after``
    skips that many consultations first (per process); ``delay_ms`` is
    the sleep for slow points; ``probability`` gates each consultation on
    a seeded coin.
    """

    point: str
    times: int = 1
    after: int = 0
    delay_ms: float = 0.0
    probability: float = 1.0

    def __post_init__(self):
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(
                f"probability must be in (0, 1], got {self.probability}"
            )


class FaultPlan:
    """A set of :class:`FaultSpec` s plus the seeded/armed firing state.

    Plans are picklable so they can ride the worker-pool payload; token
    directories travel as paths, which keeps the cross-process budget
    shared between the parent and every (re)spawned worker.
    """

    def __init__(self, specs, seed: int = 0):
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"expected FaultSpec, got {spec!r}")
            if spec.point in self.specs:
                raise ValueError(f"duplicate fault point {spec.point!r}")
            self.specs[spec.point] = spec
        self.seed = int(seed)
        self._token_dirs: dict[str, str] = {}
        self._consultations: dict[str, int] = {}
        self._rngs: dict[str, random.Random] = {}

    # ------------------------------------------------------------------ #
    # arming (token budgets)
    # ------------------------------------------------------------------ #

    @property
    def armed(self) -> bool:
        return bool(self._token_dirs)

    def arm(self) -> "FaultPlan":
        """Materialise cross-process token budgets; idempotent."""
        for point, spec in self.specs.items():
            if point in self._token_dirs:
                continue
            directory = tempfile.mkdtemp(
                prefix=f"repro-fault-{point.replace('.', '-')}-"
            )
            for i in range(spec.times):
                with open(os.path.join(directory, f"token-{i}"), "x"):
                    pass
            self._token_dirs[point] = directory
        return self

    def disarm(self) -> None:
        """Remove token budgets (and their directories)."""
        for directory in self._token_dirs.values():
            try:
                for name in os.listdir(directory):
                    try:
                        os.unlink(os.path.join(directory, name))
                    except OSError:
                        pass
                os.rmdir(directory)
            except OSError:
                pass
        self._token_dirs = {}

    def remaining(self, point: str) -> int:
        """Unclaimed firings left in ``point``'s budget (0 when unarmed)."""
        directory = self._token_dirs.get(point)
        if directory is None:
            return 0
        try:
            return len(os.listdir(directory))
        except OSError:
            return 0

    def _claim(self, point: str) -> bool:
        """Atomically claim one firing token; False when exhausted."""
        directory = self._token_dirs.get(point)
        if directory is None:
            return False
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return False
        for name in names:
            try:
                os.unlink(os.path.join(directory, name))
                return True
            except OSError:
                continue  # another process got there first
        return False

    # ------------------------------------------------------------------ #
    # consultation
    # ------------------------------------------------------------------ #

    def consult(self, point: str) -> FaultSpec | None:
        """The spec to fire at ``point`` now, or None."""
        spec = self.specs.get(point)
        if spec is None:
            return None
        seen = self._consultations.get(point, 0) + 1
        self._consultations[point] = seen
        if seen <= spec.after:
            return None
        if spec.probability < 1.0:
            rng = self._rngs.get(point)
            if rng is None:
                rng = self._rngs[point] = random.Random((self.seed, point).__repr__())
            if rng.random() >= spec.probability:
                return None
        if not self._claim(point):
            return None
        return spec

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "armed" if self.armed else "unarmed"
        return f"FaultPlan({sorted(self.specs)}, seed={self.seed}, {state})"


_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` and make it the process's active plan."""
    global _ACTIVE
    if _ACTIVE is not None:
        # Harness misuse guard, not a reliability outcome: nothing in the
        # serving stack should ever catch (or see) this.
        raise RuntimeError(  # repro-lint: disable=RPL007
            "a fault plan is already installed; uninstall() it first"
        )
    _ACTIVE = plan.arm()
    return plan


def uninstall() -> None:
    """Deactivate and disarm the active plan (no-op when none)."""
    global _ACTIVE
    plan, _ACTIVE = _ACTIVE, None
    if plan is not None:
        plan.disarm()


def adopt(plan: FaultPlan | None) -> None:
    """Activate an already-armed plan without re-arming it.

    Used by pool initializers: the parent owns the token budget; workers
    merely consult it.  Never disarms on replacement.
    """
    global _ACTIVE
    _ACTIVE = plan


def active() -> FaultPlan | None:
    """The process's active plan (rides the worker-pool payload)."""
    return _ACTIVE


@contextmanager
def inject(*specs: FaultSpec, seed: int = 0):
    """Install a plan for the duration of a ``with`` block."""
    plan = install(FaultPlan(specs, seed=seed))
    try:
        yield plan
    finally:
        uninstall()


def check(point: str) -> None:
    """Consult the active plan at a fault point; fire if scheduled.

    Firing behaviour by point: ``worker.crash`` hard-exits the process,
    ``flush.slow`` and ``flush.hang`` sleep ``delay_ms`` (at different
    seams: pre-dispatch queueing vs committed execution), ``pool.spawn``
    raises ``OSError``, everything else (including ``kernel.exception``
    and unknown points) raises :class:`InjectedFault`.
    """
    plan = _ACTIVE
    if plan is None:
        return
    spec = plan.consult(point)
    if spec is None:
        return
    if point == WORKER_CRASH:
        os._exit(CRASH_EXIT_CODE)
    if point in (SLOW_FLUSH, FLUSH_HANG):
        time.sleep(spec.delay_ms / 1000.0)
        return
    if point == POOL_SPAWN:
        # Deliberately impersonates the infrastructure error a real failed
        # spawn produces, so supervisor retry paths are exercised verbatim.
        raise OSError(f"injected fault at {point!r}")  # repro-lint: disable=RPL007
    raise InjectedFault(f"injected fault at {point!r}")
