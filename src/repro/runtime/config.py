"""`RunConfig`: one validated description of how to execute inference.

Four PRs of performance work each bolted another keyword onto
``T2FSNN.run()`` — ``monitors``, ``batch_size``, ``workers``,
``compiled`` — until the legal combinations lived only in prose.
:class:`RunConfig` replaces that flag soup with a single frozen value
object whose illegal combinations fail *eagerly*, at construction, with a
message naming the conflict:

* ``batch_size`` must be a positive int (the old silent ``batch_size or
  64`` fallback turned ``0`` into the default);
* ``workers`` must be an int ``>= 1`` or ``"auto"`` (bools are rejected —
  ``workers=True`` would silently run serial);
* ``monitors`` cannot be combined with a parallel ``workers`` request —
  monitors observe per-step state inside one process and cannot be merged
  across address spaces;
* ``budget_ms`` / ``min_confidence`` cannot be combined with a parallel
  ``workers`` request — a budget bounds one in-process window;
* an explicit ``backend`` must exist in the registry and must not
  contradict the other fields (``backend="serial"`` with
  ``compiled=True``, ``backend="parallel"`` with ``workers=1``,
  ``deadline_ms`` on a batch backend, monitors, ``dtype`` or
  ``min_confidence`` on ``backend="service"``).

This is the one table of legal combinations: ``Runtime.run`` and
``Runtime.serve`` re-validate with the backend they resolved
(``dataclasses.replace(config, backend=name)``) instead of keeping rules
of their own.  A ``RunConfig`` is hashable and immutable, so it can key
caches; use :func:`dataclasses.replace` to derive variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.snn.budget import _check_positive

__all__ = ["RunConfig", "DEFAULT_BATCH_SIZE"]

#: Mini-batch size used when ``batch_size`` is left unset by a batched
#: execution path (compiled plans, parallel shards).
DEFAULT_BATCH_SIZE = 64

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _validate_optional_positive_int(name: str, value: object) -> int | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a positive int or None, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class RunConfig:
    """How one inference run executes (see module docstring).

    Parameters
    ----------
    batch_size:
        Mini-batch size.  ``None`` lets each backend pick: the serial
        backend runs the whole input as one batch, batched backends
        (compiled plans, parallel shards, service flushes) use
        :data:`DEFAULT_BATCH_SIZE`.  ``0`` and negatives are rejected —
        there is no silent fallback.
    workers:
        ``1`` (serial), an int ``> 1`` (process shards), or ``"auto"``
        (``min(os.cpu_count(), shards)`` — serial on single-core hosts).
    compiled:
        Execute through a compiled :class:`~repro.snn.plan.ExecutionPlan`
        (the reference engine's kernel decisions on workspace arenas,
        bit-identical scores).  Composes with ``workers``: each worker
        compiles its own plan.
    steps:
        Time-budget override for free-running schemes; ignored by
        phase-scheduled schemes (TTFS), whose binding derives its length.
    monitors:
        Monitor-protocol observers (:mod:`repro.snn.monitors`); serial and
        compiled paths only.
    dtype:
        Compute dtype override (``float32`` / ``float64``).  ``None`` keeps
        the model network's dtype; a non-``None`` value runs through a
        cached :meth:`~repro.convert.converter.ConvertedNetwork.astype`
        copy without mutating the model.
    backend:
        Explicit backend name from the registry
        (:mod:`repro.runtime.backends`); ``None`` selects automatically
        from the other fields (parallel > compiled > serial).
    deadline_ms:
        Per-request *queue admission* deadline for served execution
        (``InferenceService.submit(deadline_ms=...)`` default): a request
        still waiting in the micro-batcher when it expires is rejected
        with ``DeadlineExceeded`` before any compute is spent.  Only the
        service honours deadlines — batch backends run to completion — so
        combining it with a builtin batch backend, named or auto-selected,
        is rejected.  See DESIGN.md §13/§14 for the deadline/budget split.
    budget_ms:
        *Execution* compute budget in milliseconds (docs/DESIGN.md §14).
        The ``"serial"`` and ``"compiled"`` backends run under it: the
        simulation window is truncated when the budget expires and the run
        returns an :class:`~repro.snn.results.AnytimeResult` (current
        argmax + confidence margins).  Under ``serve()`` it bounds each
        dispatched flush's execution (the watchdog deadline),
        complementing ``deadline_ms``'s queueing bound.  Not combinable
        with parallel ``workers``.
    min_confidence:
        Per-sample early decision margin (``"serial"`` and ``"compiled"``
        backends): a sample whose accumulated evidence margin reaches this
        value is retired immediately, freeing batch capacity before the
        budget expires; the run returns an
        :class:`~repro.snn.results.AnytimeResult`.  Deliberately lossy;
        not available under ``serve()``.
    """

    batch_size: int | None = None
    workers: int | str = 1
    compiled: bool = False
    steps: int | None = None
    monitors: tuple = ()
    dtype: np.dtype | None = None
    backend: str | None = None
    deadline_ms: float | None = None
    budget_ms: float | None = None
    min_confidence: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "monitors", tuple(self.monitors))
        object.__setattr__(
            self,
            "batch_size",
            _validate_optional_positive_int("batch_size", self.batch_size),
        )
        object.__setattr__(
            self, "steps", _validate_optional_positive_int("steps", self.steps)
        )

        workers = self.workers
        if isinstance(workers, bool):
            raise ValueError(
                f'workers must be an int >= 1 or "auto", got the bool {workers!r}'
            )
        if isinstance(workers, str):
            if workers != "auto":
                raise ValueError(
                    f'workers must be an int >= 1 or "auto", got {workers!r}'
                )
        elif isinstance(workers, (int, np.integer)):
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            object.__setattr__(self, "workers", int(workers))
        else:
            raise ValueError(f'workers must be an int or "auto", got {workers!r}')

        if not isinstance(self.compiled, bool):
            raise ValueError(f"compiled must be a bool, got {self.compiled!r}")

        if self.dtype is not None:
            dtype = np.dtype(self.dtype)
            if dtype not in _FLOAT_DTYPES:
                raise ValueError(
                    f"dtype must be float32 or float64, got {dtype}"
                )
            object.__setattr__(self, "dtype", dtype)

        for name in ("deadline_ms", "budget_ms", "min_confidence"):
            object.__setattr__(self, name, _check_positive(name, getattr(self, name)))

        budgeted = self.budget_ms is not None or self.min_confidence is not None
        if budgeted and self.parallel_requested:
            raise ValueError(
                "budget_ms/min_confidence bound a single in-process window; "
                f"workers={self.workers!r} shards across processes, whose "
                "wall clocks cannot share one budget — run with workers=1"
            )

        if self.monitors and self.parallel_requested:
            raise ValueError(
                "monitors observe per-step state inside one process and "
                f"cannot be combined with workers={self.workers!r}; run with "
                "workers=1 to attach monitors"
            )

        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise ValueError(f"backend must be a str, got {self.backend!r}")
            # Imported here: backends.py imports this module for selection.
            from repro.runtime.backends import BACKEND_FACTORIES, available_backends

            if self.backend not in BACKEND_FACTORIES:
                raise ValueError(
                    f"unknown backend {self.backend!r}; choose from "
                    f"{available_backends()}"
                )
            if self.backend == "serial" and self.compiled:
                raise ValueError(
                    'backend="serial" contradicts compiled=True; drop the '
                    'explicit backend or use backend="compiled"'
                )
            if self.backend == "parallel" and not self.parallel_requested:
                raise ValueError(
                    'backend="parallel" needs workers > 1 or workers="auto", '
                    f"got workers={self.workers!r}"
                )
            if self.backend == "service" and self.monitors:
                raise ValueError(
                    "monitors observe per-step state and cannot be attached "
                    'to backend="service" (no meaning at request granularity)'
                )
            if self.backend in ("serial", "compiled", "parallel") and (
                self.deadline_ms is not None
            ):
                raise ValueError(
                    f"deadline_ms is a served-request option; "
                    f'backend={self.backend!r} runs batches to completion '
                    "and cannot honour it (use the service backend; for an "
                    "execution-side bound on batch runs use budget_ms)"
                )
            if self.backend == "service" and self.min_confidence is not None:
                raise ValueError(
                    "min_confidence retires individual samples inside a "
                    'batch window and has no meaning under backend="service" '
                    "(requests share micro-batch windows); use budget_ms to "
                    "bound served execution"
                )
            if self.backend == "service" and self.dtype is not None:
                raise ValueError(
                    'backend="service" does not support a dtype override: '
                    "the service sources simulators at the model network's "
                    "dtype; cast the network (ConvertedNetwork.astype) to "
                    "serve another precision"
                )

    @property
    def parallel_requested(self) -> bool:
        """Whether this config asks for process-parallel execution."""
        return self.workers == "auto" or (
            isinstance(self.workers, int) and self.workers > 1
        )

    @property
    def resolved_batch_size(self) -> int:
        """``batch_size``, or :data:`DEFAULT_BATCH_SIZE` when unset."""
        return self.batch_size if self.batch_size is not None else DEFAULT_BATCH_SIZE
