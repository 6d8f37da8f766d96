"""The T2FSNN model: converted network + TTFS kernels + GO + EF.

This is the library's primary high-level object.  It owns one
:class:`~repro.core.kernels.KernelParams` per spike source (input encoder +
every spiking stage), exposes the paper's two improvements —
:meth:`optimize_kernels` (gradient-based optimization, Sec. III-B) and the
``early_firing`` flag (Sec. III-C) — and runs inference through the shared
SNN engine.

Typical usage::

    net   = convert_to_snn(trained_dnn, x_train)
    model = T2FSNN(net, window=20)
    model.optimize_kernels(x_train[:512])          # GO
    model.early_firing = True                      # EF
    result = model.run(x_test, y_test)
    print(result.summary())
"""

from __future__ import annotations

import numpy as np

from repro.convert.converter import ConvertedNetwork
from repro.core.kernels import KernelParams, default_kernel_params
from repro.core.optimize import KernelOptimizer, OptimizationHistory
from repro.runtime import RunConfig, Runtime
from repro.snn.engine import Simulator
from repro.snn.results import SimulationResult
from repro.snn.schedule import PhasedSchedule

__all__ = ["T2FSNN"]


class T2FSNN:
    """Deep SNN with time-to-first-spike coding.

    Parameters
    ----------
    network:
        A converted (normalized, staged) network.
    window:
        Per-layer time window T.
    kernel_params:
        Initial kernel parameters per spike source; defaults to
        ``tau = T/4, t_d = 0`` everywhere.
    early_firing:
        Start each fire phase at ``fire_offset`` (default ``T/2``) into the
        integration phase.
    fire_offset:
        Explicit early-firing offset.
    theta0:
        Threshold constant.
    """

    def __init__(
        self,
        network: ConvertedNetwork,
        window: int,
        kernel_params: list[KernelParams] | None = None,
        early_firing: bool = False,
        fire_offset: int | None = None,
        theta0: float = 1.0,
    ):
        self.network = network
        self.window = window
        self.theta0 = theta0
        self.early_firing = early_firing
        self.fire_offset = fire_offset
        self.num_sources = network.num_spiking_stages + 1
        if kernel_params is None:
            kernel_params = [default_kernel_params(window) for _ in range(self.num_sources)]
        if len(kernel_params) != self.num_sources:
            raise ValueError(
                f"expected {self.num_sources} kernel parameter sets, got {len(kernel_params)}"
            )
        self.kernel_params = [p.validated() for p in kernel_params]
        self._runtime: Runtime | None = None

    @property
    def runtime(self) -> Runtime:
        """This model's execution :class:`~repro.runtime.runtime.Runtime`.

        Created lazily and replaced if closed; owns the compiled-simulator
        cache, coding keys, backend instances and service lifecycle —
        everything :meth:`run` and :meth:`serve` dispatch through.
        """
        if self._runtime is None or self._runtime.closed:
            self._runtime = Runtime(self)
        return self._runtime

    def _coding_key(self):
        """Fingerprint of the coding configuration (see ``Runtime.coding_key``)."""
        return self.runtime.coding_key()

    # ------------------------------------------------------------------ #
    # scheme / schedule plumbing
    # ------------------------------------------------------------------ #

    def coding(self):
        """The TTFS coding scheme at the current kernels and pipeline mode."""
        # Imported lazily: repro.coding.ttfs depends on repro.core.kernels,
        # so a module-level import here would close an import cycle.
        from repro.coding.ttfs import TTFSCoding

        return TTFSCoding(
            window=self.window,
            kernel_params=list(self.kernel_params),
            early_firing=self.early_firing,
            fire_offset=self.fire_offset,
            theta0=self.theta0,
        )

    def schedule(self) -> PhasedSchedule:
        """The current pipeline schedule."""
        return self.coding().schedule(self.network)

    @property
    def decision_time(self) -> int:
        """Inference latency in time steps (the paper's "latency")."""
        return self.schedule().decision_time

    # ------------------------------------------------------------------ #
    # gradient-based optimization (GO)
    # ------------------------------------------------------------------ #

    def optimize_kernels(
        self,
        x: np.ndarray,
        batch_size: int = 64,
        epochs: int = 1,
        lr_tau: float = 1.0,
        lr_td: float = 0.1,
        loss_weights: tuple[float, float, float] = (1.0, 10.0, 1.0),
        min_percentile: float = 1.0,
    ) -> list[OptimizationHistory]:
        """Train every source kernel layer-wise against DNN activations.

        For each mini-batch of ``x`` the normalized network's analog
        activations provide the ground truth ``z̄`` per source (pixels for
        the input encoder, unclipped ReLU outputs for each spiking stage),
        and each source's :class:`~repro.core.optimize.KernelOptimizer`
        takes one SGD step — the paper's layer-wise supervised scheme.

        ``loss_weights`` defaults to up-weighting ``L_min`` x10, following
        the paper's observation that "L_min has a greater impact than
        L_prec"; pass ``(1, 1, 1)`` for the unweighted reading of Eqs. 9-14.

        Returns one loss history per source and updates
        ``self.kernel_params`` in place.
        """
        if len(x) < 1:
            raise ValueError("optimization needs at least one sample")
        optimizers = [
            KernelOptimizer(
                params,
                self.window,
                lr_tau=lr_tau,
                lr_td=lr_td,
                theta0=self.theta0,
                loss_weights=loss_weights,
                min_percentile=min_percentile,
            )
            for params in self.kernel_params
        ]
        for _ in range(epochs):
            for start in range(0, len(x), batch_size):
                xb = x[start : start + batch_size]
                _, activations = self.network.analog_forward(xb, clip=False)
                optimizers[0].step(xb.reshape(-1))
                for opt, act in zip(optimizers[1:], activations):
                    opt.step(act.reshape(-1))
        self.kernel_params = [opt.params for opt in optimizers]
        return [opt.history for opt in optimizers]

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #

    def simulator(self, monitors=()) -> Simulator:
        """A fresh :class:`~repro.snn.engine.Simulator` for this model."""
        return self.runtime.simulator(monitors=monitors)

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        *,
        config: RunConfig | None = None,
    ) -> SimulationResult:
        """Run TTFS inference on a batch (optionally scored against ``y``).

        How the run executes is described by one
        :class:`~repro.runtime.config.RunConfig`::

            from repro.runtime import RunConfig

            model.run(x, y)                                    # serial
            model.run(x, y, config=RunConfig(batch_size=100))  # mini-batched
            model.run(x, y, config=RunConfig(compiled=True))   # compiled plan
            model.run(x, y, config=RunConfig(workers="auto", compiled=True))

        Dispatch goes through the model's :attr:`runtime` and the backend
        registry (``"serial"``/``"compiled"``/``"parallel"``; see
        :mod:`repro.runtime.backends`): a parallel request that resolves to
        more than one worker shards mini-batches across processes,
        ``compiled=True`` runs through a cached execution plan (per-worker
        plans when the two compose), everything else takes the reference
        engine.  Illegal combinations (monitors with workers, bool workers,
        ``batch_size <= 0``) are rejected when the config is built.

        .. versionchanged:: 1.2
            The deprecated ``monitors=``/``batch_size=``/``workers=``/
            ``compiled=`` keyword shim (deprecated in 1.1) was removed;
            pass ``config=RunConfig(...)``.
        """
        return self.runtime.run(x, y, config)

    def serve(
        self,
        max_batch: int = 16,
        capacities: tuple[int, ...] | None = None,
        max_wait_ms: float = 2.0,
        cache_size: int = 256,
        *,
        config: RunConfig | None = None,
        **service_kwargs,
    ):
        """An online :class:`~repro.serve.service.InferenceService` for this model.

        Single samples submitted from any thread are coalesced into
        micro-batches (flush on ``max_batch`` or ``max_wait_ms``) and run
        through pre-compiled execution plans; results are bit-identical in
        predictions to :meth:`run`.  The service tracks this model's coding
        configuration — toggling ``early_firing``, re-optimizing kernels or
        swapping ``self.network`` transparently compiles fresh plans.
        Execution options (worker pool, steps override, request
        deadlines) travel in a
        :class:`~repro.runtime.config.RunConfig`; extra keyword arguments
        (``max_pending``, ``breaker``, ``retry``, ``dedupe``, ...) pass
        straight to the :class:`~repro.serve.service.InferenceService`
        constructor.  The service is built through the registry's
        ``"service"`` backend and closed by the runtime if left open.  Use
        as a context manager (or call ``close()``) to stop the dispatch
        thread::

            with model.serve(max_batch=32, max_wait_ms=2.0) as svc:
                print(svc.predict(x_test[0]).prediction)

        .. versionchanged:: 1.2
            The deprecated ``workers=`` keyword shim (deprecated in
            1.1) was removed; pass ``config=RunConfig(workers=...)``.
        """
        return self.runtime.serve(
            config,
            max_batch=max_batch,
            capacities=capacities,
            max_wait_ms=max_wait_ms,
            cache_size=cache_size,
            **service_kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "EF" if self.early_firing else "baseline"
        return (
            f"T2FSNN(window={self.window}, sources={self.num_sources}, "
            f"pipeline={mode}, latency={self.decision_time})"
        )
