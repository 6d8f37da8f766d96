"""`Runtime`: per-model execution state, backend dispatch and lifecycle.

Every :class:`~repro.core.t2fsnn.T2FSNN` owns one lazily created
``Runtime`` (``model.runtime``).  It concentrates what previously leaked
across the codebase:

* the **compiled-simulator cache** that used to live on the model as
  ``_compiled_sim``/``_compiled_key`` (plans live on a simulator, so
  repeated compiled runs must reuse one simulator or pay calibration
  every call) — constructed *lazily*, so a cache hit builds nothing;
* **coding keys** — the fingerprint of the model's coding configuration
  (kernels, early firing, window, network identity token) that
  invalidates compiled simulators, plan pools and service caches;
* **dtype variants** — ``RunConfig(dtype=np.float32)`` runs through a
  cached ``network.astype`` copy without mutating the model;
* **backend instances** from the registry
  (:mod:`repro.runtime.backends`), created once per name and closed with
  the runtime;
* **lifecycle** — ``close()`` / context manager shuts down services
  opened through :meth:`serve` and drops every cache.

``T2FSNN.run``/``serve`` are thin facades over :meth:`run`/:meth:`serve`;
the serving layer sources its generation simulators from here, so the
model, its compiled runs and its services all agree on one cache and one
invalidation rule.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.runtime.backends import Backend, make_backend, select_backend
from repro.runtime.config import RunConfig
from repro.snn.engine import Simulator
from repro.snn.results import SimulationResult

if TYPE_CHECKING:
    from repro.serve.service import InferenceService

__all__ = ["Runtime"]


class Runtime:
    """Execution runtime owned by one model (see module docstring).

    ``model`` must provide ``network``, ``coding()`` and the coding
    configuration attributes (``kernel_params``, ``early_firing``,
    ``fire_offset``, ``window``, ``theta0``) — i.e. a
    :class:`~repro.core.t2fsnn.T2FSNN`.
    """

    def __init__(self, model: Any) -> None:
        self.model = model
        self._backends: dict[str, Backend] = {}
        # Compiled-run cache, moved here from T2FSNN: plans live on a
        # Simulator, so repeated compiled runs must reuse one simulator.
        # Invalidated whenever the coding key changes (optimize_kernels,
        # early_firing toggles, network swap/astype/bump_version).
        self._compiled_sim: Simulator | None = None
        self._compiled_key: tuple | None = None
        self._dtype_networks: dict = {}
        self._services: weakref.WeakSet = weakref.WeakSet()
        self._closed = False

    # ------------------------------------------------------------------ #
    # coding keys and simulators
    # ------------------------------------------------------------------ #

    def _network_token(self, network: Any) -> tuple:
        return (
            network.identity_token()
            if hasattr(network, "identity_token")
            else (id(network),)
        )

    def network_for(self, dtype: Any = None) -> Any:
        """The model's network, or a cached ``astype`` copy for ``dtype``.

        Variant networks are keyed by the *source* network's identity
        token, so swapping or mutating ``model.network`` can never reuse a
        cast of the old parameters.
        """
        network = self.model.network
        if dtype is None or np.dtype(dtype) == network.dtype:
            return network
        key = (self._network_token(network), np.dtype(dtype).str)
        cached = self._dtype_networks.get(key)
        if cached is None:
            cached = network.astype(dtype)
            # One generation at a time: a swapped source network orphans
            # every old cast.
            self._dtype_networks = {key: cached}
        return cached

    def coding_key(self, dtype: Any = None) -> tuple:
        """Fingerprint of the model's current coding configuration.

        Embeds the (possibly dtype-variant) network's identity token plus
        every kernel/schedule parameter; any change produces a new key,
        invalidating compiled simulators, plan pools and result caches
        keyed on it.
        """
        model = self.model
        return (
            self._network_token(self.network_for(dtype)),
            tuple((p.tau, p.t_delay) for p in model.kernel_params),
            model.early_firing,
            model.fire_offset,
            model.window,
            model.theta0,
        )

    def simulator(
        self,
        monitors: Sequence = (),
        steps: int | None = None,
        dtype: Any = None,
    ) -> Simulator:
        """A fresh :class:`~repro.snn.engine.Simulator` for the model."""
        return Simulator(
            self.network_for(dtype), self.model.coding(), steps=steps, monitors=monitors
        )

    def compiled_simulator(
        self, steps: int | None = None, dtype: Any = None
    ) -> Simulator:
        """The cached monitor-free simulator compiled runs execute on.

        Constructed lazily — a cache hit builds no simulator at all (the
        old ``T2FSNN.run`` built a throwaway one every call) — and
        replaced whenever the coding key or steps override changes.
        """
        key = (self.coding_key(dtype), steps)
        if self._compiled_sim is None or self._compiled_key != key:
            self._compiled_sim = self.simulator(steps=steps, dtype=dtype)
            self._compiled_key = key
        return self._compiled_sim

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    def backend(self, name: str) -> Backend:
        """The runtime's instance of backend ``name`` (created on first use)."""
        backend = self._backends.get(name)
        if backend is None:
            backend = make_backend(name)
            self._backends[name] = backend
        return backend

    def run(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        config: RunConfig | None = None,
    ) -> SimulationResult:
        """Execute one batch through the backend ``config`` selects.

        The config is re-validated with the resolved backend named, so an
        auto-selected backend obeys :class:`RunConfig`'s rules exactly as
        an explicit one would.
        """
        self._check_open()
        config = RunConfig() if config is None else config
        name = select_backend(config, len(x))
        if config.backend != name:
            config = replace(config, backend=name)
        return self.backend(name).execute(self, config, x, y)

    def serve(
        self, config: RunConfig | None = None, **service_kwargs: Any
    ) -> InferenceService:
        """An online :class:`~repro.serve.service.InferenceService`.

        Built through the registry's ``"service"`` backend;
        ``service_kwargs`` (``max_batch``, ``capacities``, ``max_wait_ms``,
        ``adaptive_wait``, ``wait_ceiling_ms``, ``max_pending``,
        ``cache_size``, ...) pass straight to the service constructor —
        micro-batch sizing is governed by ``max_batch``/``capacities``, not
        ``config.batch_size``.  Config options the service cannot honour
        (monitors, ``dtype``, ``min_confidence``, a non-service
        ``backend``) are rejected loudly rather than ignored — the first
        three by re-validating ``config`` as ``backend="service"``.
        Services opened here are closed by :meth:`close` if the caller has
        not already closed them.
        """
        self._check_open()
        config = RunConfig() if config is None else config
        if config.backend not in (None, "service"):
            raise ValueError(
                f"serve() always builds the service backend; a config naming "
                f"backend={config.backend!r} cannot be honoured"
            )
        config = replace(config, backend="service")
        backend = self.backend("service")
        if not hasattr(backend, "open"):
            raise TypeError(
                f'the registered "service" backend {backend!r} does not '
                "provide open(); cannot build a persistent service"
            )
        service = backend.open(self, config, **service_kwargs)
        self._services.add(service)
        return service

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("Runtime is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def reset(self) -> None:
        """Drop every cache (compiled simulator, dtype casts) but stay open."""
        self._compiled_sim = None
        self._compiled_key = None
        self._dtype_networks = {}

    def close(self) -> None:
        """Close opened services and backends, drop caches, refuse new runs."""
        if self._closed:
            return
        self._closed = True
        for service in list(self._services):
            service.close()
        for backend in self._backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()
        self._backends = {}
        self.reset()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Runtime(model={type(self.model).__name__}, "
            f"backends={sorted(self._backends)}, {state})"
        )
