"""Backend registry: builtins, selection policy, third-party registration."""

import numpy as np
import pytest

from repro.core.t2fsnn import T2FSNN
from repro.runtime import (
    BACKEND_FACTORIES,
    Backend,
    RunConfig,
    available_backends,
    make_backend,
    register_backend,
    select_backend,
)


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == [
            "compiled",
            "parallel",
            "serial",
            "service",
        ]

    def test_make_backend(self):
        assert make_backend("serial").name == "serial"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("warp-drive")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("serial", lambda: None)

    def test_overwrite_allowed_and_restorable(self):
        original = BACKEND_FACTORIES["serial"]
        try:
            register_backend("serial", original, overwrite=True)
        finally:
            BACKEND_FACTORIES["serial"] = original

    def test_builtin_instances_satisfy_protocol(self):
        for name in available_backends():
            assert isinstance(make_backend(name), Backend)


class TestSelection:
    def test_default_is_serial(self):
        assert select_backend(RunConfig(), 100) == "serial"

    def test_compiled_flag_selects_compiled(self):
        assert select_backend(RunConfig(compiled=True), 100) == "compiled"

    def test_workers_select_parallel(self):
        assert select_backend(RunConfig(workers=2, batch_size=4), 100) == "parallel"

    def test_auto_on_single_core_stays_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert select_backend(RunConfig(workers="auto"), 1000) == "serial"

    def test_single_shard_never_pools(self):
        # 8 samples in one 64-sample shard: a pool would be pure overhead.
        assert select_backend(RunConfig(workers="auto"), 8) in ("serial",)

    def test_compiled_wins_when_parallel_resolves_serial(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        config = RunConfig(workers="auto", compiled=True)
        assert select_backend(config, 1000) == "compiled"

    def test_explicit_backend_wins(self):
        assert select_backend(RunConfig(backend="service"), 100) == "service"


class _RecordingBackend:
    """A minimal third-party backend: counts executions, echoes zeros."""

    name = "recording"

    def __init__(self):
        self.calls = 0

    def execute(self, runtime, config, x, y=None):
        from repro.snn.results import SimulationResult

        self.calls += 1
        scores = np.zeros((len(x), 3))
        return SimulationResult(
            scores=scores, predictions=scores.argmax(axis=1), accuracy=None
        )

    def close(self):
        pass


class TestThirdPartyRegistration:
    def test_registered_backend_is_routable(self, tiny_network, tiny_data):
        instance = _RecordingBackend()
        register_backend("recording", lambda: instance)
        try:
            model = T2FSNN(tiny_network, window=12)
            config = RunConfig(backend="recording")
            result = model.run(tiny_data[2][:5], config=config)
            assert instance.calls == 1
            assert result.scores.shape == (5, 3)
        finally:
            del BACKEND_FACTORIES["recording"]

    def test_config_validates_against_live_registry(self):
        register_backend("ephemeral", _RecordingBackend)
        try:
            RunConfig(backend="ephemeral")
        finally:
            del BACKEND_FACTORIES["ephemeral"]
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="ephemeral")
