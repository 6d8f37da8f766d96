"""RunConfig: every illegal combination fails eagerly with a clear message."""

import dataclasses

import numpy as np
import pytest

from repro.runtime import DEFAULT_BATCH_SIZE, RunConfig


class TestDefaults:
    def test_default_config_is_serial(self):
        config = RunConfig()
        assert config.batch_size is None
        assert config.workers == 1
        assert not config.compiled
        assert config.calibrate
        assert config.steps is None
        assert config.monitors == ()
        assert config.dtype is None
        assert config.backend is None
        assert not config.parallel_requested

    def test_resolved_batch_size(self):
        assert RunConfig().resolved_batch_size == DEFAULT_BATCH_SIZE
        assert RunConfig(batch_size=7).resolved_batch_size == 7

    def test_monitors_normalized_to_tuple(self):
        config = RunConfig(monitors=["a", "b"])
        assert config.monitors == ("a", "b")

    def test_hashable_and_replaceable(self):
        config = RunConfig(batch_size=4)
        assert hash(config) == hash(RunConfig(batch_size=4))
        derived = dataclasses.replace(config, compiled=True)
        assert derived.compiled and derived.batch_size == 4

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunConfig().batch_size = 3

    def test_numpy_ints_normalized(self):
        config = RunConfig(batch_size=np.int64(8), workers=np.int64(2))
        assert config.batch_size == 8 and isinstance(config.batch_size, int)
        assert config.workers == 2 and isinstance(config.workers, int)


class TestBatchSize:
    @pytest.mark.parametrize("bad", [0, -1, -64])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            RunConfig(batch_size=bad)

    @pytest.mark.parametrize("bad", [True, False, 2.5, "16"])
    def test_non_int_rejected(self, bad):
        with pytest.raises(ValueError, match="batch_size"):
            RunConfig(batch_size=bad)


class TestWorkers:
    def test_bool_rejected(self):
        with pytest.raises(ValueError, match="bool"):
            RunConfig(workers=True)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            RunConfig(workers=bad)

    @pytest.mark.parametrize("bad", ["many", "AUTO", 1.5])
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=bad)

    def test_auto_accepted(self):
        assert RunConfig(workers="auto").parallel_requested


class TestIllegalCombinations:
    @pytest.mark.parametrize("workers", [2, "auto"])
    def test_monitors_with_parallel_workers(self, workers):
        with pytest.raises(ValueError, match="monitors.*workers"):
            RunConfig(monitors=(object(),), workers=workers)

    def test_monitors_with_serial_workers_fine(self):
        RunConfig(monitors=(object(),), workers=1)

    def test_serial_backend_contradicts_compiled(self):
        with pytest.raises(ValueError, match="serial.*compiled"):
            RunConfig(backend="serial", compiled=True)

    def test_parallel_backend_needs_workers(self):
        with pytest.raises(ValueError, match="parallel.*workers"):
            RunConfig(backend="parallel", workers=1)

    def test_service_backend_rejects_monitors(self):
        with pytest.raises(ValueError, match="monitors"):
            RunConfig(backend="service", monitors=(object(),))

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="warp-drive")

    def test_service_backend_rejects_dtype(self):
        """No silent flags: the service serves the network's own dtype."""
        with pytest.raises(ValueError, match="dtype"):
            RunConfig(backend="service", dtype=np.float32)

    @pytest.mark.parametrize("backend", ["serial", "compiled", "parallel"])
    def test_batch_backends_reject_deadline(self, backend):
        """Deadlines only mean something to the service: batch backends
        run to completion and would silently ignore the bound."""
        workers = 2 if backend == "parallel" else 1
        compiled = backend == "compiled"
        with pytest.raises(ValueError, match="deadline_ms.*service"):
            RunConfig(
                backend=backend,
                workers=workers,
                compiled=compiled,
                deadline_ms=50,
            )


class TestDeadline:
    def test_default_is_none(self):
        assert RunConfig().deadline_ms is None

    def test_normalized_to_float(self):
        assert RunConfig(deadline_ms=50).deadline_ms == 50.0
        assert isinstance(RunConfig(deadline_ms=np.int64(50)).deadline_ms, float)

    @pytest.mark.parametrize("bad", [0, -1, True, False, "50", float("nan")])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError, match="deadline_ms"):
            RunConfig(deadline_ms=bad)

    def test_service_backend_accepts_deadline(self):
        config = RunConfig(backend="service", deadline_ms=25.5)
        assert config.deadline_ms == 25.5


class TestBudget:
    def test_defaults_are_none(self):
        config = RunConfig()
        assert config.budget_ms is None
        assert config.min_confidence is None

    def test_normalized_to_float(self):
        config = RunConfig(budget_ms=np.int64(50), min_confidence=1)
        assert config.budget_ms == 50.0 and isinstance(config.budget_ms, float)
        assert config.min_confidence == 1.0

    @pytest.mark.parametrize("field", ["budget_ms", "min_confidence"])
    @pytest.mark.parametrize(
        "bad", [0, -1, True, False, "50", float("nan"), float("inf")]
    )
    def test_invalid_values_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: bad})

    def test_budget_keeps_batch_selection(self):
        """A budget is an option of a run, not a backend of its own."""
        from repro.runtime import select_backend

        assert select_backend(RunConfig(budget_ms=50.0), 100) == "serial"
        assert select_backend(RunConfig(min_confidence=0.3), 100) == "serial"
        config = RunConfig(compiled=True, budget_ms=50.0)
        assert select_backend(config, 100) == "compiled"

    def test_budget_with_deadline_is_not_anytime(self):
        """deadline_ms + budget_ms is the *served* combination: selection
        falls through so Runtime.run raises its clearer deadline error
        instead of silently running an anytime batch."""
        from repro.runtime import select_backend

        config = RunConfig(budget_ms=50.0, deadline_ms=25.0)
        assert select_backend(config, 100) != "anytime"

    def test_budget_contradicts_parallel_workers(self):
        with pytest.raises(ValueError, match="budget_ms/min_confidence"):
            RunConfig(budget_ms=50.0, workers=4)

    @pytest.mark.parametrize("backend", ["serial", "compiled"])
    def test_batch_backends_accept_budget(self, backend):
        config = RunConfig(
            backend=backend, compiled=backend == "compiled", budget_ms=10
        )
        assert config.budget_ms == 10.0

    def test_anytime_is_not_a_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'anytime'"):
            RunConfig(backend="anytime", budget_ms=10)

    def test_budgeted_batch_backend_rejects_deadline(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            RunConfig(backend="serial", budget_ms=10, deadline_ms=10)

    def test_service_backend_rejects_min_confidence(self):
        with pytest.raises(ValueError, match="min_confidence"):
            RunConfig(backend="service", min_confidence=0.3)

    def test_service_backend_accepts_budget(self):
        assert RunConfig(backend="service", budget_ms=25.0).budget_ms == 25.0


class TestOtherFields:
    @pytest.mark.parametrize("flag", ["compiled", "calibrate"])
    def test_flags_must_be_bool(self, flag):
        with pytest.raises(ValueError, match=f"{flag} must be a bool"):
            RunConfig(**{flag: "yes"})

    @pytest.mark.parametrize("bad", [0, -5, True, 1.5])
    def test_bad_steps_rejected(self, bad):
        with pytest.raises(ValueError, match="steps"):
            RunConfig(steps=bad)

    def test_dtype_normalized(self):
        assert RunConfig(dtype="float32").dtype == np.dtype(np.float32)
        assert RunConfig(dtype=np.float64).dtype == np.dtype(np.float64)

    @pytest.mark.parametrize("bad", [np.int32, "int8", complex])
    def test_non_float_dtype_rejected(self, bad):
        with pytest.raises(ValueError, match="dtype must be float32 or float64"):
            RunConfig(dtype=bad)
