"""Cross-backend parity: serial, compiled, parallel and service agree.

The acceptance bar for the runtime redesign: routing ``T2FSNN.run``
through the backend registry changes *where* inference executes, never
*what* it computes.  Predictions must be bit-identical across every
backend (and to the pre-refactor serial engine, whose code path the
serial backend calls unchanged); scores match to
floating-point-noise tolerance (service flushes may pad partial batches,
changing GEMM shapes).
"""

import numpy as np
import pytest

from repro.core.t2fsnn import T2FSNN
from repro.runtime import RunConfig

#: Non-serial configs, each resolving to a distinct registry backend.
BACKEND_CONFIGS = {
    "compiled": RunConfig(compiled=True, batch_size=4),
    "compiled-calibrated": RunConfig(compiled=True, batch_size=4),
    "parallel": RunConfig(workers=2, batch_size=4),
    "parallel-compiled": RunConfig(workers=2, batch_size=4, compiled=True),
    "service": RunConfig(backend="service", batch_size=4),
}

#: The model-level coding configurations (T2FSNN is the TTFS model; the
#: scheme-generic request path is pinned per scheme in tests/serve).
MODEL_VARIANTS = {
    "baseline": dict(early_firing=False),
    "early-firing": dict(early_firing=True),
}


@pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
@pytest.mark.parametrize("backend", sorted(BACKEND_CONFIGS))
def test_backend_matches_serial(tiny_network, tiny_data, variant, backend):
    x, y = tiny_data[2][:12], tiny_data[3][:12]
    model = T2FSNN(tiny_network, window=12, **MODEL_VARIANTS[variant])
    serial = model.run(x, y)  # the pre-refactor reference engine
    got = model.run(x, y, config=BACKEND_CONFIGS[backend])
    np.testing.assert_array_equal(got.predictions, serial.predictions)
    assert got.accuracy == pytest.approx(serial.accuracy)
    np.testing.assert_allclose(got.scores, serial.scores, rtol=1e-7, atol=1e-12)


def test_uncalibrated_compiled_scores_bit_identical(tiny_network, tiny_data):
    """Compiled runs keep the engine's bit-exactness contract:
    identical scores to the full-schedule (early_exit=False) reference."""
    from repro.snn.engine import Simulator

    x = tiny_data[2][:8]
    model = T2FSNN(tiny_network, window=12)
    reference = Simulator(tiny_network, model.coding(), early_exit=False).run(x)
    compiled = model.run(
        x, config=RunConfig(compiled=True, batch_size=8)
    )
    np.testing.assert_array_equal(compiled.scores, reference.scores)


def test_parallel_spike_counts_match_serial(tiny_network, tiny_data):
    x, y = tiny_data[2][:16], tiny_data[3][:16]
    model = T2FSNN(tiny_network, window=12)
    serial = model.run(x, y, config=RunConfig(batch_size=4))
    parallel = model.run(x, y, config=RunConfig(batch_size=4, workers=2))
    assert parallel.spike_counts == pytest.approx(serial.spike_counts)
