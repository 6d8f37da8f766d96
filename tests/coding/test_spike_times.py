"""Closed-form TTFS spike offsets: the log-linear estimate + exact fix-up.

``_SpikeTimes.offsets`` replaces ``np.searchsorted(-W, -v)`` (clipped at
``dt_from``) in every TTFS spike-time computation — the firing schedule,
the bulk drains and the encoder — so it must agree with it bit for bit on
every table the coding scheme can build, including at the table entries
themselves, at their float neighbours and outside the table's range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.ttfs import _SpikeTimes
from repro.core.kernels import ExpKernel, KernelParams, default_kernel_params, tabulate_kernel

DTYPES = (np.float32, np.float64)


def expected(weights: np.ndarray, values: np.ndarray, dt_from: int) -> np.ndarray:
    return np.maximum(np.searchsorted(-weights, -values, side="left"), dt_from)


def boundary_values(weights: np.ndarray) -> np.ndarray:
    """Every table entry, its float neighbours, and values beyond both ends."""
    dtype = weights.dtype
    beyond = np.array(
        [
            0.0,
            -1.0,
            weights[-1] * 0.5,
            weights[0] * 2.0,
            np.inf,
            np.finfo(dtype).tiny,
            np.finfo(dtype).max,
        ],
        dtype=dtype,
    )
    return np.concatenate(
        (weights, np.nextafter(weights, np.inf), np.nextafter(weights, -np.inf), beyond)
    )


def check_against_searchsorted(times: _SpikeTimes, values: np.ndarray, dt_from: int) -> None:
    want = expected(times.weights, values, dt_from)
    np.testing.assert_array_equal(times.offsets(values, dt_from), want)
    # The scratch-buffer form (the compiled plan's dense drain) agrees too.
    out = np.empty(values.shape, dtype=np.intp)
    g = np.empty(values.shape, dtype=values.dtype)
    cmp = np.empty(values.shape, dtype=bool)
    got = times.offsets(values, dt_from, out=out, g=g, cmp=cmp)
    assert got is out
    np.testing.assert_array_equal(got, want)


def kernel_table(lut, tau, t_delay, theta0, window, dtype) -> np.ndarray:
    kernel = ExpKernel(KernelParams(tau, t_delay))
    with np.errstate(over="ignore"):  # huge float32 tables hold inf: the fallback
        return tabulate_kernel(kernel.to_lut(window) if lut else kernel, window, theta0, dtype)


kernel_tables = st.builds(
    kernel_table,
    lut=st.booleans(),
    tau=st.floats(0.05, 40.0),
    t_delay=st.floats(-8.0, 8.0),
    theta0=st.floats(0.1, 4.0),
    window=st.integers(2, 64),
    dtype=st.sampled_from(DTYPES),
)


class TestOffsetsMatchSearchsorted:
    @settings(max_examples=300, deadline=None)
    @given(weights=kernel_tables, data=st.data())
    def test_kernel_tables(self, weights, data):
        times = _SpikeTimes(weights)
        dt_from = data.draw(st.integers(0, len(weights)), label="dt_from")
        finite = np.finfo(weights.dtype).max
        lo, hi = (float(np.clip(b, -finite, finite)) for b in (weights[-1] * 0.5, weights[0] * 1.5))
        inside = data.draw(
            st.lists(st.floats(lo, hi, width=weights.dtype.itemsize * 8), max_size=32),
            label="values",
        )
        values = np.concatenate(
            (boundary_values(weights), np.asarray(inside, dtype=weights.dtype))
        )
        check_against_searchsorted(times, values, dt_from)

    @settings(max_examples=200, deadline=None)
    @given(weights=kernel_tables)
    def test_geometric_tables_take_the_closed_form(self, weights):
        """Every exponential table of normal, strictly decreasing floats is
        served by the estimate, not the searchsorted fallback."""
        normal = np.all(weights >= np.finfo(weights.dtype).tiny)
        if normal and np.all(np.diff(weights) < 0):
            assert _SpikeTimes(weights).closed_form

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "weights",
        [
            np.linspace(1.0, 0.05, 32),  # linear decay
            np.array([1.0, 0.9, 0.2, 0.19, 0.01]),  # uneven steps
            np.array([1.0, 0.5, 0.5, 0.25, 0.1]),  # a flat step
            np.array([0.7, 0.3, 0.0]),  # a zero entry
            np.array([0.5]),  # a single entry
        ],
    )
    def test_non_geometric_tables_fall_back(self, weights, dtype):
        weights = weights.astype(dtype)
        times = _SpikeTimes(weights)
        assert not times.closed_form
        for dt_from in range(len(weights) + 1):
            check_against_searchsorted(times, boundary_values(weights), dt_from)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("window", [2, 16, 32, 80])
    def test_default_kernel_takes_the_closed_form(self, window, dtype):
        weights = tabulate_kernel(ExpKernel(default_kernel_params(window)), window, 1.0, dtype)
        times = _SpikeTimes(weights)
        assert times.closed_form
        rng = np.random.default_rng(window)
        values = np.concatenate(
            (boundary_values(weights), rng.random(4096).astype(dtype) * 1.2 - 0.1)
        )
        for dt_from in (0, 1, window // 2, window - 1, window):
            check_against_searchsorted(times, values, dt_from)

    def test_values_of_another_dtype_use_searchsorted(self):
        weights = tabulate_kernel(ExpKernel(default_kernel_params(16)), 16, 1.0, np.float32)
        values = np.nextafter(weights.astype(np.float64), -np.inf)  # below in float64 only
        check_against_searchsorted(_SpikeTimes(weights), values, 0)
