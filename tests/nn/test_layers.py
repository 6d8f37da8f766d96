"""Layer forward/backward correctness, including numerical gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.activations import ReLU
from repro.nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Parameter,
)
from repro.snn.plan import Workspace

DTYPES = (np.float32, np.float64)
LAYOUTS = ("c", "hw", "nhwc")


def laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """``x``'s values as a C-contiguous array (``"c"``) or a transposed,
    non-contiguous view: H/W swapped in memory, or channels last."""
    if layout == "hw":
        return np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    if layout == "nhwc":
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    return x


def spiky(rng, shape, dtype) -> np.ndarray:
    """Values spread over many binades, so any change of summation order
    shows up in the last bits."""
    return (rng.normal(size=shape) * rng.exponential(size=shape) ** 3).astype(dtype)


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = fn()
        x[idx] = orig - eps
        f_minus = fn()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_input_gradient(layer, x, atol=1e-6):
    """Analytic dL/dx against numerical for L = sum(forward(x)^2)/2."""
    out = layer.forward(x, training=True)
    analytic = layer.backward(out.copy())
    numeric = numerical_gradient(
        lambda: 0.5 * float((layer.forward(x, training=False) ** 2).sum()), x
    )
    np.testing.assert_allclose(analytic, numeric, atol=atol)


def check_param_gradient(layer, x, param, atol=1e-6):
    """Analytic dL/dparam against numerical for L = sum(forward(x)^2)/2."""
    param.zero_grad()
    out = layer.forward(x, training=True)
    layer.backward(out.copy())
    analytic = param.grad.copy()
    numeric = numerical_gradient(
        lambda: 0.5 * float((layer.forward(x, training=False) ** 2).sum()),
        param.data,
    )
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestParameter:
    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad += 2.0
        p.zero_grad()
        np.testing.assert_array_equal(p.grad, np.zeros(3))

    def test_shape(self):
        assert Parameter(np.ones((2, 3))).shape == (2, 3)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 6, rng=rng)
        assert layer.forward(rng.normal(size=(5, 4))).shape == (5, 6)

    def test_forward_values(self):
        layer = Dense(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(out, [[4.5, 5.5]])

    def test_no_bias(self, rng):
        layer = Dense(3, 2, use_bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.params()) == 1

    def test_rejects_bad_shape(self, rng):
        layer = Dense(3, 2, rng=rng)
        with pytest.raises(ValueError, match="expects"):
            layer.forward(rng.normal(size=(5, 4)))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Dense(0, 2)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Dense(3, 2, rng=rng).backward(np.zeros((1, 2)))

    def test_input_gradient(self, rng):
        layer = Dense(4, 3, rng=rng)
        check_input_gradient(layer, rng.normal(size=(3, 4)))

    def test_weight_gradient(self, rng):
        layer = Dense(4, 3, rng=rng)
        check_param_gradient(layer, rng.normal(size=(3, 4)), layer.weight)

    def test_bias_gradient(self, rng):
        layer = Dense(4, 3, rng=rng)
        check_param_gradient(layer, rng.normal(size=(3, 4)), layer.bias)

    def test_gradients_accumulate(self, rng):
        layer = Dense(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        out = layer.forward(x, training=True)
        layer.backward(out)
        g1 = layer.weight.grad.copy()
        layer.forward(x, training=True)
        layer.backward(out)
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)


class TestConv2D:
    def test_forward_shape(self, rng):
        layer = Conv2D(3, 5, 3, pad=1, rng=rng)
        assert layer.forward(rng.normal(size=(2, 3, 8, 8))).shape == (2, 5, 8, 8)

    def test_forward_shape_strided(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, pad=1, rng=rng)
        assert layer.forward(rng.normal(size=(1, 1, 8, 8))).shape == (1, 2, 4, 4)

    def test_rectangular_kernel(self, rng):
        layer = Conv2D(1, 2, (1, 3), pad=0, rng=rng)
        assert layer.forward(rng.normal(size=(1, 1, 5, 5))).shape == (1, 2, 5, 3)

    def test_identity_kernel(self):
        layer = Conv2D(1, 1, 1, rng=0)
        layer.weight.data = np.ones((1, 1, 1, 1))
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(layer.forward(x), x)

    def test_bias_broadcast(self, rng):
        layer = Conv2D(1, 2, 3, pad=1, use_bias=True, rng=rng)
        layer.weight.data[...] = 0.0
        layer.bias.data = np.array([1.0, -2.0])
        out = layer.forward(np.zeros((1, 1, 4, 4)))
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_rejects_bad_channels(self, rng):
        layer = Conv2D(3, 2, 3, rng=rng)
        with pytest.raises(ValueError, match="expects"):
            layer.forward(rng.normal(size=(1, 2, 8, 8)))

    def test_input_gradient(self, rng):
        layer = Conv2D(2, 3, 3, pad=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(2, 2, 5, 5)))

    def test_input_gradient_strided(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, pad=1, rng=rng)
        check_input_gradient(layer, rng.normal(size=(1, 1, 6, 6)))

    def test_weight_gradient(self, rng):
        layer = Conv2D(2, 2, 3, pad=1, rng=rng)
        check_param_gradient(layer, rng.normal(size=(2, 2, 4, 4)), layer.weight)

    def test_bias_gradient(self, rng):
        layer = Conv2D(1, 2, 3, pad=1, use_bias=True, rng=rng)
        check_param_gradient(layer, rng.normal(size=(2, 1, 4, 4)), layer.bias)

    def test_output_shape_helper(self, rng):
        layer = Conv2D(3, 7, 3, stride=1, pad=1, rng=rng)
        assert layer.output_shape((3, 16, 16)) == (7, 16, 16)


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, 2))
    return {
        "channels": draw(st.integers(1, 4)),
        "filters": draw(st.integers(1, 5)),
        "kernel": (kh, kw),
        "stride": draw(st.integers(1, 3)),
        "pad": pad,
        "height": draw(st.integers(max(kh - 2 * pad, 1), 9)),
        "width": draw(st.integers(max(kw - 2 * pad, 1), 9)),
        "bias": draw(st.booleans()),
        "dtype": draw(st.sampled_from(DTYPES)),
        "layout": draw(st.sampled_from(LAYOUTS)),
        # One workspace serves every batch: it grows and shrinks.
        "batches": draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestConvInference:
    """``Conv2D.infer`` runs one windowed per-sample GEMM, into fresh arrays
    or an arena."""

    @settings(max_examples=150, deadline=None)
    @given(case=conv_cases())
    def test_arena_matches_fresh_bit_for_bit(self, case):
        rng = np.random.default_rng(case["seed"])
        dtype = case["dtype"]
        layer = Conv2D(
            case["channels"],
            case["filters"],
            case["kernel"],
            stride=case["stride"],
            pad=case["pad"],
            use_bias=case["bias"],
            rng=rng,
            dtype=dtype,
        )
        if case["bias"]:
            layer.bias.data[...] = rng.normal(size=case["filters"])
        ws = Workspace()
        tol = 1e-4 if dtype == np.float32 else 1e-10
        for n in case["batches"]:
            shape = (n, case["channels"], case["height"], case["width"])
            x = laid_out(spiky(rng, shape, dtype), case["layout"])
            want = layer.infer(x)
            got = layer.infer(x, ws, (0, 0))
            assert got.dtype == want.dtype == dtype
            assert got.flags.c_contiguous and want.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
            scale = np.abs(want).max(initial=1.0)
            np.testing.assert_allclose(
                want / scale, layer.forward(np.ascontiguousarray(x)) / scale, rtol=tol, atol=tol
            )
        # The im2col scratch is one sample's (C*KH*KW, L) block at any batch.
        _, out_h, out_w = layer.output_shape((case["channels"], case["height"], case["width"]))
        block = case["channels"] * layer.kernel_h * layer.kernel_w * out_h * out_w
        assert ws.nbytes(((0, 0), "im2col")) == block * np.dtype(dtype).itemsize

    def test_mixed_dtypes_promote(self, rng):
        layer = Conv2D(2, 3, 3, pad=1, rng=rng, dtype=np.float32)
        x = rng.normal(size=(2, 2, 5, 5))
        want = layer.infer(x)
        assert want.dtype == np.float64
        np.testing.assert_array_equal(layer.infer(x, Workspace(), (0, 0)), want)


class TestAvgPool2D:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_linear_in_input(self, rng):
        pool = AvgPool2D(2)
        a = rng.normal(size=(1, 2, 4, 4))
        b = rng.normal(size=(1, 2, 4, 4))
        np.testing.assert_allclose(
            pool.forward(a + 2 * b), pool.forward(a) + 2 * pool.forward(b)
        )

    def test_input_gradient(self, rng):
        check_input_gradient(AvgPool2D(2), rng.normal(size=(2, 2, 4, 4)))

    def test_input_gradient_overlapping(self, rng):
        check_input_gradient(AvgPool2D(2, stride=1), rng.normal(size=(1, 1, 4, 4)))

    def test_output_shape_helper(self):
        assert AvgPool2D(2).output_shape((3, 8, 8)) == (3, 4, 4)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            AvgPool2D(0)


def pairwise_reference(x: np.ndarray) -> np.ndarray:
    """``((x00 + x01) + (x10 + x11)) * 0.25`` per 2x2 window, elementwise."""
    n, c, h, w = x.shape
    v = np.ascontiguousarray(x).reshape(n, c, h // 2, 2, w // 2, 2)
    top = v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1]
    bottom = v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1]
    return (top + bottom) * 0.25


class TestPoolInference:
    """2x2 pools sum pairwise, the same arithmetic whatever the strides."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 9),
        c=st.integers(1, 6),
        out_h=st.integers(1, 9),
        out_w=st.integers(1, 9),
        dtype=st.sampled_from(DTYPES),
        layout=st.sampled_from(LAYOUTS),
        seed=st.integers(0, 2**16),
    )
    def test_pairwise_sum_is_the_mean(self, n, c, out_h, out_w, dtype, layout, seed):
        rng = np.random.default_rng(seed)
        contiguous = spiky(rng, (n, c, 2 * out_h, 2 * out_w), dtype)
        x = laid_out(contiguous, layout)
        pool = AvgPool2D(2)
        got = pool.infer(x)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, pairwise_reference(contiguous))
        np.testing.assert_array_equal(pool.infer(x, Workspace(), (0, 0)), got)
        mean = contiguous.reshape(n, c, out_h, 2, out_w, 2).mean(axis=(3, 5))
        if out_w > 1:
            np.testing.assert_array_equal(got, mean)
        else:
            # A one-column output lets numpy coalesce each window into one
            # contiguous run of four, which it sums left to right.
            # Either order is within an ulp of each window's magnitude.
            bound = 2 * np.finfo(dtype).eps * pairwise_reference(np.abs(contiguous))
            assert (np.abs(got - mean) <= bound).all()

    @pytest.mark.parametrize("size, stride, hw", [(3, 3, 9), (2, 1, 6), (2, 2, 5), (3, 2, 7)])
    def test_other_pools_keep_forward(self, rng, size, stride, hw):
        pool = AvgPool2D(size, stride)
        x = rng.normal(size=(2, 3, hw, hw))
        want = pool.forward(x)
        np.testing.assert_array_equal(pool.infer(x), want)
        np.testing.assert_array_equal(pool.infer(x, Workspace(), (0, 0)), want)


class TestMaxPool2D:
    def test_forward_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2D(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_input_gradient(self, rng):
        # Unique values so the argmax is unambiguous (kink-free point).
        x = rng.permutation(32).astype(np.float64).reshape(2, 1, 4, 4)
        check_input_gradient(MaxPool2D(2), x)

    def test_gradient_routes_to_max(self):
        layer = MaxPool2D(2)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        layer.forward(x, training=True)
        dx = layer.backward(np.array([[[[5.0]]]]))
        np.testing.assert_allclose(dx, [[[[0.0, 0.0], [0.0, 5.0]]]])


class TestFlatten:
    def test_shapes(self, rng):
        x = rng.normal(size=(3, 2, 4, 4))
        layer = Flatten()
        out = layer.forward(x, training=True)
        assert out.shape == (3, 32)
        assert layer.backward(out).shape == x.shape

    def test_gradient_is_reshape(self, rng):
        layer = Flatten()
        x = rng.normal(size=(2, 1, 2, 2))
        layer.forward(x, training=True)
        g = rng.normal(size=(2, 4))
        np.testing.assert_allclose(layer.backward(g), g.reshape(2, 1, 2, 2))


class TestDropout:
    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5, rng=0)
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_preserves_expectation(self):
        layer = Dropout(0.3, rng=0)
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_rate_is_identity(self, rng):
        layer = Dropout(0.0)
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(layer.forward(x, training=True), x)

    def test_mask_applied_in_backward(self):
        layer = Dropout(0.5, rng=0)
        x = np.ones((8, 8))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestReLUGradient:
    def test_input_gradient(self, rng):
        # Shift away from 0 to avoid the kink in the numerical check.
        x = rng.normal(size=(3, 4))
        x[np.abs(x) < 0.1] += 0.2
        check_input_gradient(ReLU(), x)

    def test_forward_clamps(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])
