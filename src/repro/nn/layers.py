"""Core layers of the numpy DNN framework.

Every layer implements explicit ``forward``/``backward`` passes (manual
backprop, no autograd) and exposes its learnable arrays as :class:`Parameter`
objects so optimizers can update them in place.

Design notes relevant to the SNN conversion downstream:

* ``Conv2D`` and ``Dense`` are *purely linear* — nonlinearities live in
  separate activation layers — so the converter can reuse their ``forward``
  verbatim as the synaptic-current operator of a spiking layer.
* ``AvgPool2D`` is linear as well and is applied directly to spike trains.
* ``MaxPool2D`` exists for completeness/training, but converted architectures
  use average pooling (see docs/DESIGN.md §6).
* every layer exposes :meth:`Layer.infer`, an inference-only fast path that
  never touches the backprop caches, performs in-place bias adds, and
  preserves reduced-precision inputs (float32 in gives float32 out when the
  layer's parameters are float32) — the path the SNN simulator's per-step
  propagation runs on (docs/DESIGN.md §7).
"""

from __future__ import annotations

import numpy as np

from repro.nn import initializers
from repro.nn.im2col import col2im, conv_output_size, im2col, im2col_flat_indices
from repro.utils.rng import as_generator

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv2D",
    "AvgPool2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
]


class Parameter:
    """A learnable array with its gradient accumulator.

    Attributes
    ----------
    data:
        The parameter value; optimizers mutate it in place.
    grad:
        Gradient of the loss w.r.t. ``data``; zeroed by ``zero_grad``.
    name:
        Qualified name used by serialization (e.g. ``"0.weight"``).
    """

    def __init__(self, data: np.ndarray, name: str = "param"):
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Layer:
    """Base class for all layers.

    Subclasses override :meth:`forward` and :meth:`backward`, and list their
    parameters in :meth:`params`.  ``backward`` must be called after the
    matching ``forward`` (layers cache whatever they need in between).
    """

    #: True for layers whose forward pass is a linear map of the input
    #: (used by the DNN->SNN converter).
    linear = False

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward pass: no backprop caches, no training state.

        Subclasses override this with an allocation-lean implementation; the
        default simply delegates to :meth:`forward` with ``training=False``.
        """
        return self.forward(x, training=False)

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        """:meth:`infer` through a workspace arena (zero steady-state allocs).

        ``ws`` is duck-typed with ``buffer(key, shape, dtype) -> ndarray``
        returning persistent preallocated storage and ``cache(key, factory)``
        memoizing compile-time constants (the SNN plan's
        :class:`~repro.snn.plan.Workspace`); ``key`` namespaces this layer's
        buffers within it.  Results are bit-identical to :meth:`infer` — the
        heavy layers override this to run im2col and GEMM into arena buffers
        and may return views into them, valid until the layer's next
        ``infer_ws`` call on the same workspace.  The default ignores the
        workspace.
        """
        return self.infer(x)

    def params(self) -> list[Parameter]:
        """Learnable parameters of this layer (empty by default)."""
        return []

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape (without batch dim) this layer produces for ``input_shape``."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    use_bias:
        Whether to learn an additive bias.
    rng:
        Seed or generator for weight init.
    """

    linear = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        rng=None,
        dtype=np.float64,
    ):
        if in_features < 1 or out_features < 1:
            raise ValueError(
                f"features must be positive, got {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.use_bias = use_bias
        rng = as_generator(rng)
        self.weight = Parameter(
            initializers.he_normal((in_features, out_features), in_features, rng, dtype),
            name="weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_features,), dtype), name="bias")
            if use_bias
            else None
        )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (N, {self.in_features}), got {x.shape}"
            )
        if training:
            self._x = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data  # matmul output is fresh: in-place is safe
        return out

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        out = ws.buffer(
            (key, "dense"), (x.shape[0], self.out_features), self.weight.data.dtype
        )
        np.matmul(x, self.weight.data, out=out)
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward(training=True)")
        self.weight.grad += self._x.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.data.T

    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features} -> {self.out_features}, bias={self.use_bias})"


class Conv2D(Layer):
    """2-D convolution on NCHW arrays via im2col.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel side (int) or ``(kh, kw)``.
    stride, pad:
        Stride and symmetric zero padding.
    use_bias:
        Whether to learn a per-output-channel bias.  Converted SNN
        architectures default to bias-free convolutions; the converter also
        supports biases (applied once per integration phase for TTFS, per
        step for rate coding).
    """

    linear = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        pad: int = 0,
        use_bias: bool = False,
        rng=None,
        dtype=np.float64,
    ):
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h, self.kernel_w = kernel_size
        self.stride = stride
        self.pad = pad
        self.use_bias = use_bias
        fan_in = in_channels * self.kernel_h * self.kernel_w
        rng = as_generator(rng)
        self.weight = Parameter(
            initializers.he_normal(
                (out_channels, in_channels, self.kernel_h, self.kernel_w),
                fan_in,
                rng,
                dtype,
            ),
            name="weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_channels,), dtype), name="bias")
            if use_bias
            else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        cols = im2col(x, self.kernel_h, self.kernel_w, self.stride, self.pad)
        if training:
            self._cols = cols
            self._x_shape = x.shape
        return self._apply(x.shape, cols)

    def infer(self, x: np.ndarray) -> np.ndarray:
        cols = im2col(x, self.kernel_h, self.kernel_w, self.stride, self.pad)
        n, k, length = cols.shape
        out_h = conv_output_size(x.shape[2], self.kernel_h, self.stride, self.pad)
        out_w = conv_output_size(x.shape[3], self.kernel_w, self.stride, self.pad)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        # One large GEMM over the whole batch instead of einsum's batched
        # matmul — measurably faster for the SNN engine's flush-sized batches
        # (the training path keeps einsum so backward caches stay aligned).
        big = cols.transpose(1, 0, 2).reshape(k, n * length)
        out = (w_mat @ big).reshape(self.out_channels, n, out_h, out_w)
        out = out.transpose(1, 0, 2, 3)  # view; consumers only accumulate
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        return out

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        """Arena :meth:`infer`: one gather straight into the GEMM operand.

        The im2col unroll lands directly in ``(C*KH*KW, N*L)`` layout via a
        cached absolute-index table (the batched gather indices of every
        receptive-field element), skipping the transpose copy the plain
        :meth:`infer` pays; the GEMM writes into a persistent arena buffer.
        The gather uses ``mode="clip"`` — indices are in-bounds by
        construction, and skipping numpy's per-element bounds check makes
        the gather ~2.5x faster.  Bit-identical to :meth:`infer` — same
        gathered values, same BLAS call.  The sparse event kernel
        (``repro.snn.events``) reuses this key's ``"big"`` and ``"gemm"``
        buffers for its accumulator and drive.
        """
        n, c, h, w = x.shape
        kh, kw, stride, pad = self.kernel_h, self.kernel_w, self.stride, self.pad
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)
        f = self.out_channels
        k = c * kh * kw
        length = out_h * out_w
        dtype = self.weight.data.dtype
        if pad > 0:
            # Created zeroed; only the interior is rewritten, so the border
            # stays zero across reuses (per-sample layout is key-stable).
            padded = ws.buffer(
                (key, "pad"), (n, c, h + 2 * pad, w + 2 * pad), dtype, zeroed=True
            )
            padded[:, :, pad:-pad, pad:-pad] = x
            src = padded
        else:
            src = x if x.flags.c_contiguous else np.ascontiguousarray(x)
        flat_idx = im2col_flat_indices(c, h, w, kh, kw, stride, pad)
        sample = c * (h + 2 * pad) * (w + 2 * pad)

        def build_indices():
            offs = np.arange(n, dtype=np.int64) * sample
            return (
                offs[None, :, None] + flat_idx.reshape(k, 1, length)
            ).reshape(k, n * length)

        # One capacity-sized table per stage: columns are sample-major, so a
        # smaller batch is exactly the leading-column slice — retirement and
        # ragged batches never cache additional tables.
        idx = ws.cache((key, "gather"), build_indices)
        if idx.shape[1] < n * length:
            idx = ws.cache_put((key, "gather"), build_indices())
        elif idx.shape[1] > n * length:
            idx = idx[:, : n * length]
        big = ws.buffer((key, "big"), (k, n * length), dtype)
        np.take(src.reshape(-1), idx, out=big, mode="clip")
        gout = ws.buffer((key, "gemm"), (f, n * length), dtype)
        w_mat = self.weight.data.reshape(f, -1)
        np.matmul(w_mat, big, out=gout)
        out = gout.reshape(f, n, out_h, out_w).transpose(1, 0, 2, 3)
        if self.bias is not None:
            out = out + self.bias.data.reshape(1, -1, 1, 1)
        return out

    def _apply(
        self, x_shape: tuple[int, ...], cols: np.ndarray
    ) -> np.ndarray:
        n, _, h, w = x_shape
        out_h = conv_output_size(h, self.kernel_h, self.stride, self.pad)
        out_w = conv_output_size(w, self.kernel_w, self.stride, self.pad)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = np.einsum("fk,nkl->nfl", w_mat, cols, optimize=True)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        if self.bias is not None:
            out += self.bias.data.reshape(1, -1, 1, 1)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, f, out_h, out_w = grad.shape
        grad_mat = grad.reshape(n, f, out_h * out_w)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += np.einsum(
            "nfl,nkl->fk", grad_mat, self._cols, optimize=True
        ).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=(0, 2, 3))
        dcols = np.einsum("fk,nfl->nkl", w_mat, grad_mat, optimize=True)
        return col2im(
            dcols, self._x_shape, self.kernel_h, self.kernel_w, self.stride, self.pad
        )

    def params(self) -> list[Parameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        return (
            self.out_channels,
            conv_output_size(h, self.kernel_h, self.stride, self.pad),
            conv_output_size(w, self.kernel_w, self.stride, self.pad),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_h}x{self.kernel_w}, s={self.stride}, p={self.pad}, "
            f"bias={self.use_bias})"
        )


class AvgPool2D(Layer):
    """Average pooling with a square window.

    Linear, parameter-free, and safe to apply directly to spike trains
    (average of weighted spikes equals the weighted average value).
    """

    linear = True

    def __init__(self, size: int = 2, stride: int | None = None):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        out_h = conv_output_size(h, self.size, self.stride, 0)
        out_w = conv_output_size(w, self.size, self.stride, 0)
        if training:
            self._x_shape = x.shape
        if self.stride == self.size and h % self.size == 0 and w % self.size == 0:
            # Fast non-overlapping path: reshape-mean.
            return x.reshape(n, c, out_h, self.size, out_w, self.size).mean(axis=(3, 5))
        cols = im2col(
            x.reshape(n * c, 1, h, w), self.size, self.size, self.stride, 0
        )
        return cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        n, c, h, w = x.shape
        if not (self.stride == self.size and h % self.size == 0 and w % self.size == 0):
            return self.infer(x)  # ragged/overlapping pools are rare; stay simple
        out_h, out_w = h // self.size, w // self.size
        out = ws.buffer((key, "pool"), (n, c, out_h, out_w), x.dtype)
        x.reshape(n, c, out_h, self.size, out_w, self.size).mean(axis=(3, 5), out=out)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._x_shape
        scale = 1.0 / (self.size * self.size)
        if self.stride == self.size and h % self.size == 0 and w % self.size == 0:
            up = np.repeat(np.repeat(grad, self.size, axis=2), self.size, axis=3)
            return up * scale
        out_h, out_w = grad.shape[2], grad.shape[3]
        cols = np.broadcast_to(
            grad.reshape(n * c, 1, out_h * out_w) * scale,
            (n * c, self.size * self.size, out_h * out_w),
        )
        dx = col2im(cols, (n * c, 1, h, w), self.size, self.size, self.stride, 0)
        return dx.reshape(n, c, h, w)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        return (
            c,
            conv_output_size(h, self.size, self.stride, 0),
            conv_output_size(w, self.size, self.stride, 0),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AvgPool2D(size={self.size}, stride={self.stride})"


class MaxPool2D(Layer):
    """Max pooling (training-side only; conversion replaces it with average
    pooling, or with the temporal earliest-spike-wins pool for TTFS)."""

    def __init__(self, size: int = 2, stride: int | None = None):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.stride = stride if stride is not None else size
        self._mask: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        out_h = conv_output_size(h, self.size, self.stride, 0)
        out_w = conv_output_size(w, self.size, self.stride, 0)
        cols = im2col(x.reshape(n * c, 1, h, w), self.size, self.size, self.stride, 0)
        arg = cols.argmax(axis=1)
        out = np.take_along_axis(cols, arg[:, None, :], axis=1).squeeze(1)
        if training:
            self._x_shape = x.shape
            mask = np.zeros_like(cols)
            np.put_along_axis(mask, arg[:, None, :], 1.0, axis=1)
            self._mask = mask
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None or self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, h, w = self._x_shape
        cols = self._mask * grad.reshape(n * c, 1, -1)
        dx = col2im(cols, (n * c, 1, h, w), self.size, self.size, self.stride, 0)
        return dx.reshape(n, c, h, w)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        return (
            c,
            conv_output_size(h, self.size, self.stride, 0),
            conv_output_size(w, self.size, self.stride, 0),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool2D(size={self.size}, stride={self.stride})"


class Flatten(Layer):
    """Collapse (N, C, H, W) -> (N, C*H*W)."""

    linear = True

    def __init__(self):
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward(training=True)")
        return grad.reshape(self._x_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    Dropout is a training-only regulariser and is stripped by the converter.
    """

    def __init__(self, rate: float, rng=None):
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = rate
        self._rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout(rate={self.rate})"
