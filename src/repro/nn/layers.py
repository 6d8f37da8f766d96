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
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import initializers
from repro.nn.im2col import col2im, conv_output_size, im2col
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

        ``ws`` is duck-typed with ``buffer(key, shape, dtype, zeroed=False)
        -> ndarray`` returning persistent preallocated storage (the SNN
        plan's :class:`~repro.snn.plan.Workspace`); ``key`` namespaces this
        layer's buffers within it.  Results are bit-identical to
        :meth:`infer` — the heavy layers override this to run the same
        kernel with its scratch and output in arena buffers, and may return
        views into them, valid until the layer's next ``infer_ws`` call on
        the same workspace.  The default ignores the workspace.
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
        """The windowed per-sample GEMM of :meth:`infer_ws`, into fresh buffers."""
        block, padded, out, dtype = self._infer_shapes(x)
        return self._infer_into(
            x,
            np.empty(block, dtype),
            None if padded is None else np.zeros(padded, dtype),
            np.empty(out, dtype),
        )

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        """Arena :meth:`infer`: the same kernel, scratch and output from ``ws``.

        Per sample, the receptive fields are copied from a read-only
        sliding-window view of the (padded) sample into a one-sample
        ``(C*KH*KW, L)`` im2col block, and one ``np.matmul`` writes
        ``W @ block`` straight into that sample's slice of a C-contiguous
        ``(N, F, H, W)`` drive.  The scratch is one sample — cache-sized —
        at any batch.  Bit-identical to
        :meth:`infer` by construction: both run the same copies and the
        same BLAS calls.  The sparse event kernel (``repro.snn.events``)
        writes its drive into this key's ``"gemm"`` buffer, in the same
        layout.
        """
        block, padded, out, dtype = self._infer_shapes(x)
        return self._infer_into(
            x,
            ws.buffer((key, "im2col"), block, dtype),
            # Zeroed once; only the interior is rewritten, so the border
            # stays zero across samples and calls.
            None if padded is None else ws.buffer((key, "pad"), padded, dtype, zeroed=True),
            ws.buffer((key, "gemm"), out, dtype),
        )

    def _infer_shapes(self, x: np.ndarray):
        """Shapes of the im2col block, the padded sample (``None`` without
        padding) and the output, and the compute dtype."""
        n, c, h, w = x.shape
        kh, kw, pad = self.kernel_h, self.kernel_w, self.pad
        out_h = conv_output_size(h, kh, self.stride, pad)
        out_w = conv_output_size(w, kw, self.stride, pad)
        padded = (c, h + 2 * pad, w + 2 * pad) if pad > 0 else None
        return (
            (c, kh, kw, out_h, out_w),
            padded,
            (n, self.out_channels, out_h, out_w),
            np.result_type(x.dtype, self.weight.data.dtype),
        )

    def _infer_into(self, x, block, padded, out) -> np.ndarray:
        """Fill ``out`` sample by sample: receptive fields into ``block``, then
        one ``W @ block`` GEMM into the sample's ``(F, L)`` slice."""
        n, _, h, w = x.shape
        f, length = self.out_channels, out.shape[2] * out.shape[3]
        s, pad, kernel = self.stride, self.pad, (self.kernel_h, self.kernel_w)
        w_mat = self.weight.data.reshape(f, -1).astype(block.dtype, copy=False)
        operand = block.reshape(-1, length)
        if padded is None:
            fields = sliding_window_view(x, kernel, (2, 3))[:, :, ::s, ::s]
            fields = fields.transpose(0, 1, 4, 5, 2, 3)  # (N, C, KH, KW, H', W')
        else:
            interior = padded[:, pad : pad + h, pad : pad + w]
            fields = sliding_window_view(padded, kernel, (1, 2))[:, ::s, ::s]
            fields = fields.transpose(0, 3, 4, 1, 2)  # (C, KH, KW, H', W')
        for i in range(n):
            if padded is None:
                np.copyto(block, fields[i])
            else:
                np.copyto(interior, x[i])
                np.copyto(block, fields)
            np.matmul(w_mat, operand, out=out[i].reshape(f, length))
        if self.bias is not None:
            out += self.bias.data.reshape(1, -1, 1, 1)
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

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference pooling: a 2x2 pool runs the pairwise sum of
        :meth:`infer_ws` into fresh buffers; other pools run :meth:`forward`."""
        shape = self._pair_shape(x)
        if shape is None:
            return self.forward(x)
        return self._pair_sum(x, np.empty(shape, x.dtype), np.empty(shape, x.dtype))

    def infer_ws(self, x: np.ndarray, ws, key) -> np.ndarray:
        """Arena :meth:`infer`.

        A 2x2 pool is ``((x00 + x01) + (x10 + x11)) * 0.25`` over the four
        strided corner views, summed in arena buffers.  The arithmetic does
        not depend on the input's strides (numpy's reduction order for
        ``mean`` does), it is bit-identical to ``reshape(...).mean(axis=(3,
        5))`` on a C-contiguous input with at least two output columns, and
        it runs several times faster.  Other non-overlapping pools keep the
        mean; ragged or overlapping pools fall back to :meth:`infer`.
        """
        shape = self._pair_shape(x)
        if shape is not None:
            return self._pair_sum(
                x,
                ws.buffer((key, "pool"), shape, x.dtype),
                ws.buffer((key, "pool.pair"), shape, x.dtype),
            )
        n, c, h, w = x.shape
        if not (self.stride == self.size and h % self.size == 0 and w % self.size == 0):
            return self.infer(x)  # ragged/overlapping pools are rare; stay simple
        out_h, out_w = h // self.size, w // self.size
        out = ws.buffer((key, "pool"), (n, c, out_h, out_w), x.dtype)
        x.reshape(n, c, out_h, self.size, out_w, self.size).mean(axis=(3, 5), out=out)
        return out

    def _pair_shape(self, x: np.ndarray) -> tuple[int, int, int, int] | None:
        """Output shape when this is a 2x2 pool tiling a float ``x``, else None."""
        n, c, h, w = x.shape
        if (self.size, self.stride, h % 2, w % 2) != (2, 2, 0, 0):
            return None
        return (n, c, h // 2, w // 2) if np.issubdtype(x.dtype, np.floating) else None

    @staticmethod
    def _pair_sum(x: np.ndarray, out: np.ndarray, pair: np.ndarray) -> np.ndarray:
        np.add(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], out=out)
        np.add(x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2], out=pair)
        out += pair
        out *= 0.25
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
