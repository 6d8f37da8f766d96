"""im2col / col2im transforms for convolution on NCHW arrays.

A convolution is evaluated as a single matrix product by unrolling every
receptive field into a column (``im2col``), which is the standard approach for
CPU numpy implementations.  The index triples used for the gather are cached
per ``(shape, kernel, stride, pad)`` so repeated forward passes — and in
particular the per-time-step propagation in the SNN simulator — pay the index
construction cost only once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "im2col_indices",
    "reverse_im2col_indices",
]


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis.

    Raises ``ValueError`` when the geometry does not tile evenly enough to
    produce at least one output position.
    """
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution geometry invalid: size={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad} gives output {out}"
        )
    return out


@lru_cache(maxsize=256)
def im2col_indices(
    channels: int, height: int, width: int, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Build gather indices ``(k, i, j)`` for :func:`im2col`.

    Returns
    -------
    (k, i, j, out_h, out_w):
        ``k`` has shape ``(C*KH*KW, 1)``; ``i`` and ``j`` have shape
        ``(C*KH*KW, out_h*out_w)``.  Indexing a padded input with them yields
        the unrolled receptive fields.
    """
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return k, i, j, out_h, out_w


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unroll ``x`` (N, C, H, W) into columns (N, C*KH*KW, out_h*out_w)."""
    n, c, h, w = x.shape
    k, i, j, _, _ = im2col_indices(c, h, w, kernel_h, kernel_w, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    return x[:, k, i, j]


@lru_cache(maxsize=256)
def reverse_im2col_indices(
    channels: int, height: int, width: int, kernel_h: int, kernel_w: int,
    stride: int, pad: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse im2col map for event-driven (scatter) convolution.

    For every input pixel ``p = (c, y, x)`` (C-order flat index) and kernel
    offset ``o = (dy, dx)``, an input event at ``p`` contributes
    ``W[:, c, dy, dx]`` to one output position.  Returns two read-only
    ``(C*H*W, KH*KW)`` int32 tables:

    * ``krow[p, o]`` -- the im2col kernel row ``c*KH*KW + dy*KW + dx``;
    * ``target[p, o]`` -- the flat output position ``oy*out_w + ox``, or the
      sink slot ``out_h*out_w`` when the offset falls outside the output
      (padding border, stride phase), so callers need no validity mask.
    """
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)
    dy = np.repeat(np.arange(kernel_h, dtype=np.int64), kernel_w)
    dx = np.tile(np.arange(kernel_w, dtype=np.int64), kernel_h)
    ys = np.arange(height, dtype=np.int64)[:, None, None] + pad - dy
    xs = np.arange(width, dtype=np.int64)[None, :, None] + pad - dx
    oy, ry = np.divmod(ys, stride)
    ox, rx = np.divmod(xs, stride)
    valid = (ry == 0) & (rx == 0) & (oy >= 0) & (oy < out_h) & (ox >= 0) & (ox < out_w)
    n_off = kernel_h * kernel_w
    # One channel's (H*W, KH*KW) plane of targets, repeated per channel.
    plane = np.where(valid, oy * out_w + ox, out_h * out_w).astype(np.int32)
    target = np.tile(plane.reshape(height * width, n_off), (channels, 1))
    krow = np.repeat(
        np.arange(channels * n_off, dtype=np.int32).reshape(channels, n_off),
        height * width,
        axis=0,
    )
    krow.flags.writeable = False
    target.flags.writeable = False
    return krow, target


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Scatter-add columns back to an array of ``x_shape`` (inverse of im2col).

    Overlapping receptive fields accumulate, which is exactly the adjoint of
    the im2col gather and therefore the correct gradient routing.
    """
    n, c, h, w = x_shape
    k, i, j, _, _ = im2col_indices(c, h, w, kernel_h, kernel_w, stride, pad)
    x_padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    np.add.at(x_padded, (slice(None), k, i, j), cols)
    if pad > 0:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded
