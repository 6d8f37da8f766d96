"""im2col/col2im against naive reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import (
    col2im,
    conv_output_size,
    im2col,
    im2col_indices,
    reverse_im2col_indices,
)


def naive_conv2d(x, w, stride, pad):
    """Direct-loop convolution used as ground truth."""
    n, c, h, width = x.shape
    f, _, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((n, f, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = x[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("nchw,fchw->nf", patch, w)
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 1) == 8

    def test_stride(self):
        assert conv_output_size(8, 2, 2, 0) == 4

    def test_no_padding_shrinks(self):
        assert conv_output_size(8, 3, 1, 0) == 6

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError, match="geometry"):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_columns_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 3, stride=1, pad=1)
        assert cols.shape == (2, 3 * 9, 36)

    def test_matches_naive_conv(self, rng):
        x = rng.normal(size=(2, 3, 7, 7))
        w = rng.normal(size=(4, 3, 3, 3))
        cols = im2col(x, 3, 3, stride=1, pad=1)
        out = np.einsum("fk,nkl->nfl", w.reshape(4, -1), cols).reshape(2, 4, 7, 7)
        np.testing.assert_allclose(out, naive_conv2d(x, w, 1, 1), atol=1e-12)

    def test_matches_naive_conv_strided(self, rng):
        x = rng.normal(size=(1, 2, 9, 9))
        w = rng.normal(size=(3, 2, 3, 3))
        cols = im2col(x, 3, 3, stride=2, pad=0)
        out = np.einsum("fk,nkl->nfl", w.reshape(3, -1), cols).reshape(1, 3, 4, 4)
        np.testing.assert_allclose(out, naive_conv2d(x, w, 2, 0), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(4, 10),
        w=st.integers(4, 10),
        c=st.integers(1, 3),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
    )
    def test_matches_naive_conv_property(self, h, w, c, k, stride, pad):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, c, h, w))
        wgt = rng.normal(size=(2, c, k, k))
        out_h = (h + 2 * pad - k) // stride + 1
        out_w = (w + 2 * pad - k) // stride + 1
        if out_h < 1 or out_w < 1:
            return
        cols = im2col(x, k, k, stride=stride, pad=pad)
        out = np.einsum("fk,nkl->nfl", wgt.reshape(2, -1), cols).reshape(
            1, 2, out_h, out_w
        )
        np.testing.assert_allclose(out, naive_conv2d(x, wgt, stride, pad), atol=1e-10)


class TestCol2im:
    def test_adjoint_property(self, rng):
        """col2im is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols = rng.normal(size=(2, 27, 36))
        lhs = float((im2col(x, 3, 3, 1, 1) * cols).sum())
        rhs = float((x * col2im(cols, x.shape, 3, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_property_strided(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        cols_shape = im2col(x, 2, 2, 2, 0).shape
        cols = rng.normal(size=cols_shape)
        lhs = float((im2col(x, 2, 2, 2, 0) * cols).sum())
        rhs = float((x * col2im(cols, x.shape, 2, 2, 2, 0)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_roundtrip_counts_overlaps(self):
        """col2im(im2col(ones)) counts how many receptive fields hit a pixel."""
        x = np.ones((1, 1, 4, 4))
        cols = im2col(x, 3, 3, 1, 1)
        back = col2im(cols, x.shape, 3, 3, 1, 1)
        # Centre pixels are covered by all 9 kernel positions.
        assert back[0, 0, 1, 1] == pytest.approx(9.0)
        # Corners only by 4 (padding removes the rest).
        assert back[0, 0, 0, 0] == pytest.approx(4.0)


class TestIndicesCache:
    def test_cache_returns_same_objects(self):
        a = im2col_indices(3, 8, 8, 3, 3, 1, 1)
        b = im2col_indices(3, 8, 8, 3, 3, 1, 1)
        assert a[0] is b[0]

    def test_output_sizes_included(self):
        *_, out_h, out_w = im2col_indices(1, 8, 6, 3, 3, 1, 1)
        assert (out_h, out_w) == (8, 6)


class TestReverseIm2col:
    """The event kernel's (pixel, offset) -> (kernel row, target) map is
    the exact inverse of the im2col gather."""

    @pytest.mark.parametrize(
        "geometry",
        [
            (2, 5, 7, 3, 3, 1, 1),
            (1, 6, 6, 2, 3, 2, 0),
            (3, 7, 5, 4, 1, 3, 2),
            (2, 4, 4, 1, 1, 1, 0),
        ],
    )
    def test_inverts_the_forward_gather(self, geometry):
        c, h, w, kh, kw, stride, pad = geometry
        k, i, j, out_h, out_w = im2col_indices(c, h, w, kh, kw, stride, pad)
        length = out_h * out_w
        forward = set()
        for row in range(c * kh * kw):
            for target in range(length):
                y, x = i[row, target] - pad, j[row, target] - pad
                if 0 <= y < h and 0 <= x < w:  # padding reads no pixel
                    pixel = (k[row, 0] * h + y) * w + x
                    forward.add((pixel, row, target))
        krow, targets = reverse_im2col_indices(c, h, w, kh, kw, stride, pad)
        assert krow.shape == targets.shape == (c * h * w, kh * kw)
        assert krow.dtype == targets.dtype == np.int32
        reverse = {
            (pixel, int(krow[pixel, o]), int(targets[pixel, o]))
            for pixel in range(c * h * w)
            for o in range(kh * kw)
            if targets[pixel, o] != length  # the sink slot
        }
        assert reverse == forward

    def test_cached_and_read_only(self):
        first = reverse_im2col_indices(2, 6, 6, 3, 3, 1, 1)
        assert reverse_im2col_indices(2, 6, 6, 3, 3, 1, 1) is first
        for table in first:
            assert not table.flags.writeable
