"""Event-driven sparse spike propagation.

T2FSNN's value proposition is temporal sparsity: a TTFS neuron fires *at
most once* per inference, so at any given step only a small fraction of a
population is active.  The clock-driven engine nevertheless used to push a
dense spike tensor through full im2col convolutions at every step, making
simulation cost O(T x full-conv) regardless of how few spikes exist.

This module provides the sparse substrate the engine routes around:

* :class:`SpikePacket` — a flat-index event list (batch row, feature index,
  weight) representing one step's weighted spikes without materialising the
  dense tensor.  The number of events is ``packet.count`` — spike
  bookkeeping comes for free, no per-step ``np.count_nonzero``.
* ``apply_stage_events`` — propagate a packet through a converted stage's
  linear ops: :class:`~repro.nn.layers.Flatten` and non-overlapping
  :class:`~repro.nn.layers.AvgPool2D` are pure index remaps (the packet
  stays sparse); :class:`~repro.nn.layers.Dense` gathers rows of ``W``;
  :class:`~repro.nn.layers.Conv2D` scatter-adds weight patches using a
  cached reverse im2col map.  Work scales with the number of events, not
  the tensor size.
* ``ingest`` — the engine's per-step chooser: measure density and pick the
  sparse or dense representation (see docs/DESIGN.md §7).

All sparse kernels accumulate in the same dtype as the dense path
(float64 by default), so predictions and spike counts match the dense
engine exactly; scores agree to floating-point reassociation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.im2col import conv_output_size, reverse_im2col_indices
from repro.nn.layers import AvgPool2D, Conv2D, Dense, Flatten
from repro.utils.arena import FRESH

try:  # scipy ships with the toolchain; gate it so the engine degrades gracefully
    from scipy import sparse as _scipy_sparse
    from scipy.sparse._sparsetools import coo_tocsr as _coo_tocsr
    from scipy.sparse._sparsetools import csc_matvecs as _csc_matvecs
except ImportError:  # pragma: no cover - exercised only without scipy
    _scipy_sparse = None
    _coo_tocsr = _csc_matvecs = None

__all__ = [
    "SpikePacket",
    "DEFAULT_DENSITY_THRESHOLD",
    "ingest",
    "merge_packets",
    "spike_count",
    "spike_mask",
    "apply_stage_events",
    "apply_op_events",
]

#: Below this fraction of active neurons the sparse path beats the dense
#: im2col convolution (numpy gather/scatter vs BLAS; see
#: benchmarks/bench_engine_throughput.py for the measurement).
DEFAULT_DENSITY_THRESHOLD = 0.1

#: Elements per block of the sparse conv's transposed output copy (~32 KB
#: of float64, so a block's reads stay in L1).
_TRANSPOSE_BLOCK = 4096


@dataclass
class SpikePacket:
    """One step's spikes as a flat event list.

    Attributes
    ----------
    rows:
        Batch row of each event, **nondecreasing** (row-major order, as
        produced by ``np.nonzero``).  The segment-reduce kernels rely on
        this invariant.
    idx:
        Flat feature index of each event within ``shape`` (C-order).
        Duplicates within a row are legal (they arise from pooling remaps)
        and accumulate additively.
    weights:
        Weight carried by each event (the decoded spike value).
    batch:
        Batch size of the dense tensor this packet represents.
    shape:
        Feature shape (without batch) of the dense tensor.
    unique:
        True when event positions are provably distinct (fire-once
        emissions, nonzero extractions).  Densification then uses a plain
        fancy assignment — ~2.5x faster than the duplicate-accumulating
        ``np.add.at`` and bit-identical for distinct positions.  Only
        constructors that can prove distinctness set it (pooling remaps
        may merge positions and leave it False).
    """

    rows: np.ndarray
    idx: np.ndarray
    weights: np.ndarray
    batch: int
    shape: tuple[int, ...]
    unique: bool = False

    @property
    def count(self) -> int:
        """Number of spike events (free spike bookkeeping)."""
        return int(self.idx.shape[0])

    @property
    def size(self) -> int:
        return self.batch * int(np.prod(self.shape))

    @property
    def density(self) -> float:
        """Fraction of the dense tensor that is nonzero."""
        return self.count / max(self.size, 1)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SpikePacket":
        """Extract the events of a dense ``(batch, *shape)`` spike tensor."""
        flat = dense.reshape(dense.shape[0], -1)
        rows, idx = np.divmod(np.flatnonzero(flat), flat.shape[1])
        return cls(
            rows=rows,
            idx=idx,
            weights=flat[rows, idx],
            batch=dense.shape[0],
            shape=dense.shape[1:],
            unique=True,
        )

    @classmethod
    def from_mask(
        cls, mask: np.ndarray, weight: float, dtype=np.float64
    ) -> "SpikePacket":
        """Events of a boolean fire mask, all carrying the same ``weight``.

        This is the native emission path for TTFS/phase-style dynamics whose
        per-step spikes share one kernel weight — the dense
        ``mask.astype(float) * weight`` tensor is never materialised.
        """
        flat = mask.reshape(mask.shape[0], -1)
        rows, idx = np.divmod(np.flatnonzero(flat), flat.shape[1])
        return cls(
            rows=rows,
            idx=idx,
            weights=np.full(idx.shape[0], weight, dtype=dtype),
            batch=mask.shape[0],
            shape=mask.shape[1:],
            unique=True,
        )

    def to_dense(self, dtype=None) -> np.ndarray:
        """Materialise the dense weighted spike tensor."""
        dtype = self.weights.dtype if dtype is None else dtype
        flat = np.zeros((self.batch, int(np.prod(self.shape))), dtype=dtype)
        if self.unique:
            flat[self.rows, self.idx] = self.weights
        else:
            np.add.at(flat, (self.rows, self.idx), self.weights)
        return flat.reshape((self.batch,) + tuple(self.shape))

    def with_shape(self, shape: tuple[int, ...]) -> "SpikePacket":
        """Reinterpret the feature shape (flat indices are unchanged)."""
        if int(np.prod(shape)) != int(np.prod(self.shape)):
            raise ValueError(f"cannot reshape {self.shape} events to {shape}")
        return SpikePacket(
            self.rows, self.idx, self.weights, self.batch, tuple(shape), self.unique
        )

    def compact_rows(self, keep: np.ndarray) -> "SpikePacket":
        """Drop events of retired batch rows and renumber the survivors.

        ``keep`` is a boolean mask over the current batch dimension; kept
        rows are renumbered to their compacted positions (the engine's
        sample-retirement index map).  Event order is preserved, so ``rows``
        stays nondecreasing.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.batch,):
            raise ValueError(f"keep mask shape {keep.shape} != batch {self.batch}")
        new_index = np.cumsum(keep) - 1
        m = keep[self.rows]
        return SpikePacket(
            rows=new_index[self.rows[m]],
            idx=self.idx[m],
            weights=self.weights[m],
            batch=int(np.count_nonzero(keep)),
            shape=self.shape,
            unique=self.unique,
        )

    def rows_with_events(self) -> np.ndarray:
        """Boolean mask over the batch marking rows that carry any event."""
        present = np.zeros(self.batch, dtype=bool)
        present[self.rows] = True
        return present

    def mask(self) -> np.ndarray:
        """Boolean fired-mask of shape ``(batch, *shape)``."""
        flat = np.zeros((self.batch, int(np.prod(self.shape))), dtype=bool)
        flat[self.rows, self.idx] = True
        return flat.reshape((self.batch,) + tuple(self.shape))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpikePacket(count={self.count}, batch={self.batch}, "
            f"shape={self.shape}, density={self.density:.4f})"
        )


def spike_count(spikes: np.ndarray | SpikePacket | None) -> int:
    """Number of spike events in either representation."""
    if spikes is None:
        return 0
    if isinstance(spikes, SpikePacket):
        return spikes.count
    return int(np.count_nonzero(spikes))


def spike_mask(spikes: np.ndarray | SpikePacket) -> np.ndarray:
    """Boolean fired-mask in either representation (for monitors)."""
    if isinstance(spikes, SpikePacket):
        return spikes.mask()
    return spikes != 0


def merge_packets(packets: list[SpikePacket], out: np.ndarray) -> np.ndarray:
    """Merge a deferral window's packets into ``out``, one dense drive tensor.

    Integration is additive, so events accumulate position-wise in packet
    order via one flat scatter-add, directly in the packets' dtype (in
    float64 bit-identical to a float64 ``np.bincount`` over the same
    events).  ``out`` is the C-contiguous ``(batch, *shape)`` buffer to
    merge into, an arena buffer or a fresh one; it is zeroed first.
    """
    first = packets[0]
    features = int(np.prod(first.shape))
    shape = (first.batch,) + tuple(first.shape)
    if out.shape != shape:
        raise ValueError(f"merge buffer shape {out.shape} != {shape}")
    if not out.flags.c_contiguous:
        # The flat scatter-add below must hit the buffer, not a copy.
        raise ValueError("merge buffer must be C-contiguous")
    out[...] = 0
    pos = np.concatenate([p.rows * features + p.idx for p in packets])
    weights = np.concatenate([p.weights for p in packets])
    np.add.at(out.reshape(-1), pos, weights)
    return out


def ingest(
    spikes: np.ndarray | SpikePacket | None,
    threshold: float,
) -> tuple[np.ndarray | SpikePacket | None, int]:
    """Normalise a step's spike emission and measure it.

    Returns ``(spikes, count)`` where silent emissions become ``None`` and a
    dense tensor whose density is at or below ``threshold`` is converted to
    a :class:`SpikePacket` (pass ``threshold <= 0`` to never pack).  Packets
    are passed through untouched — the stage-application chooser densifies
    over-threshold packets itself.
    """
    if spikes is None:
        return None, 0
    if isinstance(spikes, SpikePacket):
        if spikes.count == 0:
            return None, 0
        return spikes, spikes.count
    count = int(np.count_nonzero(spikes))
    if count == 0:
        return None, 0
    if threshold > 0.0 and count <= threshold * spikes.size:
        return SpikePacket.from_dense(spikes), count
    return spikes, count


# ---------------------------------------------------------------------------
# Sparse linear-op application
# ---------------------------------------------------------------------------


def _segment_scatter(
    out_flat: np.ndarray, flat_pos: np.ndarray, payload: np.ndarray
) -> None:
    """``out_flat[flat_pos] += payload`` with duplicate positions accumulated.

    ``flat_pos`` must be sorted (nondecreasing).  Uses a segment reduce,
    which is substantially faster than ``np.ufunc.at`` for wide payloads.
    """
    if flat_pos.shape[0] == 0:
        return
    seg_starts = np.flatnonzero(np.diff(flat_pos)) + 1
    seg_starts = np.concatenate((np.zeros(1, dtype=np.int64), seg_starts))
    sums = np.add.reduceat(payload, seg_starts, axis=0)
    out_flat[flat_pos[seg_starts]] += sums


def _dense_apply_events(op: Dense, packet: SpikePacket) -> np.ndarray:
    """Sparse ``x @ W``: gather the weight rows the events touch."""
    if packet.count and _scipy_sparse is not None:
        indptr = np.zeros(packet.batch + 1, dtype=np.int64)
        np.cumsum(np.bincount(packet.rows, minlength=packet.batch), out=indptr[1:])
        mat = _scipy_sparse.csr_matrix(
            (packet.weights, packet.idx, indptr),
            shape=(packet.batch, op.in_features),
        )
        out = np.asarray(mat @ op.weight.data)
    else:
        out = np.zeros((packet.batch, op.out_features), dtype=packet.weights.dtype)
        if packet.count:
            payload = op.weight.data[packet.idx] * packet.weights[:, None]
            _segment_scatter(out, packet.rows, payload)
    if op.bias is not None:
        out += op.bias.data
    return out


def _conv2d_apply_events(op: Conv2D, packet: SpikePacket, ws, key) -> np.ndarray:
    """Sparse convolution: scatter-add one weight patch per event.

    The cached reverse im2col map turns the packet into ``(kernel row,
    output target, weight)`` triples with two gathers; out-of-bounds offsets
    land in a per-row sink slot ``L = out_h*out_w`` instead of being masked
    out.  With scipy the triples become the CSC operand of one compiled
    ``(B*(L+1), C*KH*KW) @ W.T`` product accumulating straight into a
    ``(B, L+1, F)`` buffer; without it a sorted segment-reduce fills the
    same buffer.  Work scales with ``events x KH*KW x F`` instead of the
    full im2col volume, plus one pass over the dense output.

    The accumulator (its own ``"scatter_acc"`` buffer) and the returned
    drive come from the arena ``ws`` under the op key ``key``.  The drive
    is ``Conv2D.infer``'s ``"gemm"`` output buffer, in the same
    C-contiguous ``(N, F, H, W)`` layout: a flush takes one of the two
    paths, and the drive follows the same ownership rule as
    ``StagePlan.apply_dense`` (valid until the stage's next flush).
    """
    c, h, w = packet.shape
    kh, kw = op.kernel_h, op.kernel_w
    out_h = conv_output_size(h, kh, op.stride, op.pad)
    out_w = conv_output_size(w, kw, op.stride, op.pad)
    length = out_h * out_w
    f = op.out_channels
    n = packet.batch
    dtype = np.result_type(packet.weights.dtype, op.weight.data.dtype)
    acc = ws.buffer((key, "scatter_acc"), (n, length + 1, f), dtype)
    acc[...] = 0
    out = ws.buffer((key, "gemm"), (n, f, out_h, out_w), dtype)
    if packet.count:
        krow_map, target_map = reverse_im2col_indices(
            c, h, w, kh, kw, op.stride, op.pad
        )
        rows_total = n * (length + 1)
        krow = np.take(krow_map, packet.idx, axis=0).ravel()
        target = np.take(target_map, packet.idx, axis=0)
        target += (packet.rows * (length + 1)).astype(np.int32)[:, None]
        target = target.ravel()
        weights = np.repeat(packet.weights.astype(dtype, copy=False), kh * kw)
        w_t = np.ascontiguousarray(op.weight.data.reshape(f, -1).T, dtype=dtype)
        acc_rows = acc.reshape(rows_total, f)
        if _scipy_sparse is not None:
            # coo_tocsr keyed on the kernel row builds the operand's CSC
            # form without sorting or summing duplicates; csc_matvecs then
            # accumulates duplicates like any other entry.
            k, nnz = w_t.shape[0], krow.shape[0]
            indptr = np.empty(k + 1, dtype=np.int32)
            indices = np.empty(nnz, dtype=np.int32)
            data = np.empty(nnz, dtype=dtype)
            _coo_tocsr(k, rows_total, nnz, krow, target, weights, indptr, indices, data)
            _csc_matvecs(rows_total, k, f, indptr, indices, data, w_t, acc_rows)
        else:
            order = np.argsort(target, kind="stable")
            payload = w_t[krow[order]] * weights[order, None]
            _segment_scatter(acc_rows, target[order], payload)
    # (B, L+1, F) -> (B, F, L) without the sink, in cache-sized blocks: one
    # whole-array strided copy runs ~1.5x slower at 32x32 outputs.
    drive = out.reshape(n, f, length)
    step = max(_TRANSPOSE_BLOCK // f, 1)
    for lo in range(0, length, step):
        hi = min(lo + step, length)
        drive[:, :, lo:hi] = acc[:, lo:hi].transpose(0, 2, 1)
    if op.bias is not None:
        out += op.bias.data.reshape(1, -1, 1, 1)
    return out


def _avgpool_apply_events(
    op: AvgPool2D, packet: SpikePacket, ws, key
) -> SpikePacket | np.ndarray:
    """Non-overlapping average pooling is a pure index remap."""
    c, h, w = packet.shape
    s = op.size
    if op.stride != s or h % s or w % s:
        # Overlapping/ragged pools duplicate events across windows; rare in
        # converted nets, so fall back to the dense op.
        return op.infer(packet.to_dense(), ws, key)
    out_h, out_w = h // s, w // s
    cidx, rem = np.divmod(packet.idx, h * w)
    yy, xx = np.divmod(rem, w)
    new_idx = cidx * (out_h * out_w) + (yy // s) * out_w + (xx // s)
    return SpikePacket(
        rows=packet.rows,
        idx=new_idx,
        weights=packet.weights / (s * s),
        batch=packet.batch,
        shape=(c, out_h, out_w),
    )


def apply_op_events(
    op, packet: SpikePacket, ws=FRESH, key=None
) -> SpikePacket | np.ndarray:
    """Apply one linear op to a packet, staying sparse where possible.

    A dense result's buffers come from the arena ``ws`` (fresh arrays by
    default) under the op key ``key``, as in ``Layer.infer``.
    """
    if isinstance(op, Flatten):
        return packet.with_shape((int(np.prod(packet.shape)),))
    if isinstance(op, AvgPool2D):
        return _avgpool_apply_events(op, packet, ws, key)
    if isinstance(op, Dense):
        return _dense_apply_events(op, packet)
    if isinstance(op, Conv2D):
        return _conv2d_apply_events(op, packet, ws, key)
    return op.infer(packet.to_dense(), ws, key)


def apply_stage_events(stage, packet: SpikePacket, ws=FRESH, index=None) -> np.ndarray:
    """Propagate a packet through a converted stage's op chain.

    Index-remap ops keep the packet sparse; the first matrix op (conv or
    dense) produces the dense synaptic drive, and any remaining ops run on
    the dense inference path.  Every op takes its buffers from the arena
    ``ws`` (fresh arrays by default) under the op keys ``(index, j)`` that
    ``StagePlan.apply_dense`` uses, so the drive follows its ownership
    rule (valid until the stage's next flush).
    """
    out: SpikePacket | np.ndarray = packet
    for j, op in enumerate(stage.ops):
        if isinstance(out, SpikePacket):
            out = apply_op_events(op, out, ws, (index, j))
        else:
            out = op.infer(out, ws, (index, j))
    if isinstance(out, SpikePacket):
        out = out.to_dense()
    return out
