"""The arena protocol of the inference kernels, and its fresh-array arena.

Every inference kernel — ``Layer.infer``, the event scatters of
:mod:`repro.snn.events`, the TTFS fire drains — takes its output and
scratch storage from an *arena*: an object with ``buffer(key, shape,
dtype, zeroed=False) -> ndarray``.  A compiled plan passes its
:class:`~repro.snn.plan.Workspace`, whose buffers persist across calls;
:data:`FRESH` returns a new array on every request, so a caller without a
plan runs the same kernel into fresh storage (docs/DESIGN.md §7).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FRESH"]


class _FreshArrays:
    """An arena that keeps nothing: every request is a new array, zeroed
    when ``zeroed`` is set; ``key`` is ignored."""

    @staticmethod
    def buffer(key, shape, dtype, zeroed: bool = False) -> np.ndarray:
        return np.zeros(shape, dtype) if zeroed else np.empty(shape, dtype)


#: The default arena of every inference kernel: fresh arrays, nothing kept.
FRESH = _FreshArrays()
