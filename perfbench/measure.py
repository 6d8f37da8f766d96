"""Statistics and naming rules shared by the benchmark and its tests.

* :func:`supported_level` — the percentile rule: a timing is reported as
  its median and the highest percentile that has at least ten samples
  beyond it.
* :func:`self_times` — a span's self time is its duration minus the part
  of that interval its child spans cover.
* :func:`valid_name` / :func:`valid_unit` — the metric-name and unit
  alphabets ``BENCHMARK.json`` accepts.
"""

from __future__ import annotations

import re
import statistics

import numpy as np

__all__ = [
    "LEVELS_PERMILLE",
    "supported_level",
    "tail",
    "windowed_tail",
    "self_times",
    "valid_name",
    "valid_unit",
]

#: Candidate percentile levels in per-mille (integers keep the
#: "ten samples beyond" test exact: 99.9 is not representable in binary).
LEVELS_PERMILLE = (500, 900, 950, 990, 999)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def supported_level(n: int, cap: int = LEVELS_PERMILLE[-1]) -> int | None:
    """Highest level (per-mille, at most ``cap``) with ten samples beyond it.

    ``n * (1000 - level) / 1000`` samples lie beyond a level; the level is
    supported when that is at least :data:`MIN_BEYOND`.  ``None`` when not
    even the median is supported (fewer than 20 samples).
    """
    best = None
    for level in LEVELS_PERMILLE:
        if level <= cap and n * (1000 - level) >= MIN_BEYOND * 1000:
            best = level
    return best


def tail(values, cap: int) -> tuple[float, int]:
    """``(value, level)`` at the highest supported level up to ``cap``.

    Falls back to the maximum (level 1000) when the sample is too small
    for any level, so a value is always reported.
    """
    level = supported_level(len(values), cap)
    if level is None:
        return float(max(values)), 1000
    return float(np.percentile(values, level / 10)), level


def windowed_tail(values, cap: int) -> tuple[float, int]:
    """``(value, level)``: the median over consecutive windows of each
    window's :func:`tail` at ``cap``.

    ``values`` must be in time order.  The sample is cut into as many
    windows as it can while each window still supports ``cap``, so a slow
    spell of the machine inflates the tail of the windows it falls in but
    not their median.  Too small a sample for two windows is one window.
    """
    need = -(-MIN_BEYOND * 1000 // (1000 - cap))  # smallest n supporting cap
    count = max(1, len(values) // need)
    size = len(values) / count
    windows = [values[round(i * size) : round((i + 1) * size)] for i in range(count)]
    results = [tail(w, cap) for w in windows]
    return (
        float(statistics.median(v for v, _ in results)),
        min(level for _, level in results),
    )


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` triples (extra
    trailing fields are ignored), ``parent`` the index of the enclosing
    span or ``None``.  Children are clipped to their parent's interval and
    overlapping children (spans from several threads under one parent)
    are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent, *_rest) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def valid_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.``, ``-``; starts alphanumeric; <= 64."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    """Letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``; 1 to 16 long."""
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None

