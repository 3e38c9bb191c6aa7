"""Terminal plotting: sparklines and small ASCII charts.

The paper's testbed figures are time series (latency over an experiment,
coverage over a trace); these helpers give the text renderings a visual
line so the shape is legible straight from a shell.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(
    values: Sequence[float],
    *,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-character-per-value block sparkline.

    NaNs render as spaces (gaps — e.g. dropped probes).  ``lo``/``hi``
    fix the scale; by default the finite data's own range is used.
    """
    if not len(values):
        return ""
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return " " * len(values)
    floor = lo if lo is not None else min(finite)
    ceil = hi if hi is not None else max(finite)
    span = ceil - floor
    chars: List[str] = []
    for value in values:
        if math.isnan(value):
            chars.append(" ")
            continue
        if span <= 0:
            chars.append(_BLOCKS[0])
            continue
        norm = (value - floor) / span
        index = min(len(_BLOCKS) - 1, max(0, int(norm * len(_BLOCKS))))
        chars.append(_BLOCKS[index])
    return "".join(chars)


def decimate(values: Sequence[float], width: int) -> List[float]:
    """Reduce a long series to ``width`` points (bucket maxima — peaks
    are the interesting feature in latency series)."""
    if width < 1:
        raise ValueError("width must be positive")
    n = len(values)
    if n <= width:
        return list(values)
    buckets: List[float] = []
    for b in range(width):
        start = b * n // width
        end = max(start + 1, (b + 1) * n // width)
        window = [v for v in values[start:end] if not math.isnan(v)]
        buckets.append(max(window) if window else float("nan"))
    return buckets


def timeseries_line(
    label: str,
    times: Sequence[float],
    values: Sequence[float],
    *,
    width: int = 60,
    unit: str = "",
) -> str:
    """A labelled sparkline with its time range and value range."""
    if len(times) != len(values):
        raise ValueError("times and values must align")
    if not len(values):
        return f"{label}: (empty)"
    compact = decimate(values, width)
    finite = [v for v in values if not math.isnan(v)]
    if finite:
        lo, hi = min(finite), max(finite)
        scale = f"[{lo:.3g}..{hi:.3g}{unit}]"
    else:
        scale = "[all dropped]"
    return (
        f"{label} t=[{times[0]:.3g}s..{times[-1]:.3g}s] {scale}\n"
        f"  {sparkline(compact)}"
    )
