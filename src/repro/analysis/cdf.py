"""Empirical CDFs, the lingua franca of the paper's figures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Cdf:
    """An empirical CDF over a sample."""

    xs: np.ndarray  # sorted values
    ys: np.ndarray  # cumulative fractions in (0, 1]

    @classmethod
    def of(cls, values: Sequence[float]) -> "Cdf":
        if len(values) == 0:
            raise ValueError("cannot build a CDF of an empty sample")
        xs = np.sort(np.asarray(values, dtype=float))
        ys = np.arange(1, len(xs) + 1) / len(xs)
        return cls(xs=xs, ys=ys)

    def quantile(self, q: float) -> float:
        """Value at cumulative fraction ``q``."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        index = int(np.searchsorted(self.ys, q, side="left"))
        index = min(index, len(self.xs) - 1)
        return float(self.xs[index])

    def __len__(self) -> int:
        return len(self.xs)


def lorenz_points(
    shares: Sequence[float], n_points: int = 101
) -> List[Tuple[float, float]]:
    """Lorenz-style curve: cumulative fraction of total mass carried by
    the top-x fraction of items, largest first — the exact shape of the
    paper's Figure 15 axes (fraction of VIPs vs fraction of bytes)."""
    if len(shares) == 0:
        raise ValueError("empty shares")
    ordered = np.sort(np.asarray(shares, dtype=float))[::-1]
    cumulative = np.cumsum(ordered) / ordered.sum()
    points: List[Tuple[float, float]] = []
    n = len(ordered)
    for i in range(n_points):
        fraction = i / (n_points - 1)
        k = int(round(fraction * n))
        mass = 0.0 if k == 0 else float(cumulative[k - 1])
        points.append((fraction, mass))
    return points
