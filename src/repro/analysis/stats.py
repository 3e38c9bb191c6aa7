"""Summary statistics helpers shared by experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    p10: float
    median: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if len(values) == 0:
            raise ValueError("cannot summarize an empty sample")
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            p10=float(np.percentile(arr, 10)),
            median=float(np.median(arr)),
            p90=float(np.percentile(arr, 90)),
            p99=float(np.percentile(arr, 99)),
            maximum=float(arr.max()),
        )
