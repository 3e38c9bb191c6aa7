"""Ping-mesh measurement: probe series and availability metrics.

The paper's testbed experiments measure VIP availability and added
latency by pinging VIPs every 3 ms (Figures 11-13).  This module holds
the probe-result containers and the summary metrics derived from them
(drop windows, availability, latency percentiles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ProbeResult:
    """One ping: when it was sent, how long it took (None = no reply),
    and which mux served it ("hmux", "smux", or "none")."""

    time_s: float
    latency_s: Optional[float]
    via: str

    @property
    def dropped(self) -> bool:
        return self.latency_s is None


@dataclass
class PingSeries:
    """All probes to one VIP over an experiment."""

    vip: int
    label: str
    results: List[ProbeResult] = field(default_factory=list)

    def add(self, result: ProbeResult) -> None:
        self.results.append(result)

    def __len__(self) -> int:
        return len(self.results)

    # -- metrics ------------------------------------------------------------

    def latencies_s(self) -> np.ndarray:
        return np.asarray(
            [r.latency_s for r in self.results if r.latency_s is not None]
        )

    def availability(self) -> float:
        """Fraction of probes answered."""
        if not self.results:
            return 1.0
        answered = sum(1 for r in self.results if not r.dropped)
        return answered / len(self.results)

    def drop_windows(self) -> List[Tuple[float, float]]:
        """Maximal [first-dropped, last-dropped] probe-time intervals."""
        windows: List[Tuple[float, float]] = []
        start: Optional[float] = None
        last: Optional[float] = None
        for result in self.results:
            if result.dropped:
                if start is None:
                    start = result.time_s
                last = result.time_s
            elif start is not None:
                windows.append((start, last if last is not None else start))
                start, last = None, None
        if start is not None:
            windows.append((start, last if last is not None else start))
        return windows

    def outage_s(self, now_s: Optional[float] = None) -> float:
        """Total unavailable time, measured probe-to-recovery: for each
        drop window, the span from its first dropped probe to the next
        answered probe.

        A series that ends mid-drop has no recovery point.  By default
        that trailing open window contributes only the span between its
        own probes (zero for a single trailing drop).  Pass ``now_s``
        — e.g. the live monitoring clock — to count the open window as
        still running, from its first dropped probe until ``now_s``.
        """
        total = 0.0
        results = self.results
        for start, last in self.drop_windows():
            after = [r.time_s for r in results if r.time_s > last and not r.dropped]
            if after:
                end = after[0]
            elif now_s is not None:
                end = max(now_s, last)
            else:
                end = last
            total += end - start
        return total

    def median_latency_s(self) -> float:
        lats = self.latencies_s()
        if not len(lats):
            raise ValueError(f"no successful probes for {self.label}")
        return float(np.median(lats))

    def percentile_latency_s(self, q: float) -> float:
        lats = self.latencies_s()
        if not len(lats):
            raise ValueError(f"no successful probes for {self.label}")
        return float(np.percentile(lats, q))

    def serving_mux_at(self, t: float) -> str:
        """Which mux served the probe nearest (at or before) time t."""
        best: Optional[ProbeResult] = None
        for result in self.results:
            if result.time_s <= t:
                best = result
            else:
                break
        if best is None:
            raise ValueError("no probe at or before requested time")
        return best.via

    def window(self, start_s: float, end_s: float) -> "PingSeries":
        """The sub-series with start_s <= t < end_s."""
        sub = PingSeries(self.vip, self.label)
        sub.results = [
            r for r in self.results if start_s <= r.time_s < end_s
        ]
        return sub
