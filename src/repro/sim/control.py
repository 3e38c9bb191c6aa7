"""Control-plane operation latency model (paper Figure 14).

The paper breaks VIP migration delay into three components, measured on
the testbed:

* **Add/Delete-DIPs**: programming the ECMP + tunneling tables (~tens of
  milliseconds),
* **Add/Delete-VIP**: installing or removing the /32 in the switch FIB —
  the dominant cost, "almost all (80-90%) of the migration delay",
  putting the end-to-end migration step at ~400-450 ms (Figure 13),
* **VIP-Announce/Withdraw**: BGP propagation to the other switches
  (~tens of milliseconds).

:class:`ControlPlaneModel` samples per-operation latencies around the
:class:`~repro.net.bgp.BgpTimings` anchors with log-normal jitter, and
composes them into the end-to-end delays the migration scenarios use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.net.bgp import BgpTimings
from repro.sim.queueing import LognormalLatency


@dataclass(frozen=True)
class OperationSample:
    """One migration broken into its component latencies (seconds)."""

    dip_update_s: float
    fib_update_s: float
    bgp_propagation_s: float

    @property
    def total_s(self) -> float:
        return self.dip_update_s + self.fib_update_s + self.bgp_propagation_s


class ControlPlaneModel:
    """Samples control-plane operation latencies (Figure 14)."""

    #: Jitter: p90/median ratio for each component (FIB updates on the
    #: testbed's unoptimized switch agent vary the most).
    _JITTER = {"dip": 1.6, "fib": 1.3, "bgp": 1.8}

    def __init__(self, timings: BgpTimings = BgpTimings(), seed: int = 0) -> None:
        self.timings = timings
        self._rng = random.Random(seed)
        self._dip = LognormalLatency(
            timings.fib_update_dip_s,
            timings.fib_update_dip_s * self._JITTER["dip"],
        )
        self._fib = LognormalLatency(
            timings.fib_update_vip_s,
            timings.fib_update_vip_s * self._JITTER["fib"],
        )
        self._bgp = LognormalLatency(
            timings.announce_propagation_s,
            timings.announce_propagation_s * self._JITTER["bgp"],
        )

    def sample_add(self) -> OperationSample:
        """Latency components of adding a VIP to an HMux: program DIPs,
        install the VIP route in the FIB, announce over BGP."""
        return OperationSample(
            dip_update_s=self._dip.sample(self._rng),
            fib_update_s=self._fib.sample(self._rng),
            bgp_propagation_s=self._bgp.sample(self._rng),
        )

    def sample_delete(self) -> OperationSample:
        """Latency components of removing a VIP from an HMux (the paper
        measures deletes marginally slower than adds)."""
        return OperationSample(
            dip_update_s=self._dip.sample(self._rng) * 1.1,
            fib_update_s=self._fib.sample(self._rng) * 1.1,
            bgp_propagation_s=self._bgp.sample(self._rng),
        )

    def migration_delay_s(self) -> float:
        """End-to-end delay of one migrate command taking effect: the
        ~400-450 ms the paper measures between T1 and T2 in Figure 13."""
        return self.sample_delete().total_s


@dataclass
class BreakdownStats:
    """Summary statistics of many operation samples (one Figure 14 bar)."""

    component: str
    mean_s: float
    p10_s: float
    median_s: float
    p90_s: float


def breakdown(
    samples: Sequence[OperationSample],
) -> List[BreakdownStats]:
    """Per-component stats across trials, Figure 14 style."""
    import numpy as np

    if not samples:
        raise ValueError("no samples to summarize")
    columns = {
        "dip-update": np.asarray([s.dip_update_s for s in samples]),
        "vip-fib-update": np.asarray([s.fib_update_s for s in samples]),
        "bgp-propagation": np.asarray([s.bgp_propagation_s for s in samples]),
    }
    stats: List[BreakdownStats] = []
    for name, values in columns.items():
        stats.append(BreakdownStats(
            component=name,
            mean_s=float(values.mean()),
            p10_s=float(np.percentile(values, 10)),
            median_s=float(np.median(values)),
            p90_s=float(np.percentile(values, 90)),
        ))
    return stats
