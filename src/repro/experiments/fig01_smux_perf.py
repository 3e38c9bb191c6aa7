"""Figure 1: performance of a software Mux.

(a) CDF of end-to-end latency through one SMux at 0 / 200K / 300K /
400K / 450K packets per second — median ~196 µs and 90th percentile
~1 ms at no load, exploding once the offered load passes the ~300K pps
CPU saturation point.

(b) CPU utilization vs offered load: linear up to 100% at 300K pps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis import Cdf, format_seconds, render_table
from repro.sim.queueing import (
    LoadPhase,
    MuxStation,
    NETWORK_RTT,
    SMUX_BASE_LATENCY,
    smux_cpu_utilization,
)

#: The paper's load levels (packets per second); 0 = "No-load".
PAPER_LOADS_PPS = (0.0, 200_000.0, 300_000.0, 400_000.0, 450_000.0)
#: Where one SMux's CPU saturates (Figure 1b).
CAPACITY_PPS = 300_000.0
#: RTT samples per load level.
N_SAMPLES = 4000


@dataclass
class Fig01Result:
    latency_cdfs: Dict[float, Cdf]
    cpu_utilization: Dict[float, float]

    def rows(self) -> List[Tuple[str, str, str, str, str]]:
        rows = []
        for load in PAPER_LOADS_PPS:
            cdf = self.latency_cdfs[load]
            rows.append((
                "no-load" if load == 0 else f"{load / 1000:.0f}k",
                format_seconds(cdf.quantile(0.5)),
                format_seconds(cdf.quantile(0.9)),
                format_seconds(cdf.quantile(0.99)),
                f"{self.cpu_utilization[load]:.0f}%",
            ))
        return rows

    def render(self) -> str:
        return render_table(
            ("load(pps)", "median", "p90", "p99", "cpu"),
            self.rows(),
            title="Figure 1: SMux latency CDF quantiles and CPU utilization",
        )


def run() -> Fig01Result:
    """Sample end-to-end RTTs through one SMux per load level."""
    cdfs: Dict[float, Cdf] = {}
    cpu: Dict[float, float] = {}
    horizon = 600.0
    for load in PAPER_LOADS_PPS:
        rng = random.Random(hash(load) & 0xFFFF)
        phases = [LoadPhase(0.0, horizon, load)] if load > 0 else []
        station = MuxStation(SMUX_BASE_LATENCY, CAPACITY_PPS, phases)
        probe_at = horizon - 1.0
        samples = [
            NETWORK_RTT.sample(rng) + station.latency_sample(probe_at, rng)
            for _ in range(N_SAMPLES)
        ]
        cdfs[load] = Cdf.of(samples)
        cpu[load] = smux_cpu_utilization(load, CAPACITY_PPS)
    return Fig01Result(latency_cdfs=cdfs, cpu_utilization=cpu)
