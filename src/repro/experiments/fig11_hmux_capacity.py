"""Figure 11: a single HMux has higher capacity than several SMuxes.

Three phases, latency of pings to an unloaded VIP throughout:
600K pps over 3 SMuxes (fine, <1 ms), 1.2M pps over 3 SMuxes (each at
400K pps, far past saturation: latency in the tens of ms), then all
VIPs on one HMux at 1.2M pps (back to sub-ms) — "a single HMux instance
has higher capacity than at least 3 SMux instances".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis import format_seconds, render_table, timeseries_line
from repro.sim.pingmesh import PingSeries
from repro.sim.scenarios import (
    CAPACITY_HIGH_RATE_PPS,
    CAPACITY_LOW_RATE_PPS,
    HMuxCapacityConfig,
    ScenarioResult,
    run_hmux_capacity,
)


@dataclass
class Fig11Result:
    config: HMuxCapacityConfig
    scenario: ScenarioResult

    @property
    def series(self) -> PingSeries:
        return self.scenario["unloaded-vip"]

    def phase_windows(self) -> List[Tuple[str, float, float]]:
        t1 = self.config.phase_seconds
        return [
            (f"smux@{CAPACITY_LOW_RATE_PPS / 1e3:.0f}kpps", 0.0, t1),
            (f"smux@{CAPACITY_HIGH_RATE_PPS / 1e3:.0f}kpps", t1, 2 * t1),
            (f"hmux@{CAPACITY_HIGH_RATE_PPS / 1e3:.0f}kpps", 2 * t1, 3 * t1),
        ]

    def rows(self) -> List[Tuple[str, str, str, str]]:
        rows = []
        for name, lo, hi in self.phase_windows():
            window = self.series.window(lo, hi)
            rows.append((
                name,
                format_seconds(window.median_latency_s()),
                format_seconds(window.percentile_latency_s(90)),
                f"{window.availability() * 100:.1f}%",
            ))
        return rows

    def latency_timeline(self) -> str:
        """A sparkline of per-probe latency over the whole run (dropped
        probes appear as gaps), the visual shape of Figure 11."""
        times = [r.time_s for r in self.series.results]
        values = [
            r.latency_s if r.latency_s is not None else float("nan")
            for r in self.series.results
        ]
        return timeseries_line("latency", times, values, unit="s")

    def render(self) -> str:
        table = render_table(
            ("phase", "median", "p90", "availability"),
            self.rows(),
            title="Figure 11: latency per phase (SMux overload vs HMux)",
        )
        return f"{table}\n{self.latency_timeline()}"


def run(config: HMuxCapacityConfig = HMuxCapacityConfig(phase_seconds=20.0)) -> Fig11Result:
    return Fig11Result(config=config, scenario=run_hmux_capacity(config))
