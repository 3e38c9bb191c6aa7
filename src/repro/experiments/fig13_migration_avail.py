"""Figure 13: VIP availability during migration.

Three concurrent migrations (HMux->SMux, SMux->HMux, HMux->HMux via the
SMux stepping stone).  Unlike failure, migration is make-before-break:
no probe is ever lost; only the serving mux — and hence the latency
band — changes, ~450 ms after each controller command (the FIB update
dominates, Figure 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis import format_seconds, render_table
from repro.sim.scenarios import ScenarioResult, run_migration


@dataclass
class Fig13Result:
    scenario: ScenarioResult

    @property
    def first_migration_delay_s(self) -> float:
        return self.scenario.notes["t2_s"] - self.scenario.notes["t1_s"]

    @property
    def second_migration_delay_s(self) -> float:
        return self.scenario.notes["t3_s"] - self.scenario.notes["t2_s"]

    def mux_timeline(self, label: str) -> List[Tuple[float, str]]:
        """(time, serving mux) change points for one VIP."""
        series = self.scenario[label]
        timeline: List[Tuple[float, str]] = []
        last = None
        for result in series.results:
            if result.via != last:
                timeline.append((result.time_s, result.via))
                last = result.via
        return timeline

    def rows(self) -> List[Tuple[str, str, str, str]]:
        rows = []
        for label, series in sorted(self.scenario.series.items()):
            path = " -> ".join(via for _, via in self.mux_timeline(label))
            rows.append((
                label,
                f"{series.availability() * 100:.2f}%",
                path,
                format_seconds(series.median_latency_s()),
            ))
        return rows

    def render(self) -> str:
        return render_table(
            ("vip", "availability", "serving-path", "median-latency"),
            self.rows(),
            title=(
                "Figure 13: availability during migration "
                f"(delays {self.first_migration_delay_s * 1e3:.0f} ms / "
                f"{self.second_migration_delay_s * 1e3:.0f} ms)"
            ),
        )


def run() -> Fig13Result:
    return Fig13Result(scenario=run_migration())
