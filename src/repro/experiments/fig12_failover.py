"""Figure 12: VIP availability during HMux failure.

One switch is failed 100 ms into the run.  The VIP assigned to it goes
dark for the failure-detection + BGP-withdrawal window (~38 ms in the
paper), then its very next probes are answered by the SMux backstop —
while VIPs on other HMuxes and on SMuxes never miss a probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis import format_seconds, render_table, timeseries_line
from repro.sim.scenarios import ScenarioResult, run_failover


@dataclass
class Fig12Result:
    scenario: ScenarioResult

    @property
    def failover_window_s(self) -> float:
        return self.scenario.notes["t_recover_s"] - self.scenario.notes["t_fail_s"]

    def observed_outage_s(self, label: str = "vip3-failed-hmux") -> float:
        return self.scenario[label].outage_s()

    def rows(self) -> List[Tuple[str, str, str, str, str]]:
        rows = []
        t_fail = self.scenario.notes["t_fail_s"]
        for label, series in sorted(self.scenario.series.items()):
            after = series.window(t_fail + self.failover_window_s + 0.001, 10.0)
            rows.append((
                label,
                f"{series.availability() * 100:.2f}%",
                format_seconds(series.outage_s()),
                after.serving_mux_at(after.results[0].time_s) if len(after) else "-",
                format_seconds(after.median_latency_s()) if len(after.latencies_s()) else "-",
            ))
        return rows

    def timelines(self) -> str:
        lines = []
        for label, series in sorted(self.scenario.series.items()):
            times = [r.time_s for r in series.results]
            values = [
                r.latency_s if r.latency_s is not None else float("nan")
                for r in series.results
            ]
            lines.append(timeseries_line(label, times, values, unit="s"))
        return "\n".join(lines)

    def render(self) -> str:
        table = render_table(
            ("vip", "availability", "outage", "via-after", "median-after"),
            self.rows(),
            title=(
                "Figure 12: availability during HMux failure "
                f"(modelled failover window {self.failover_window_s * 1e3:.0f} ms)"
            ),
        )
        return f"{table}\n{self.timelines()}"


def run() -> Fig12Result:
    return Fig12Result(scenario=run_failover())
