"""Figure 14: breakdown of VIP migration latency.

Per-operation control-plane latencies for (a) adding and (b) deleting a
VIP: DIP-table programming, VIP FIB update, and BGP propagation.  The
paper's observation — "almost all (80-90%) of the migration delay is due
to the latency of adding/removing the VIP to/from the FIB" — should
fall straight out of the component statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis import format_seconds, render_table
from repro.net.bgp import BgpTimings
from repro.sim.control import (
    BreakdownStats,
    ControlPlaneModel,
    OperationSample,
    breakdown,
)


#: Adds and deletes sampled per operation.
N_TRIALS = 200


@dataclass
class Fig14Result:
    add_samples: List[OperationSample]
    delete_samples: List[OperationSample]

    def add_breakdown(self) -> List[BreakdownStats]:
        return breakdown(self.add_samples)

    def delete_breakdown(self) -> List[BreakdownStats]:
        return breakdown(self.delete_samples)

    def fib_share(self) -> float:
        """Fraction of total migration delay spent in the FIB update."""
        total = sum(s.total_s for s in self.add_samples + self.delete_samples)
        fib = sum(s.fib_update_s for s in self.add_samples + self.delete_samples)
        return fib / total

    def rows(self) -> List[Tuple[str, str, str, str, str]]:
        rows = []
        for op, stats in (
            ("add", self.add_breakdown()),
            ("delete", self.delete_breakdown()),
        ):
            for stat in stats:
                rows.append((
                    op,
                    stat.component,
                    format_seconds(stat.p10_s),
                    format_seconds(stat.median_s),
                    format_seconds(stat.p90_s),
                ))
        return rows

    def render(self) -> str:
        table = render_table(
            ("operation", "component", "p10", "median", "p90"),
            self.rows(),
            title="Figure 14: migration latency breakdown",
        )
        return (
            f"{table}\n"
            f"FIB update share of total delay: {self.fib_share() * 100:.0f}%"
        )


def run() -> Fig14Result:
    model = ControlPlaneModel(BgpTimings(), seed=0)
    adds = [model.sample_add() for _ in range(N_TRIALS)]
    deletes = [model.sample_delete() for _ in range(N_TRIALS)]
    return Fig14Result(add_samples=adds, delete_samples=deletes)
