"""Figure 17: latency vs. number of SMuxes (Ananta curve, Duet point).

Hold the VIP traffic constant and sweep the Ananta fleet size: with as
few SMuxes as Duet uses, Ananta's median latency is milliseconds (every
SMux saturated); it takes a fleet 1-2 orders of magnitude larger to
approach Duet's median, which is dominated by the plain network RTT
because nearly all traffic rides HMuxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis import format_seconds, render_table
from repro.core.assignment import GreedyAssigner
from repro.core.provisioning import ProvisioningConfig, duet_provisioning
from repro.dataplane.packet import DEFAULT_PACKET_BYTES, bps_to_pps
from repro.dataplane.smux import SMUX_CAPACITY_PPS
from repro.experiments.common import ExperimentScale, build_world, small_scale
from repro.sim.deployment import DeploymentLatencyConfig, DeploymentLatencyModel


@dataclass
class Fig17Result:
    traffic_bps: float
    duet_n_smuxes: int
    duet_median_s: float
    duet_hmux_fraction: float
    ananta_curve: List[Tuple[int, float]]  # (n_smuxes, median latency s)

    def ananta_median_at(self, n_smuxes: int) -> float:
        for count, latency in self.ananta_curve:
            if count >= n_smuxes:
                return latency
        return self.ananta_curve[-1][1]

    def ananta_parity_smuxes(self, tolerance: float = 1.5) -> Optional[int]:
        """Smallest swept fleet where Ananta comes within ``tolerance``x
        of Duet's median latency."""
        for count, latency in self.ananta_curve:
            if latency <= self.duet_median_s * tolerance:
                return count
        return None

    def rows(self) -> List[Tuple[str, str, str]]:
        rows = [(
            "duet", str(self.duet_n_smuxes), format_seconds(self.duet_median_s),
        )]
        for count, latency in self.ananta_curve:
            rows.append(("ananta", str(count), format_seconds(latency)))
        return rows

    def render(self) -> str:
        return render_table(
            ("system", "n_smuxes", "median-latency"),
            self.rows(),
            title=(
                "Figure 17: median latency vs #SMuxes at "
                f"{self.traffic_bps / 1e12:.2f} Tbps "
                f"(Duet HMux coverage {self.duet_hmux_fraction * 100:.1f}%)"
            ),
        )


def run(
    scale: ExperimentScale = small_scale(),
    ananta_sweep: Optional[List[int]] = None,
) -> Fig17Result:
    topology, population = build_world(scale)
    total = population.total_traffic_bps
    assignment = GreedyAssigner(topology).assign(population.demands())
    provisioning = duet_provisioning(assignment, topology, ProvisioningConfig())
    model = DeploymentLatencyModel(DeploymentLatencyConfig(seed=scale.seed))
    coverage = assignment.hmux_traffic_fraction()
    duet_median = model.duet_median_rtt_s(
        total, coverage, provisioning.n_smuxes
    )
    if ananta_sweep is None:
        # Geometric sweep from "Duet-sized" up to CPU-unsaturated, the
        # x-axis of the paper's figure.
        base = max(1, provisioning.n_smuxes)
        needed = int(
            bps_to_pps(total, DEFAULT_PACKET_BYTES) / SMUX_CAPACITY_PPS
        )
        ananta_sweep = sorted({
            base,
            max(2, needed // 8),
            max(2, needed // 4),
            max(2, needed // 2),
            max(2, int(needed * 0.9)),
            max(2, int(needed * 1.2)),
            max(2, needed * 2),
            max(2, needed * 4),
        })
    curve = [
        (count, model.ananta_median_rtt_s(total, count))
        for count in ananta_sweep
    ]
    return Fig17Result(
        traffic_bps=total,
        duet_n_smuxes=provisioning.n_smuxes,
        duet_median_s=duet_median,
        duet_hmux_fraction=coverage,
        ananta_curve=curve,
    )
