"""Figure 18: Duet's MRU-greedy assignment vs the Random baseline.

Same traffic sweep as Figure 16, but the comparison is between
assignment algorithms: Random (first feasible switch, FFD order) leaves
far more VIP traffic unassigned / provisions far more failover, costing
120%-307% more SMuxes in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis import format_si, render_table
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.baselines import RandomAssigner
from repro.core.provisioning import ProvisioningConfig, duet_provisioning
from repro.experiments.common import (
    ExperimentScale,
    build_world,
    small_scale,
    traffic_sweep_points,
)


@dataclass
class Fig18Point:
    traffic_bps: float
    duet_smuxes: int
    random_smuxes: int
    duet_coverage: float
    random_coverage: float

    @property
    def extra_fraction(self) -> float:
        """How many more SMuxes Random needs, as a fraction of Duet's."""
        return (self.random_smuxes - self.duet_smuxes) / max(1, self.duet_smuxes)


@dataclass
class Fig18Result:
    scale_name: str
    points: List[Fig18Point]

    def rows(self) -> List[Tuple[str, str, str, str, str, str]]:
        return [
            (
                format_si(p.traffic_bps, "bps"),
                str(p.duet_smuxes),
                str(p.random_smuxes),
                f"{p.extra_fraction * 100:+.0f}%",
                f"{p.duet_coverage * 100:.1f}%",
                f"{p.random_coverage * 100:.1f}%",
            )
            for p in self.points
        ]

    def render(self) -> str:
        return render_table(
            (
                "traffic", "duet-smuxes", "random-smuxes", "random-extra",
                "duet-coverage", "random-coverage",
            ),
            self.rows(),
            title=f"Figure 18: SMuxes, Duet vs Random assignment [{self.scale_name}]",
        )


def stress_sweep_points(scale: ExperimentScale) -> List[float]:
    """A sweep reaching the capacity region where assignment quality
    matters.  Random's penalty (the paper's 120-307%) only shows once the
    network is loaded enough that a bad packing strands capacity; at
    light load any feasible placement works.
    """
    from repro.experiments.common import PER_SERVER_BPS

    nominal = scale.params.n_servers * PER_SERVER_BPS
    return [nominal * f for f in (1 / 3, 2 / 3, 1.0, 1.4, 1.8)]


def run(
    scale: ExperimentScale = small_scale(),
    traffic_points: Optional[List[float]] = None,
) -> Fig18Result:
    points = traffic_points or stress_sweep_points(scale)
    results: List[Fig18Point] = []
    for traffic in points:
        sized = scale.with_traffic(traffic)
        topology, population = build_world(sized)
        demands = population.demands()
        duet = GreedyAssigner(topology).assign(demands)
        rand = RandomAssigner(topology).assign(demands)
        config = ProvisioningConfig()
        results.append(Fig18Point(
            traffic_bps=population.total_traffic_bps,
            duet_smuxes=duet_provisioning(duet, topology, config).n_smuxes,
            random_smuxes=duet_provisioning(rand, topology, config).n_smuxes,
            duet_coverage=duet.hmux_traffic_fraction(),
            random_coverage=rand.hmux_traffic_fraction(),
        ))
    return Fig18Result(scale_name=scale.name, points=results)
