"""Ablations of Duet's design choices (DESIGN.md S5).

The paper fixes several constants and mechanisms; each function here
varies one of them while holding the rest of the system still:

* ``sticky_delta_sweep`` — the 5% migration threshold (S4.2) against the
  traffic-shuffled / coverage trade-off,
* ``headroom_sweep`` — the 20% link-capacity reservation (S4) against
  failure-time congestion absorption (Figure 19's margin),
* ``decomposition_ablation`` — the container decomposition of Figure 5:
  same assignment quality, a fraction of the runtime,
* ``ordering_ablation`` — the decreasing-traffic VIP order (S4.1, S9)
  against the alternatives,
* ``replication_ablation`` — k-replica VIPs (S9): SMux exposure bought
  with switch memory,
* ``refinement_ablation`` — one greedy pass vs local-search refinement
  (S9's "more sophisticated bin packing").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import format_si, render_table
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.baselines import FirstFitAssigner, RandomAssigner
from repro.core.linkload import LinkUtilizationComputer
from repro.core.migration import StickyMigrator
from repro.core.refine import AssignmentRefiner
from repro.core.replication import ReplicatedAssigner
from repro.net.failures import container_failure
from repro.experiments.common import ExperimentScale, build_world, small_scale
from repro.workload.trace import TraceConfig, TraceGenerator


@dataclass
class AblationTable:
    """A titled rows-and-headers result shared by every ablation."""

    title: str
    headers: Tuple[str, ...]
    rows: List[Tuple[str, ...]]
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def sticky_delta_sweep(
    scale: ExperimentScale = small_scale(),
    deltas: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.25),
    n_epochs: int = 6,
    traffic_factor: float = 1.5,
) -> AblationTable:
    """Vary the Sticky threshold delta (the paper uses 0.05)."""
    scale = scale.with_traffic(scale.total_traffic_bps * traffic_factor)
    topology, population = build_world(scale)
    epochs = TraceGenerator(
        population, TraceConfig(n_epochs=n_epochs), seed=scale.seed
    ).epochs()
    rows = []
    data: Dict[str, object] = {}
    for delta in deltas:
        migrator = StickyMigrator(topology, delta=delta)
        current = None
        coverage: List[float] = []
        shuffled: List[float] = []
        for epoch in epochs:
            current, plan = migrator.reassign(current, list(epoch.demands))
            coverage.append(current.hmux_traffic_fraction())
            if epoch.index > 0:
                shuffled.append(plan.shuffled_fraction)
        mean_cov = sum(coverage) / len(coverage)
        mean_shuf = sum(shuffled) / max(1, len(shuffled))
        rows.append((
            f"{delta:.2f}",
            f"{mean_cov * 100:.1f}%",
            f"{mean_shuf * 100:.2f}%",
        ))
        data[f"delta={delta}"] = (mean_cov, mean_shuf)
    return AblationTable(
        title="Ablation: Sticky threshold delta (paper: 0.05)",
        headers=("delta", "mean-HMux-coverage", "mean-traffic-shuffled"),
        rows=rows,
        data=data,
    )


def headroom_sweep(
    scale: ExperimentScale = small_scale(),
    headrooms: Sequence[float] = (1.0, 0.9, 0.8, 0.7),
) -> AblationTable:
    """Vary the link-capacity reservation (the paper keeps 20% back)."""
    topology, population = build_world(scale)
    demands = population.demands()
    computer = LinkUtilizationComputer(topology)
    rows = []
    data: Dict[str, object] = {}
    for headroom in headrooms:
        config = AssignmentConfig(link_headroom=headroom)
        assignment = GreedyAssigner(topology, config).assign(demands)
        normal = computer.compute(assignment).max_utilization
        worst_fail = max(
            computer.compute(
                assignment, container_failure(topology, c)
            ).max_utilization
            for c in range(topology.n_containers)
        )
        rows.append((
            f"{(1 - headroom) * 100:.0f}%",
            f"{assignment.hmux_traffic_fraction() * 100:.1f}%",
            f"{normal:.3f}",
            f"{worst_fail:.3f}",
            "yes" if worst_fail <= 1.0 else "NO",
        ))
        data[f"headroom={headroom}"] = (normal, worst_fail)
    return AblationTable(
        title="Ablation: link headroom reservation (paper: 20%)",
        headers=(
            "reserved", "coverage", "normal-MLU",
            "worst-container-fail-MLU", "absorbed",
        ),
        rows=rows,
        data=data,
    )


def decomposition_ablation(
    scale: Optional[ExperimentScale] = None,
) -> AblationTable:
    """Container decomposition (Figure 5) vs exhaustive candidates.

    Run on a wide topology by default (many ToRs per container, like the
    paper's 40): that is where shrinking the ToR candidate set from
    |S_tor| to |C| pays off.
    """
    if scale is None:
        from repro.net.topology import FatTreeParams
        from repro.workload.distributions import DipCountModel

        scale = ExperimentScale(
            name="wide",
            params=FatTreeParams(
                n_containers=4, tors_per_container=20,
                aggs_per_container=2, n_cores=4, servers_per_tor=12,
            ),
            n_vips=300,
            dip_model=DipCountModel(median_large=30.0, max_dips=80),
        )
    topology, population = build_world(scale)
    demands = population.demands()
    rows = []
    data: Dict[str, object] = {}
    for strategy in ("exhaustive", "container-best-tor"):
        config = AssignmentConfig(candidate_strategy=strategy)
        started = time.monotonic()
        assignment = GreedyAssigner(topology, config).assign(demands)
        elapsed = time.monotonic() - started
        rows.append((
            strategy,
            f"{elapsed:.2f}s",
            f"{assignment.mru:.3f}",
            f"{assignment.hmux_traffic_fraction() * 100:.1f}%",
        ))
        data[strategy] = (elapsed, assignment.mru)
    return AblationTable(
        title="Ablation: candidate strategy (Figure 5 decomposition)",
        headers=("strategy", "runtime", "MRU", "coverage"),
        rows=rows,
        data=data,
    )


def ordering_ablation(
    scale: ExperimentScale = small_scale(),
    traffic_factor: float = 1.6,
) -> AblationTable:
    """VIP processing order (S4.1 default: decreasing traffic)."""
    scale = scale.with_traffic(scale.total_traffic_bps * traffic_factor)
    topology, population = build_world(scale)
    demands = population.demands()
    rows = []
    data: Dict[str, object] = {}
    for order in ("traffic-desc", "traffic-asc", "dips-desc", "random"):
        config = AssignmentConfig(
            vip_order=order, stop_on_first_failure=False,
        )
        assignment = GreedyAssigner(topology, config).assign(demands)
        rows.append((
            order,
            f"{assignment.hmux_traffic_fraction() * 100:.1f}%",
            f"{assignment.mru:.3f}",
            str(len(assignment.unassigned)),
        ))
        data[order] = assignment.hmux_traffic_fraction()
    return AblationTable(
        title="Ablation: VIP processing order (paper: traffic-desc)",
        headers=("order", "coverage", "MRU", "unassigned"),
        rows=rows,
        data=data,
    )


def replication_ablation(
    scale: ExperimentScale = small_scale(),
    replica_counts: Sequence[int] = (1, 2, 3),
) -> AblationTable:
    """k-replica VIP placement (S9): exposure vs memory cost."""
    topology, population = build_world(scale)
    demands = population.demands()
    rows = []
    data: Dict[str, object] = {}
    for k in replica_counts:
        result = ReplicatedAssigner(topology, replicas=k).assign(demands)
        worst_exposure = max(
            result.smux_exposure_bps(container_failure(topology, c))
            for c in range(topology.n_containers)
        )
        rows.append((
            str(k),
            f"{result.hmux_traffic_fraction() * 100:.1f}%",
            str(result.memory_cost_entries()),
            format_si(worst_exposure, "bps"),
        ))
        data[f"k={k}"] = (result.memory_cost_entries(), worst_exposure)
    return AblationTable(
        title="Ablation: VIP replication (S9) — exposure vs memory",
        headers=(
            "replicas", "coverage", "tunnel-entries-used",
            "worst-container-fail SMux exposure",
        ),
        rows=rows,
        data=data,
    )


def refinement_ablation(
    scale: ExperimentScale = small_scale(),
) -> AblationTable:
    """One greedy pass vs refinement, starting from several initials."""
    topology, population = build_world(scale)
    demands = population.demands()
    refiner = AssignmentRefiner(topology)
    initials = {
        "greedy": GreedyAssigner(topology).assign(demands),
        "random": RandomAssigner(topology).assign(demands),
        "first-fit": FirstFitAssigner(topology).assign(demands),
    }
    rows = []
    data: Dict[str, object] = {}
    for name, assignment in initials.items():
        result = refiner.refine(assignment)
        rows.append((
            name,
            f"{result.initial_mru:.3f}",
            f"{result.final_mru:.3f}",
            str(result.moves),
        ))
        data[name] = (result.initial_mru, result.final_mru)
    return AblationTable(
        title="Ablation: local-search refinement (S9) from each initial",
        headers=("initial", "MRU before", "MRU after", "moves"),
        rows=rows,
        data=data,
    )


def latency_first_ablation(
    scale: ExperimentScale = small_scale(),
    traffic_factor: float = 2.2,
    sensitive_fraction: float = 0.25,
) -> AblationTable:
    """S9: "consider VIPs with latency sensitive traffic first".

    Run the network past its HMux capacity so some VIPs must spill to
    SMuxes, and measure what fraction of *latency-sensitive* traffic
    stays on the microsecond path under each ordering.
    """
    scale = scale.with_traffic(scale.total_traffic_bps * traffic_factor)
    topology, population = build_world(
        scale, latency_sensitive_fraction=sensitive_fraction,
    )
    demands = population.demands()
    sensitive_total = sum(
        d.traffic_bps for d in demands if d.latency_sensitive
    )
    rows = []
    data: Dict[str, object] = {}
    for order in ("traffic-desc", "latency-first"):
        config = AssignmentConfig(
            vip_order=order, stop_on_first_failure=False,
        )
        assignment = GreedyAssigner(topology, config).assign(demands)
        on_hmux = sum(
            assignment.demands[vid].traffic_bps
            for vid in assignment.vip_to_switch
            if assignment.demands[vid].latency_sensitive
        )
        sensitive_coverage = (
            on_hmux / sensitive_total if sensitive_total > 0 else 1.0
        )
        rows.append((
            order,
            f"{assignment.hmux_traffic_fraction() * 100:.1f}%",
            f"{sensitive_coverage * 100:.1f}%",
        ))
        data[order] = sensitive_coverage
    return AblationTable(
        title=(
            "Ablation: latency-sensitive-first ordering (S9) under "
            "HMux capacity pressure"
        ),
        headers=("order", "total-coverage", "latency-sensitive-coverage"),
        rows=rows,
        data=data,
    )


ALL_ABLATIONS = {
    "sticky-delta": sticky_delta_sweep,
    "headroom": headroom_sweep,
    "decomposition": decomposition_ablation,
    "ordering": ordering_ablation,
    "replication": replication_ablation,
    "refinement": refinement_ablation,
    "latency-first": latency_first_ablation,
}
