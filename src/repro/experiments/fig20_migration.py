"""Figure 20: effectiveness of the migration algorithms over the trace.

Replay the multi-epoch trace under Sticky, Non-sticky and One-time
re-assignment (S8.6):

(a) the fraction of VIP traffic handled by HMuxes per epoch — One-time
    decays as traffic drifts; Sticky tracks Non-sticky almost exactly;
(b) the fraction of traffic shuffled through the SMux stepping stone per
    epoch — Sticky an order of magnitude below Non-sticky;
(c) the SMux fleet each needs, counting VIP leftover, failover and
    transition traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import render_series, render_table
from repro.core.assignment import Assignment, AssignmentConfig
from repro.core.migration import (
    DEFAULT_STICKY_DELTA,
    MigrationPlan,
    NonStickyMigrator,
    OneTimeMigrator,
    StickyMigrator,
)
from repro.core.provisioning import (
    ProvisioningConfig,
    ananta_smux_count,
    duet_provisioning,
)
from repro.experiments.common import ExperimentScale, build_world, small_scale
from repro.workload.trace import TraceConfig, TraceGenerator


@dataclass
class StrategyTrack:
    """Per-epoch series for one migration strategy."""

    name: str
    coverage: List[float] = field(default_factory=list)
    shuffled: List[float] = field(default_factory=list)
    migration_peaks_bps: List[float] = field(default_factory=list)
    final_assignment: Optional[Assignment] = None

    @property
    def mean_coverage(self) -> float:
        return float(np.mean(self.coverage))

    @property
    def mean_shuffled(self) -> float:
        # Epoch 0 is initial placement, not migration; skip it.
        if len(self.shuffled) <= 1:
            return 0.0
        return float(np.mean(self.shuffled[1:]))

    @property
    def peak_migration_bps(self) -> float:
        if len(self.migration_peaks_bps) <= 1:
            return 0.0
        return max(self.migration_peaks_bps[1:])


@dataclass
class Fig20Result:
    tracks: Dict[str, StrategyTrack]
    smux_counts: Dict[str, int]
    epochs: int

    def rows(self) -> List[Tuple[str, str, str, str]]:
        rows = []
        for name, track in self.tracks.items():
            rows.append((
                name,
                f"{track.mean_coverage * 100:.1f}%",
                f"{track.mean_shuffled * 100:.2f}%",
                str(self.smux_counts.get(name, 0)),
            ))
        rows.append((
            "ananta", "0.0%", "-", str(self.smux_counts["ananta"]),
        ))
        return rows

    def render(self) -> str:
        table = render_table(
            ("strategy", "mean-HMux-coverage", "mean-traffic-shuffled", "n-smuxes"),
            self.rows(),
            title=f"Figure 20: migration strategies over {self.epochs} epochs",
        )
        series = [
            render_series(
                f"coverage[{name}]",
                list(enumerate(track.coverage)),
                x_label="epoch", y_label="fraction on HMux",
            )
            for name, track in self.tracks.items()
        ]
        return "\n".join([table] + series)


def run(
    scale: ExperimentScale = small_scale(),
    trace_config: TraceConfig = TraceConfig(),
    *,
    sticky_delta: float = DEFAULT_STICKY_DELTA,
    assignment_config: AssignmentConfig = AssignmentConfig(),
    provisioning_config: ProvisioningConfig = ProvisioningConfig(),
    traffic_factor: float = 1.8,
) -> Fig20Result:
    """Replay the trace under all three strategies.

    ``traffic_factor`` pushes the load toward the capacity region where
    the paper operates (its HMuxes run near the 16K-VIP and link limits);
    a One-time assignment only decays when drift actually collides with
    capacity, so an underloaded network would make it look artificially
    perfect.
    """
    scale = scale.with_traffic(scale.total_traffic_bps * traffic_factor)
    topology, population = build_world(scale)
    epochs = TraceGenerator(population, trace_config, seed=scale.seed).epochs()
    strategies = {
        "sticky": StickyMigrator(
            topology, assignment_config, delta=sticky_delta,
        ),
        "non-sticky": NonStickyMigrator(topology, assignment_config),
        "one-time": OneTimeMigrator(topology, assignment_config),
    }
    tracks: Dict[str, StrategyTrack] = {}
    total_traffic_peak = 0.0
    for name, migrator in strategies.items():
        track = StrategyTrack(name=name)
        current: Optional[Assignment] = None
        for epoch in epochs:
            current, plan = migrator.reassign(current, list(epoch.demands))
            track.coverage.append(current.hmux_traffic_fraction())
            track.shuffled.append(plan.shuffled_fraction)
            track.migration_peaks_bps.append(plan.traffic_shuffled_bps)
            total_traffic_peak = max(total_traffic_peak, epoch.total_traffic_bps)
        track.final_assignment = current
        tracks[name] = track

    smux_counts: Dict[str, int] = {}
    for name, track in tracks.items():
        assert track.final_assignment is not None
        provisioning = duet_provisioning(
            track.final_assignment,
            topology,
            provisioning_config,
            migration_peak_bps=track.peak_migration_bps,
        )
        smux_counts[name] = provisioning.n_smuxes
    smux_counts["ananta"] = ananta_smux_count(
        total_traffic_peak, provisioning_config.smux_capacity_bps
    )
    return Fig20Result(
        tracks=tracks, smux_counts=smux_counts, epochs=len(epochs)
    )
