"""Shared scaffolding for the paper-figure experiments.

The paper's simulations run at production scale (40 containers, 1600
ToRs, 30K VIPs).  Every experiment here is parameterized by an
:class:`ExperimentScale`; the ``small`` scale keeps the same topology
*shape* (hierarchy, capacity ratios, skew) at a size that runs in
seconds, and ``paper`` reproduces the published dimensions for users
with more patience.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Sequence, Tuple

from repro.net.topology import FatTreeParams, Topology, paper_scale
from repro.workload.distributions import DipCountModel, IngressModel, TrafficSkew
from repro.workload.vips import VipPopulation, generate_population

#: Paper: 15 Tbps over ~50K servers — about 300 Mbps of VIP traffic per
#: server at full load.
PER_SERVER_BPS = 300e6


@dataclass(frozen=True)
class ExperimentScale:
    """Topology/workload size of a simulation experiment."""

    name: str
    params: FatTreeParams
    n_vips: int
    per_server_bps: float = PER_SERVER_BPS
    seed: int = 0
    skew: TrafficSkew = TrafficSkew()
    dip_model: DipCountModel = DipCountModel()
    ingress: IngressModel = IngressModel()

    @property
    def total_traffic_bps(self) -> float:
        return self.params.n_servers * self.per_server_bps

    def with_traffic(self, total_bps: float) -> "ExperimentScale":
        return replace(
            self, per_server_bps=total_bps / self.params.n_servers
        )


def small_scale(seed: int = 0) -> ExperimentScale:
    """Fast default: same shape as the paper's DC, ~1/50 the size."""
    return ExperimentScale(
        name="small",
        params=FatTreeParams(
            n_containers=6,
            tors_per_container=6,
            aggs_per_container=3,
            n_cores=6,
            servers_per_tor=24,
        ),
        n_vips=600,
        dip_model=DipCountModel(median_large=40.0, max_dips=120),
        seed=seed,
    )


def medium_scale(seed: int = 0) -> ExperimentScale:
    """A minutes-long scale for higher-fidelity runs."""
    return ExperimentScale(
        name="medium",
        params=FatTreeParams(
            n_containers=10,
            tors_per_container=10,
            aggs_per_container=3,
            n_cores=9,
            servers_per_tor=32,
        ),
        n_vips=2000,
        dip_model=DipCountModel(median_large=80.0, max_dips=300),
        seed=seed,
    )


def paper_scale_experiment(seed: int = 0) -> ExperimentScale:
    """The published dimensions (S8.1): 40 containers, 1600 ToRs, 30K
    VIPs, ~15 Tbps.  Hours of CPU in pure Python — offered for
    completeness, not used by the default benches."""
    return ExperimentScale(
        name="paper",
        params=paper_scale(),
        n_vips=30_000,
        seed=seed,
    )


def build_world(
    scale: ExperimentScale, **overrides: Any,
) -> Tuple[Topology, VipPopulation]:
    """Materialize the topology and VIP population for a scale;
    ``overrides`` adds keywords of :func:`generate_population`."""
    topology = Topology(scale.params)
    population = generate_population(
        topology,
        n_vips=scale.n_vips,
        total_traffic_bps=scale.total_traffic_bps,
        skew=scale.skew,
        dip_model=scale.dip_model,
        ingress=scale.ingress,
        seed=scale.seed,
        **overrides,
    )
    return topology, population


def traffic_sweep_points(scale: ExperimentScale) -> List[float]:
    """The Figure 16/18 sweep: 1.25/2.5/5/10 Tbps at paper scale, i.e.
    1/12, 1/6, 1/3, 2/3 of the nominal total — mapped proportionally to
    the experiment scale."""
    nominal = scale.params.n_servers * PER_SERVER_BPS
    return [nominal * f for f in (1 / 12, 1 / 6, 1 / 3, 2 / 3)]
