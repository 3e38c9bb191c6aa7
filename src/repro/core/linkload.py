"""Network-wide link utilization under an assignment (paper S8.5).

Figure 19 measures the maximum link utilization in three states: the
healthy network, three random switch failures, and a whole-container
failure.  Failures move traffic in two ways: VIPs whose HMux died fail
over to the SMux backstop (their traffic now flows to the SMux racks),
and surviving flows re-route around dead elements over the remaining
ECMP paths.  The paper's headline: the worst link grows by no more than
~16%, comfortably inside the 20% headroom the assignment reserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import Assignment
from repro.net.failures import FailureScenario
from repro.net.routing import EcmpRouter, UnreachableError
from repro.net.topology import SwitchKind, Topology
from repro.workload.vips import VipDemand


def default_smux_tors(topology: Topology) -> List[int]:
    """Racks hosting the SMux fleet: every other rack of every container.

    Ananta-style deployments spread SMuxes "throughout the DC" (S2.1);
    concentrating the backstop would turn a failover into a new hotspot,
    so the default disperses failover traffic widely.
    """
    tors: List[int] = []
    for c in range(topology.n_containers):
        tors.extend(topology.tors(c)[::2])
    return tors


@dataclass
class UtilizationReport:
    """Per-link utilization plus bookkeeping about failover."""

    utilization: np.ndarray
    failover_traffic_bps: float
    dead_traffic_bps: float

    @property
    def max_utilization(self) -> float:
        if not len(self.utilization):
            return 0.0
        return float(self.utilization.max())


class LinkUtilizationComputer:
    """Places an assignment's traffic onto links under a failure state."""

    def __init__(
        self,
        topology: Topology,
        *,
        smux_tors: Optional[Sequence[int]] = None,
    ) -> None:
        self.topology = topology
        self.smux_tors = (
            list(smux_tors) if smux_tors is not None
            else default_smux_tors(topology)
        )

    def compute(
        self,
        assignment: Assignment,
        scenario: FailureScenario = FailureScenario.none(),
    ) -> UtilizationReport:
        """Utilization of every link with ``scenario`` applied.

        Each VIP's traffic flows ingress -> serving point(s) -> surviving
        DIP racks.  The serving point is its HMux if alive, else the SMux
        racks (split evenly).  Ingress from dead racks and VIPs with no
        surviving DIPs disappear (S8.5).
        """
        router = EcmpRouter(
            self.topology, scenario.failed_switches, scenario.failed_links,
        )
        load = np.zeros(self.topology.n_links)
        dead_tors = scenario.dead_tors(self.topology)
        alive_smux_tors = [
            t for t in self.smux_tors if t not in scenario.failed_switches
        ]
        failover = 0.0
        dead = 0.0
        for vip_id, demand in assignment.demands.items():
            switch = assignment.vip_to_switch.get(vip_id)
            if switch is not None and switch in scenario.failed_switches:
                switch = None  # fail over to SMux
                failed_over = True
            else:
                failed_over = switch is None
            if switch is not None:
                serving = [(switch, 1.0)]
            else:
                if not alive_smux_tors:
                    dead += demand.traffic_bps
                    continue
                share = 1.0 / len(alive_smux_tors)
                serving = [(t, share) for t in alive_smux_tors]
            placed = self._place_vip(
                router, load, demand, serving, dead_tors
            )
            if placed == 0.0:
                dead += demand.traffic_bps
            elif failed_over:
                failover += placed
        capacity = np.asarray(self.topology.link_capacities())
        return UtilizationReport(
            utilization=load / capacity,
            failover_traffic_bps=failover,
            dead_traffic_bps=dead,
        )

    def _place_vip(
        self,
        router: EcmpRouter,
        load: np.ndarray,
        demand: VipDemand,
        serving: Sequence[Tuple[int, float]],
        dead_tors: set,
    ) -> float:
        """Add one VIP's flows to ``load``; returns the traffic placed."""
        alive_dip_tors = [
            (tor, count) for tor, count in demand.dip_tors
            if tor not in dead_tors
        ]
        alive_dips = sum(count for _, count in alive_dip_tors)
        if alive_dips == 0:
            return 0.0
        cores = [
            c for c in self.topology.cores()
            if c not in router.failed_switches
        ]
        alive_tors = [
            t for t in self.topology.tors()
            if t not in router.failed_switches
        ]
        placed = 0.0
        for point, share in serving:
            # Ingress legs.
            for tor, fraction in demand.ingress_racks:
                if tor in dead_tors:
                    continue
                volume = demand.traffic_bps * fraction * share
                if self._add(router, load, tor, point, volume):
                    placed += volume
            if demand.internet_fraction > 0 and cores:
                per_core = (
                    demand.traffic_bps * demand.internet_fraction
                    * share / len(cores)
                )
                for core in cores:
                    if self._add(router, load, core, point, per_core):
                        placed += per_core
            # Diffuse intra ingress: uniformly from every alive rack.
            diffuse = demand.diffuse_intra_fraction
            if diffuse > 1e-12 and alive_tors:
                per_tor = (
                    demand.traffic_bps * diffuse * share / len(alive_tors)
                )
                for tor in alive_tors:
                    if tor == point:
                        placed += per_tor  # sourced at the serving switch
                        continue
                    if self._add(router, load, tor, point, per_tor):
                        placed += per_tor
            # DIP legs: surviving DIPs share the placed traffic; resilient
            # hashing spreads the dead DIPs' flows over the survivors.
            arriving = demand.traffic_bps * share
            for tor, count in alive_dip_tors:
                volume = arriving * count / alive_dips
                self._add(router, load, point, tor, volume)
        return placed

    def _add(
        self,
        router: EcmpRouter,
        load: np.ndarray,
        src: int,
        dst: int,
        volume: float,
    ) -> bool:
        if volume <= 0:
            return False
        try:
            fractions = router.path_fractions(src, dst)
        except UnreachableError:
            return False
        for link, fraction in fractions.items():
            load[link] += volume * fraction
        return True
