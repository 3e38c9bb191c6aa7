"""VIP replication across multiple HMuxes (paper S3.3 / S9 extension).

The paper notes that "replicating VIP across a few switches may help
improve failure resilience" and revisits the idea in S9 ("it may be
possible to handle failover and migration by replicating VIP entries in
multiple HMuxes"), while warning the design gets complex.  This module
implements the straightforward version so its trade-off can be measured:

* each VIP's /32 is announced by ``k`` switches; BGP ECMP splits its
  traffic evenly among them, so each replica carries 1/k of the volume
  but must hold the *full* DIP set in its tables (memory is paid k
  times);
* when one replica dies, flows shift to the surviving replicas via local
  ECMP re-hash — no SMux fallback window — and, because every replica
  uses the same hash layout, connections are preserved;
* only a VIP with zero surviving replicas falls back to the SMuxes.

The ablation bench (`bench_ablations.py`) measures the cost (extra switch
memory, lower per-switch packing headroom) against the benefit (failover
traffic exposure with k replicas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import (
    AssignmentConfig,
    AssignmentError,
    GreedyAssigner,
)
from repro.net.failures import FailureScenario
from repro.net.topology import Topology
from repro.workload.vips import VipDemand


@dataclass
class ReplicatedAssignment:
    """Each VIP on up to ``k`` switches."""

    topology: Topology
    config: AssignmentConfig
    replicas: int
    vip_to_switches: Dict[int, Tuple[int, ...]]
    unassigned: List[int]
    link_utilization: np.ndarray
    memory_utilization: np.ndarray
    demands: Dict[int, VipDemand]

    @property
    def mru(self) -> float:
        peak = 0.0
        if len(self.link_utilization):
            peak = float(self.link_utilization.max())
        if len(self.memory_utilization):
            peak = max(peak, float(self.memory_utilization.max()))
        return peak

    def total_traffic_bps(self) -> float:
        return sum(d.traffic_bps for d in self.demands.values())

    def assigned_traffic_bps(self) -> float:
        return sum(
            self.demands[vid].traffic_bps for vid in self.vip_to_switches
        )

    def hmux_traffic_fraction(self) -> float:
        total = self.total_traffic_bps()
        if total == 0:
            return 1.0
        return self.assigned_traffic_bps() / total

    def memory_cost_entries(self) -> int:
        """Total tunnel entries consumed across the network (k x the
        unreplicated cost)."""
        return sum(
            self.demands[vid].n_dips * len(switches)
            for vid, switches in self.vip_to_switches.items()
        )

    def smux_exposure_bps(self, scenario: FailureScenario) -> float:
        """Traffic that must fall back to the SMuxes under ``scenario``:
        only VIPs with *no* surviving replica are exposed."""
        exposed = 0.0
        for vip_id, switches in self.vip_to_switches.items():
            if all(s in scenario.failed_switches for s in switches):
                exposed += self.demands[vip_id].traffic_bps
        return exposed


class ReplicatedAssigner:
    """Greedy MRU assignment placing each VIP on ``k`` distinct switches.

    Replica r of a VIP is placed with the demand scaled to 1/k of the
    volume (ECMP splits the traffic) but the full DIP memory footprint.
    Replicas of one VIP prefer distinct containers, so a container
    failure cannot take out all of them.
    """

    def __init__(
        self,
        topology: Topology,
        replicas: int = 2,
        config: AssignmentConfig = AssignmentConfig(),
    ) -> None:
        if replicas < 1:
            raise AssignmentError("need at least one replica")
        self.topology = topology
        self.replicas = replicas
        self.config = config
        self._greedy = GreedyAssigner(topology, config)

    def assign(self, demands: Sequence[VipDemand]) -> ReplicatedAssignment:
        greedy = self._greedy
        link_util = np.zeros(self.topology.n_links)
        mem_util = np.zeros(self.topology.n_switches)
        placed: Dict[int, Tuple[int, ...]] = {}
        unassigned: List[int] = []
        ordered = sorted(demands, key=lambda d: (-d.traffic_bps, d.vip_id))
        budget = greedy.host_table_budget
        stopped = False
        for demand in ordered:
            if stopped or len(placed) >= budget:
                unassigned.append(demand.vip_id)
                continue
            if demand.n_dips > greedy.dip_capacity:
                unassigned.append(demand.vip_id)
                continue
            share = demand.scaled(1.0 / self.replicas)
            chosen: List[int] = []
            feasible = True
            for _ in range(self.replicas):
                pick = self._best_excluding(
                    share, chosen, link_util, mem_util
                )
                if pick is None:
                    feasible = False
                    break
                chosen.append(pick)
                greedy.calculator.apply(link_util, share, pick)
                mem_util[pick] += demand.n_dips / greedy.dip_capacity
            if not feasible:
                # Roll back partial replicas; the VIP goes to SMux.
                for switch in chosen:
                    greedy.calculator.apply(
                        link_util, share, switch, sign=-1.0
                    )
                    mem_util[switch] -= demand.n_dips / greedy.dip_capacity
                unassigned.append(demand.vip_id)
                if self.config.stop_on_first_failure:
                    stopped = True
                continue
            placed[demand.vip_id] = tuple(chosen)
        return ReplicatedAssignment(
            topology=self.topology,
            config=self.config,
            replicas=self.replicas,
            vip_to_switches=placed,
            unassigned=unassigned,
            link_utilization=link_util,
            memory_utilization=mem_util,
            demands={d.vip_id: d for d in demands},
        )

    def _best_excluding(
        self,
        share: VipDemand,
        taken: List[int],
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> Optional[int]:
        """Best switch for the next replica: not already hosting this
        VIP, preferring containers without an existing replica."""
        greedy = self._greedy
        taken_containers = {
            self.topology.container_of(s) for s in taken
        }
        best: Optional[int] = None
        best_key: Optional[Tuple[int, float]] = None
        global_max = greedy._global_max(link_util, mem_util)
        for switch in range(self.topology.n_switches):
            if switch in taken:
                continue
            if switch in greedy.calculator.router.failed_switches:
                continue
            mru = greedy.placement_mru(
                share, switch, link_util, mem_util, global_max=global_max,
            )
            if mru is None or mru > 1.0:
                continue
            container = self.topology.container_of(switch)
            # Sort key: new container first (0), then MRU.
            key = (0 if container not in taken_containers else 1, mru)
            if best_key is None or key < best_key:
                best_key = key
                best = switch
        return best
