"""SMux provisioning: how many software Muxes Duet must deploy (S8.2).

Duet keeps a small SMux fleet as the backstop for three traffic classes:

1. **leftover** traffic of VIPs that could not be assigned to any HMux
   (switch memory / link bandwidth limits),
2. **failover** traffic when HMuxes die — provisioned for the worst of
   (a) an entire container failing or (b) three simultaneous switch
   failures, the worst cases observed in production (S5.1, S8.2),
3. **transition** traffic parked on SMuxes while VIPs migrate (S8.6).

The SMux count is the peak of those demands divided by per-SMux capacity;
Ananta, by contrast, must cover *all* VIP traffic in software.  Figure 16
compares the two at SMux capacities of 3.6 Gbps (measured, CPU-bound) and
10 Gbps (hypothetical, NIC-bound).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.assignment import Assignment
from repro.dataplane.smux import SMUX_CAPACITY_BPS
from repro.net.failures import (
    FailureScenario,
    container_failure,
    random_switch_failures,
)
from repro.net.topology import Topology
from repro.workload.vips import VipDemand


#: The failure budget Duet provisions for (S8.2): the 3 most loaded
#: switches failing at once, or any of 10 random 3-switch failures.
N_SWITCH_FAILURES = 3
N_RANDOM_FAILURE_SAMPLES = 10
#: No deployment runs fewer SMuxes than this.
MIN_SMUXES = 1


@dataclass(frozen=True)
class ProvisioningConfig:
    """Provisioning policy knobs."""

    smux_capacity_bps: float = SMUX_CAPACITY_BPS
    seed: int = 0


@dataclass(frozen=True)
class SmuxProvisioning:
    """Result: the SMux count and the traffic components behind it."""

    n_smuxes: int
    leftover_bps: float
    worst_failover_bps: float
    migration_peak_bps: float
    worst_scenario: str


def ananta_smux_count(
    total_traffic_bps: float,
    smux_capacity_bps: float = SMUX_CAPACITY_BPS,
) -> int:
    """SMuxes a pure software deployment needs: all VIP traffic in
    software, "such that no SMux receives traffic exceeding its
    capacity" with ECMP spreading it evenly (S8.2)."""
    if total_traffic_bps < 0:
        raise ValueError("traffic must be non-negative")
    return max(MIN_SMUXES, math.ceil(total_traffic_bps / smux_capacity_bps))


def surviving_vip_traffic(
    demand: VipDemand,
    scenario: FailureScenario,
    topology: Topology,
) -> float:
    """Traffic of one VIP that still *exists* under a failure.

    A container failure "makes all the traffic with sources and
    destinations (DIPs) inside to disappear" (S8.5): ingress from dead
    racks is gone, and a VIP with no surviving DIP is dead entirely.
    """
    dead_tors = scenario.dead_tors(topology)
    alive_dips = sum(
        count for tor, count in demand.dip_tors if tor not in dead_tors
    )
    if alive_dips == 0:
        return 0.0
    alive_ingress = demand.internet_fraction + sum(
        fraction for tor, fraction in demand.ingress_racks
        if tor not in dead_tors
    )
    diffuse = demand.diffuse_intra_fraction
    if diffuse > 0:
        n_tors = len(topology.tors())
        alive_fraction = (n_tors - len(dead_tors)) / n_tors if n_tors else 0
        alive_ingress += diffuse * alive_fraction
    return demand.traffic_bps * alive_ingress


def failover_traffic(
    assignment: Assignment,
    scenario: FailureScenario,
    topology: Topology,
) -> float:
    """VIP traffic that falls back to the SMuxes under ``scenario``: the
    surviving traffic of every VIP assigned to a failed switch."""
    total = 0.0
    for vip_id, switch in assignment.vip_to_switch.items():
        if switch not in scenario.failed_switches:
            continue
        total += surviving_vip_traffic(
            assignment.demands[vip_id], scenario, topology
        )
    return total


def worst_container_failover(
    assignment: Assignment, topology: Topology
) -> Tuple[float, str]:
    """Worst failover traffic over all single-container failures."""
    worst, name = 0.0, "none"
    for container in range(topology.n_containers):
        scenario = container_failure(topology, container)
        traffic = failover_traffic(assignment, scenario, topology)
        if traffic > worst:
            worst, name = traffic, scenario.name
    return worst, name


def worst_switch_failover(
    assignment: Assignment,
    topology: Topology,
    n_failures: int = 3,
    *,
    n_samples: int = 0,
    seed: int = 0,
) -> Tuple[float, str]:
    """Worst failover traffic under ``n_failures`` simultaneous switch
    failures.

    The deterministic bound fails the ``n_failures`` switches carrying the
    most assigned VIP traffic (the adversarial worst case the paper
    provisions for).  With ``n_samples`` > 0, random scenarios are also
    drawn and the overall max is returned.
    """
    per_switch: Dict[int, float] = {}
    for vip_id, switch in assignment.vip_to_switch.items():
        per_switch[switch] = (
            per_switch.get(switch, 0.0)
            + assignment.demands[vip_id].traffic_bps
        )
    heaviest = sorted(per_switch, key=per_switch.get, reverse=True)
    worst_set = heaviest[:n_failures]
    if worst_set:
        scenario = FailureScenario(
            name=f"worst-{n_failures}-switches",
            failed_switches=frozenset(worst_set),
        )
        worst = failover_traffic(assignment, scenario, topology)
        name = scenario.name
    else:
        worst, name = 0.0, "none"
    rng = random.Random(seed)
    for _ in range(n_samples):
        scenario = random_switch_failures(topology, n_failures, rng)
        traffic = failover_traffic(assignment, scenario, topology)
        if traffic > worst:
            worst, name = traffic, scenario.name
    return worst, name


def duet_provisioning(
    assignment: Assignment,
    topology: Topology,
    config: ProvisioningConfig = ProvisioningConfig(),
    migration_peak_bps: float = 0.0,
) -> SmuxProvisioning:
    """SMuxes Duet needs for this assignment (S8.2, Figure 16/20c).

    The peak SMux load is the leftover (always in software) plus the
    worse of the failover and migration components; "the number of
    SMuxes needed is T / C_smux".
    """
    leftover = assignment.unassigned_traffic_bps()
    container_worst, container_name = worst_container_failover(
        assignment, topology
    )
    switch_worst, switch_name = worst_switch_failover(
        assignment,
        topology,
        N_SWITCH_FAILURES,
        n_samples=N_RANDOM_FAILURE_SAMPLES,
        seed=config.seed,
    )
    if container_worst >= switch_worst:
        failover, scenario_name = container_worst, container_name
    else:
        failover, scenario_name = switch_worst, switch_name
    peak = leftover + max(failover, migration_peak_bps)
    count = max(MIN_SMUXES, math.ceil(peak / config.smux_capacity_bps))
    return SmuxProvisioning(
        n_smuxes=count,
        leftover_bps=leftover,
        worst_failover_bps=failover,
        migration_peak_bps=migration_peak_bps,
        worst_scenario=scenario_name,
    )
