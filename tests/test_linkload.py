"""Tests for repro.core.linkload: network-wide utilization (Figure 19)."""

import pytest

from repro.core.assignment import GreedyAssigner, LoadCalculator
from repro.core.linkload import LinkUtilizationComputer, default_smux_tors
from repro.net.failures import (
    FailureScenario,
    container_failure,
    switch_failures,
)
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import generate_population


@pytest.fixture(scope="module")
def world():
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=4,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=40, total_traffic_bps=20e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=13,
    )
    assignment = GreedyAssigner(topology).assign(population.demands())
    return topology, population, assignment


class TestNormalState:
    def test_matches_assignment_internal_state(self, world):
        """The computer and the assigner price traffic with the same
        routing model, so healthy-network utilization must agree (up to
        the assigner's 80% headroom scaling)."""
        topology, _, assignment = world
        computer = LinkUtilizationComputer(topology)
        report = computer.compute(assignment)
        headroom = assignment.config.link_headroom
        expected = assignment.link_utilization * headroom
        assert report.utilization == pytest.approx(expected, abs=1e-9)

    def test_under_capacity(self, world):
        topology, _, assignment = world
        report = LinkUtilizationComputer(topology).compute(assignment)
        assert report.max_utilization <= assignment.config.link_headroom + 1e-9

    def test_no_failover_when_healthy(self, world):
        topology, _, assignment = world
        report = LinkUtilizationComputer(topology).compute(assignment)
        assert report.failover_traffic_bps == 0.0
        assert report.dead_traffic_bps == 0.0


class TestFailures:
    def test_switch_failure_reroutes(self, world):
        topology, _, assignment = world
        computer = LinkUtilizationComputer(topology)
        normal = computer.compute(assignment)
        loaded = next(iter(assignment.vip_to_switch.values()))
        scenario = switch_failures(topology, [loaded])
        failed = computer.compute(assignment, scenario)
        assert failed.failover_traffic_bps > 0
        # Failed switch's links carry nothing.
        for link in topology.links:
            if link.src == loaded or link.dst == loaded:
                assert failed.utilization[link.index] == 0.0

    def test_container_failure_drops_internal_traffic(self, world):
        topology, _, assignment = world
        computer = LinkUtilizationComputer(topology)
        report = computer.compute(assignment, container_failure(topology, 0))
        # Some traffic sourced/sunk inside the container disappears.
        assert report.dead_traffic_bps >= 0
        for s in topology.container_switches(0):
            for link in topology.links:
                if link.src == s or link.dst == s:
                    assert report.utilization[link.index] == 0.0

    def test_failover_lands_on_smux_racks(self, world):
        topology, _, assignment = world
        loaded = next(iter(assignment.vip_to_switch.values()))
        # An SMux rack other than the failed switch.
        smux_tor = next(t for t in topology.tors(1) if t != loaded)
        computer = LinkUtilizationComputer(topology, smux_tors=[smux_tor])
        scenario = switch_failures(topology, [loaded])
        normal = computer.compute(assignment)
        failed = computer.compute(assignment, scenario)
        into_smux = [
            link.index for link in topology.links if link.dst == smux_tor
        ]
        assert (
            failed.utilization[into_smux].sum()
            > normal.utilization[into_smux].sum()
        )

    def test_moderate_increase_under_failure(self, world):
        """Figure 19's property: failure bumps MLU by a bounded amount,
        absorbed by the reserved headroom."""
        topology, _, assignment = world
        computer = LinkUtilizationComputer(topology)
        normal = computer.compute(assignment).max_utilization
        worst = 0.0
        for c in range(topology.n_containers):
            report = computer.compute(
                assignment, container_failure(topology, c)
            )
            worst = max(worst, report.max_utilization)
        assert worst <= 1.0  # never past true link capacity


class TestSmuxPlacement:
    def test_default_racks_spread_over_containers(self, world):
        topology, _, _ = world
        tors = default_smux_tors(topology)
        containers = {topology.container_of(t) for t in tors}
        assert containers == set(range(topology.n_containers))

    def test_all_smux_racks_dead_drops_traffic(self, world):
        topology, _, assignment = world
        smux_tor = topology.tors(0)[0]
        computer = LinkUtilizationComputer(topology, smux_tors=[smux_tor])
        loaded = sorted(set(assignment.vip_to_switch.values()))
        scenario = switch_failures(topology, loaded + [smux_tor])
        report = computer.compute(assignment, scenario)
        assert report.dead_traffic_bps > 0
