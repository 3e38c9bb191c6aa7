"""Tests for repro.core.replication: k-replica VIP placement (S9)."""

import pytest

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.replication import ReplicatedAssigner
from repro.net.failures import container_failure, switch_failures
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import generate_population


@pytest.fixture(scope="module")
def world():
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=30, total_traffic_bps=18e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=9,
    )
    return topology, population


class TestPlacement:
    def test_each_vip_gets_k_distinct_switches(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        for switches in result.vip_to_switches.values():
            assert len(switches) == 2
            assert len(set(switches)) == 2

    def test_replicas_prefer_distinct_containers(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        cross_container = sum(
            1 for switches in result.vip_to_switches.values()
            if len({topology.container_of(s) for s in switches}) == 2
        )
        assert cross_container >= 0.9 * len(result.vip_to_switches)

    def test_k1_matches_unreplicated_memory(self, world):
        topology, population = world
        single = ReplicatedAssigner(topology, replicas=1).assign(
            population.demands()
        )
        plain = GreedyAssigner(topology).assign(population.demands())
        assert single.memory_cost_entries() == sum(
            plain.demands[v].n_dips for v in plain.vip_to_switch
        )

    def test_memory_cost_scales_with_k(self, world):
        topology, population = world
        demands = population.demands()
        one = ReplicatedAssigner(topology, replicas=1).assign(demands)
        two = ReplicatedAssigner(topology, replicas=2).assign(demands)
        if one.vip_to_switches.keys() == two.vip_to_switches.keys():
            assert two.memory_cost_entries() == 2 * one.memory_cost_entries()

    def test_capacity_respected(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=3).assign(
            population.demands()
        )
        assert result.mru <= 1.0 + 1e-9

    def test_validation(self, world):
        topology, _ = world
        with pytest.raises(Exception):
            ReplicatedAssigner(topology, replicas=0)


class TestFailureExposure:
    def test_single_switch_failure_exposes_nothing(self, world):
        """The point of replication: one dead switch never sends traffic
        to the SMuxes."""
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        for switches in result.vip_to_switches.values():
            scenario = switch_failures(topology, [switches[0]])
            # This VIP is degraded, not exposed.
            assert result.smux_exposure_bps(scenario) < sum(
                d.traffic_bps for d in result.demands.values()
            )
        # Global check: failing any single switch exposes zero traffic.
        used = {s for sw in result.vip_to_switches.values() for s in sw}
        for switch in used:
            scenario = switch_failures(topology, [switch])
            assert result.smux_exposure_bps(scenario) == 0.0

    def test_container_failure_exposes_less_than_k1(self, world):
        topology, population = world
        demands = population.demands()
        one = ReplicatedAssigner(topology, replicas=1).assign(demands)
        two = ReplicatedAssigner(topology, replicas=2).assign(demands)
        worst_one = max(
            one.smux_exposure_bps(container_failure(topology, c))
            for c in range(topology.n_containers)
        )
        worst_two = max(
            two.smux_exposure_bps(container_failure(topology, c))
            for c in range(topology.n_containers)
        )
        assert worst_two <= worst_one

    def test_degraded_accounting(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        # Losing one of two replicas degrades a VIP but keeps it on the
        # HMux layer: a single switch failure exposes nothing to SMux.
        _, switches = next(iter(result.vip_to_switches.items()))
        scenario = switch_failures(topology, [switches[0]])
        assert result.smux_exposure_bps(scenario) == 0.0

    def test_all_replicas_dead_is_exposed(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        vip_id, switches = next(iter(result.vip_to_switches.items()))
        scenario = switch_failures(topology, list(switches))
        assert result.smux_exposure_bps(scenario) >= (
            result.demands[vip_id].traffic_bps
        )


class TestCoverage:
    def test_high_coverage_retained(self, world):
        topology, population = world
        result = ReplicatedAssigner(topology, replicas=2).assign(
            population.demands()
        )
        assert result.hmux_traffic_fraction() > 0.9

    def test_replication_can_reduce_coverage_under_pressure(self, world):
        """Replication pays k x memory: under heavy load it may fit less
        than the unreplicated assignment (never more)."""
        topology, population = world
        demands = [d.scaled(4.0) for d in population.demands()]
        config = AssignmentConfig(stop_on_first_failure=False)
        one = ReplicatedAssigner(topology, 1, config).assign(demands)
        three = ReplicatedAssigner(topology, 3, config).assign(demands)
        assert three.hmux_traffic_fraction() <= one.hmux_traffic_fraction() + 1e-9
