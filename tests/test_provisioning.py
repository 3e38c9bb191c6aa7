"""Tests for repro.core.provisioning: SMux fleet sizing (S8.2)."""

import math

import pytest

from repro.core import provisioning
from repro.core.assignment import GreedyAssigner
from repro.core.provisioning import (
    MIN_SMUXES,
    ProvisioningConfig,
    ananta_smux_count,
    duet_provisioning,
    failover_traffic,
    surviving_vip_traffic,
    worst_container_failover,
    worst_switch_failover,
)
from repro.dataplane.smux import SMUX_CAPACITY_BPS
from repro.net.failures import FailureScenario, container_failure, switch_failures
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
        topology, n_vips=40, total_traffic_bps=25e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=5,
    )
    assignment = GreedyAssigner(topology).assign(population.demands())
    return topology, population, assignment


class TestAnantaCount:
    def test_simple_division(self):
        assert ananta_smux_count(SMUX_CAPACITY_BPS * 10) == 10

    def test_rounds_up(self):
        assert ananta_smux_count(SMUX_CAPACITY_BPS * 10.1) == 11

    def test_minimum(self, monkeypatch):
        assert ananta_smux_count(0.0) == 1
        monkeypatch.setattr(provisioning, "MIN_SMUXES", 3)
        assert ananta_smux_count(0.0) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ananta_smux_count(-1.0)

    def test_paper_example(self):
        # "handing 15Tbps traffic ... requires over 4000 SMuxes" (S1).
        assert ananta_smux_count(15e12) > 4000


class TestSurvivingTraffic:
    def test_normal_scenario_full_traffic(self, world):
        _, population, _ = world
        demand = population.vips[0].demand()
        traffic = surviving_vip_traffic(
            demand, FailureScenario.none(), world[0]
        )
        assert traffic == pytest.approx(demand.traffic_bps)

    def test_dead_dips_kill_vip(self, world):
        topology, population, _ = world
        demand = population.vips[0].demand()
        # Fail every rack hosting its DIPs.
        dead = [tor for tor, _ in demand.dip_tors]
        scenario = switch_failures(topology, dead)
        assert surviving_vip_traffic(demand, scenario, topology) == 0.0

    def test_dead_ingress_reduces_traffic(self, world):
        topology, population, _ = world
        # A pinned ingress rack that hosts none of the VIP's DIPs, so
        # failing it cuts ingress only.
        demand, ingress_tor = next((
            (d, tor) for d in (v.demand() for v in population.vips)
            for tor, _ in d.ingress_racks
            if tor not in {t for t, _ in d.dip_tors}
        ), (None, None))
        assert demand is not None, "no ingress rack free of the VIP's DIPs"
        scenario = switch_failures(topology, [ingress_tor])
        survived = surviving_vip_traffic(demand, scenario, topology)
        assert survived < demand.traffic_bps
        assert survived > 0


class TestFailoverTraffic:
    def test_no_failure_no_failover(self, world):
        topology, _, assignment = world
        assert failover_traffic(
            assignment, FailureScenario.none(), topology
        ) == 0.0

    def test_failing_a_loaded_switch(self, world):
        topology, _, assignment = world
        loaded = next(iter(assignment.vip_to_switch.values()))
        scenario = switch_failures(topology, [loaded])
        assert failover_traffic(assignment, scenario, topology) > 0

    def test_worst_container(self, world):
        topology, _, assignment = world
        worst, name = worst_container_failover(assignment, topology)
        assert worst >= 0
        for c in range(topology.n_containers):
            traffic = failover_traffic(
                assignment, container_failure(topology, c), topology
            )
            assert traffic <= worst + 1e-6

    def test_worst_switches_upper_bounds_random(self, world):
        topology, _, assignment = world
        worst, _ = worst_switch_failover(
            assignment, topology, 3, n_samples=20, seed=1
        )
        deterministic, _ = worst_switch_failover(assignment, topology, 3)
        assert worst >= deterministic * 0.999


class TestDuetProvisioning:
    def test_components(self, world):
        topology, _, assignment = world
        result = duet_provisioning(assignment, topology)
        assert result.n_smuxes >= 1
        assert result.worst_failover_bps >= 0
        assert result.worst_failover_bps >= 0
        assert result.migration_peak_bps >= 0

    def test_far_fewer_than_ananta(self, world):
        """The headline (Figure 16): Duet needs a small fraction of the
        SMuxes a pure software deployment does."""
        topology, population, assignment = world
        duet = duet_provisioning(assignment, topology)
        ananta = ananta_smux_count(population.total_traffic_bps)
        assert duet.n_smuxes < ananta / 2

    def test_count_formula(self, world):
        topology, _, assignment = world
        config = ProvisioningConfig()
        result = duet_provisioning(assignment, topology, config)
        expected = max(
            MIN_SMUXES,
            math.ceil(
                (result.leftover_bps + max(
                    result.worst_failover_bps, result.migration_peak_bps,
                )) / config.smux_capacity_bps
            ),
        )
        assert result.n_smuxes == expected

    def test_migration_peak_raises_count(self, world):
        topology, _, assignment = world
        base = duet_provisioning(assignment, topology)
        with_migration = duet_provisioning(
            assignment, topology, migration_peak_bps=100 * SMUX_CAPACITY_BPS
        )
        assert with_migration.n_smuxes > base.n_smuxes

    def test_smaller_capacity_needs_more(self, world):
        topology, _, assignment = world
        small = duet_provisioning(
            assignment, topology,
            ProvisioningConfig(smux_capacity_bps=SMUX_CAPACITY_BPS),
        )
        big = duet_provisioning(
            assignment, topology,
            ProvisioningConfig(smux_capacity_bps=10e9),
        )
        assert big.n_smuxes <= small.n_smuxes
