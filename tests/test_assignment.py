"""Tests for repro.core.assignment: the MRU-greedy algorithm (S4)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.assignment import (
    Assignment,
    AssignmentConfig,
    AssignmentError,
    GreedyAssigner,
    LoadCalculator,
)
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, SwitchTableSpec, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import VipDemand, generate_population


@pytest.fixture(scope="module")
def world():
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=40, total_traffic_bps=30e9,
        dip_model=DipCountModel(median_large=8.0, max_dips=16),
        seed=7,
    )
    return topology, population


def demand(vip_id, traffic, tors, dips=2, internet=0.3):
    per = (1.0 - internet) / len(tors)
    return VipDemand(
        vip_id=vip_id,
        addr=0x0A000000 + vip_id,
        traffic_bps=traffic,
        n_dips=dips,
        ingress_racks=tuple((t, per) for t in tors),
        internet_fraction=internet,
        dip_tors=((tors[0], dips),),
    )


class TestLoadCalculator:
    def test_load_vector_conservation(self, world):
        topology, population = world
        calc = LoadCalculator(topology)
        d = population.vips[0].demand()
        target = topology.aggs(0)[0]
        idx, util = calc.load_vector(d, target)
        assert (util >= 0).all()
        assert len(idx) == len(util)

    def test_apply_accumulates(self, world):
        topology, population = world
        calc = LoadCalculator(topology)
        link_util = np.zeros(topology.n_links)
        d = population.vips[0].demand()
        calc.apply(link_util, d, topology.cores()[0])
        assert link_util.max() > 0

    def test_apply_sign_reverses(self, world):
        topology, population = world
        calc = LoadCalculator(topology)
        link_util = np.zeros(topology.n_links)
        d = population.vips[0].demand()
        calc.apply(link_util, d, topology.cores()[0])
        calc.apply(link_util, d, topology.cores()[0], sign=-1.0)
        assert np.allclose(link_util, 0.0)

    def test_headroom_scales_utilization(self, world):
        topology, population = world
        d = population.vips[0].demand()
        tight = LoadCalculator(topology, link_headroom=0.5)
        loose = LoadCalculator(topology, link_headroom=1.0)
        _, tight_util = tight.load_vector(d, topology.cores()[0])
        _, loose_util = loose.load_vector(d, topology.cores()[0])
        assert tight_util.sum() == pytest.approx(2 * loose_util.sum())

    def test_ingress_traffic_reaches_candidate(self, world):
        topology, _ = world
        d = demand(0, 8e9, [topology.tors(0)[0]], internet=0.0)
        calc = LoadCalculator(topology, link_headroom=1.0)
        candidate = topology.aggs(1)[0]
        idx, util = calc.load_vector(d, candidate)
        # Traffic into the candidate must equal the full VIP volume
        # (ingress) plus nothing else; traffic out equals the DIP leg.
        into = sum(
            u * topology.links[i].capacity
            for i, u in zip(idx, util)
            if topology.links[i].dst == candidate
        )
        assert into == pytest.approx(8e9)


class TestGreedyBasics:
    def test_all_assigned_when_capacity_allows(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        assert assignment.n_assigned == len(population)
        assert assignment.unassigned == []
        assert assignment.hmux_traffic_fraction() == pytest.approx(1.0)

    def test_mru_within_bounds(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        assert 0 < assignment.mru <= 1.0

    def test_memory_capacity_respected(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        dip_capacity = topology.params.tables.dip_capacity
        for s in range(topology.n_switches):
            assert sum(
                assignment.demands[v].n_dips
                for v, sw in assignment.vip_to_switch.items() if sw == s
            ) <= dip_capacity

    def test_deterministic_in_seed(self, world):
        topology, population = world
        a = GreedyAssigner(topology, AssignmentConfig(seed=3)).assign(
            population.demands()
        )
        b = GreedyAssigner(topology, AssignmentConfig(seed=3)).assign(
            population.demands()
        )
        assert a.vip_to_switch == b.vip_to_switch

    def test_oversized_vip_goes_to_smux(self, world):
        topology, _ = world
        tors = topology.tors()[:2]
        demands = [
            demand(0, 1e9, tors, dips=2),
            demand(1, 1e9, tors, dips=9999),  # > tunnel table
        ]
        assignment = GreedyAssigner(topology).assign(demands)
        assert 1 in assignment.unassigned
        assert 0 in assignment.vip_to_switch

    def test_unplaceable_vip_stops_assignment(self, world):
        """Paper semantics: 'If the smallest MRU exceeds 100% ... the
        algorithm terminates. The remaining VIPs are not assigned.'
        VIPs are processed in decreasing traffic order, so the impossible
        (and largest) VIP stops everything behind it."""
        topology, _ = world
        tors = topology.tors()[:2]
        demands = [
            demand(0, 1e9, tors),
            demand(1, 1e15, tors),   # impossible volume, sorts first
            demand(2, 2e9, tors),
        ]
        assignment = GreedyAssigner(topology).assign(demands)
        assert assignment.vip_to_switch == {}
        assert set(assignment.unassigned) == {0, 1, 2}

    def test_continue_variant(self, world):
        topology, _ = world
        tors = topology.tors()[:2]
        demands = [
            demand(0, 1e9, tors),
            demand(1, 1e15, tors),
            demand(2, 1e9, tors),
        ]
        config = AssignmentConfig(stop_on_first_failure=False)
        assignment = GreedyAssigner(topology, config).assign(demands)
        assert set(assignment.vip_to_switch) == {0, 2}

    def test_host_table_budget(self, world):
        topology, population = world
        scarce = Topology(replace(
            topology.params, tables=SwitchTableSpec(host_table=5),
        ))
        assignment = GreedyAssigner(scarce).assign(population.demands())
        assert assignment.n_assigned == 5
        # The five biggest VIPs got the slots.
        placed_traffic = min(
            assignment.demands[v].traffic_bps
            for v in assignment.vip_to_switch
        )
        skipped_traffic = max(
            assignment.demands[v].traffic_bps
            for v in assignment.unassigned
        )
        assert placed_traffic >= skipped_traffic

    def test_empty_demands(self, world):
        topology, _ = world
        assignment = GreedyAssigner(topology).assign([])
        assert assignment.n_assigned == 0
        assert assignment.mru == 0.0
        assert assignment.hmux_traffic_fraction() == 1.0


class TestMruChoice:
    def test_picks_minimum_mru(self, world):
        """Brute-force check: the chosen switch has minimal MRU among all
        switches for the first VIP placed."""
        topology, population = world
        assigner = GreedyAssigner(
            topology, AssignmentConfig(candidate_strategy="exhaustive")
        )
        biggest = max(population.demands(), key=lambda d: d.traffic_bps)
        link_util = np.zeros(topology.n_links)
        mem_util = np.zeros(topology.n_switches)
        choice = assigner.best_switch(biggest, link_util, mem_util)
        assert choice is not None
        chosen, chosen_mru = choice
        for s in range(topology.n_switches):
            mru = assigner.placement_mru(biggest, s, link_util, mem_util)
            if mru is not None:
                assert chosen_mru <= mru + 1e-9

    def test_placement_mru_includes_memory(self, world):
        topology, _ = world
        tors = topology.tors()[:1]
        d = demand(0, 1e6, tors, dips=256)  # half a tunnel table
        assigner = GreedyAssigner(topology)
        link_util = np.zeros(topology.n_links)
        mem_util = np.zeros(topology.n_switches)
        mru = assigner.placement_mru(d, topology.cores()[0], link_util, mem_util)
        assert mru == pytest.approx(0.5, abs=0.05)

    def test_memory_overflow_infeasible(self, world):
        topology, _ = world
        d = demand(0, 1e6, topology.tors()[:1], dips=400)
        assigner = GreedyAssigner(topology)
        link_util = np.zeros(topology.n_links)
        mem_util = np.zeros(topology.n_switches)
        mem_util[:] = 0.5  # every switch half full
        assert assigner.placement_mru(
            d, topology.cores()[0], link_util, mem_util
        ) is None

    def test_candidate_strategies_similar_quality(self, world):
        """Container decomposition (Figure 5) should not cost much MRU."""
        topology, population = world
        demands = population.demands()
        exhaustive = GreedyAssigner(
            topology, AssignmentConfig(candidate_strategy="exhaustive")
        ).assign(demands)
        decomposed = GreedyAssigner(
            topology, AssignmentConfig(candidate_strategy="container-best-tor")
        ).assign(demands)
        assert decomposed.n_assigned == exhaustive.n_assigned
        assert decomposed.mru <= exhaustive.mru * 1.3 + 0.05

    def test_failed_switches_not_candidates(self, world):
        topology, population = world
        dead = set(topology.cores())
        router = EcmpRouter(topology, failed_switches=dead)
        assigner = GreedyAssigner(topology, router=router)
        assignment = assigner.assign(population.demands()[:10])
        for switch in assignment.vip_to_switch.values():
            assert switch not in dead


class TestConfigValidation:
    def test_bad_headroom(self):
        with pytest.raises(AssignmentError):
            AssignmentConfig(link_headroom=0.0)

    def test_bad_strategy(self):
        with pytest.raises(AssignmentError):
            AssignmentConfig(candidate_strategy="magic")


class TestAssignmentViews:
    def test_traffic_accounting(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        total = assignment.assigned_traffic_bps() + assignment.unassigned_traffic_bps()
        assert total == pytest.approx(population.total_traffic_bps)

    def test_vips_on_switch(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        listed = sum(
            1 for s in range(topology.n_switches)
            for sw in assignment.vip_to_switch.values() if sw == s
        )
        assert listed == assignment.n_assigned
