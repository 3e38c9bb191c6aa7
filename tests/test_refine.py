"""Tests for repro.core.refine: local-search assignment refinement (S9)."""

import pytest

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.migration import diff_assignments
from repro.core.refine import AssignmentRefiner
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
        topology, n_vips=35, total_traffic_bps=30e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=19,
    )
    return topology, population


class TestRefinement:
    def test_never_worse(self, world):
        topology, population = world
        greedy = GreedyAssigner(topology).assign(population.demands())
        result = AssignmentRefiner(topology).refine(greedy)
        assert result.final_mru <= result.initial_mru + 1e-12

    def test_improves_a_bad_assignment(self, world):
        """Refinement should visibly repair a first-fit packing."""
        from repro.core.baselines import FirstFitAssigner

        topology, population = world
        bad = FirstFitAssigner(topology).assign(population.demands())
        result = AssignmentRefiner(topology, max_iterations=100).refine(bad)
        assert result.final_mru < bad.mru - 1e-3
        assert result.moves > 0

    def test_input_not_mutated(self, world):
        topology, population = world
        greedy = GreedyAssigner(topology).assign(population.demands())
        before = dict(greedy.vip_to_switch)
        mru_before = greedy.mru
        AssignmentRefiner(topology).refine(greedy)
        assert greedy.vip_to_switch == before
        assert greedy.mru == mru_before

    def test_capacity_still_respected(self, world):
        from repro.core.baselines import FirstFitAssigner

        topology, population = world
        bad = FirstFitAssigner(topology).assign(population.demands())
        result = AssignmentRefiner(topology).refine(bad)
        refined = result.assignment
        assert refined.mru <= 1.0 + 1e-9
        capacity = topology.params.tables.dip_capacity
        for s in range(topology.n_switches):
            assert sum(
                refined.demands[v].n_dips
                for v, sw in refined.vip_to_switch.items() if sw == s
            ) <= capacity

    def test_same_vips_assigned(self, world):
        topology, population = world
        greedy = GreedyAssigner(topology).assign(population.demands())
        refined = AssignmentRefiner(topology).refine(greedy).assignment
        assert set(refined.vip_to_switch) == set(greedy.vip_to_switch)
        assert refined.unassigned == greedy.unassigned

    def test_zero_budget_is_noop(self, world):
        topology, population = world
        greedy = GreedyAssigner(topology).assign(population.demands())
        result = AssignmentRefiner(topology, max_iterations=0).refine(greedy)
        assert result.moves == 0
        assert result.assignment.vip_to_switch == greedy.vip_to_switch

    def test_refine_fresh(self, world):
        topology, population = world
        result = AssignmentRefiner(topology).refine(
            GreedyAssigner(topology).assign(population.demands())
        )
        assert result.assignment.n_assigned == len(population)

    def test_migration_cost_measurable(self, world):
        """Refinement gains trade against traffic shuffled: the diff can
        be executed like any other migration plan."""
        from repro.core.baselines import FirstFitAssigner

        topology, population = world
        bad = FirstFitAssigner(topology).assign(population.demands())
        refined = AssignmentRefiner(topology).refine(bad).assignment
        plan = diff_assignments(bad, refined)
        assert plan.validate_two_phase()
        assert plan.traffic_shuffled_bps >= 0

    def test_validation(self, world):
        topology, _ = world
        with pytest.raises(ValueError):
            AssignmentRefiner(topology, max_iterations=-1)
