"""Tests for repro.core.migration: Sticky / Non-sticky / One-time (S4.2)."""

import pytest

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.migration import (
    DEFAULT_STICKY_DELTA,
    MigrationPlan,
    NonStickyMigrator,
    OneTimeMigrator,
    StepKind,
    StickyMigrator,
    diff_assignments,
)
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.vips import generate_population


def steps_of(plan, kind):
    return [step for step in plan.steps if step.kind is kind]


@pytest.fixture(scope="module")
def world():
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=30, total_traffic_bps=25e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=11,
    )
    return topology, population


@pytest.fixture(scope="module")
def epochs(world):
    _, population = world
    return TraceGenerator(
        population, TraceConfig(n_epochs=5, churn_fraction=0.05), seed=3
    ).epochs()


class TestDiffAssignments:
    def test_initial_plan_is_all_announcements(self, world):
        topology, population = world
        new = GreedyAssigner(topology).assign(population.demands())
        plan = diff_assignments(None, new)
        assert not steps_of(plan, StepKind.WITHDRAW)
        assert len(steps_of(plan, StepKind.ANNOUNCE)) == new.n_assigned
        assert plan.traffic_shuffled_bps == 0.0

    def test_identity_plan_empty(self, world):
        topology, population = world
        assignment = GreedyAssigner(topology).assign(population.demands())
        plan = diff_assignments(assignment, assignment)
        assert plan.steps == []
        assert plan.shuffled_fraction == 0.0

    def test_two_phase_order(self, world):
        """All withdrawals before all announcements: the SMux stepping
        stone that makes the Figure 4 memory deadlock impossible."""
        topology, population = world
        demands = population.demands()
        a = GreedyAssigner(topology, AssignmentConfig(seed=1)).assign(demands)
        b = GreedyAssigner(topology, AssignmentConfig(seed=99)).assign(
            [d.scaled(1.3) for d in demands]
        )
        plan = diff_assignments(a, b)
        assert plan.validate_two_phase()

    def test_shuffled_counts_only_moved_hmux_vips(self, world):
        topology, population = world
        demands = population.demands()
        a = GreedyAssigner(topology).assign(demands[:10])
        b = GreedyAssigner(topology).assign(demands)  # adds 20 more
        plan = diff_assignments(a, b)
        moved_traffic = sum(
            b.demands[s.vip_id].traffic_bps
            for s in steps_of(plan, StepKind.WITHDRAW)
        )
        assert plan.traffic_shuffled_bps == pytest.approx(moved_traffic)


class TestMemoryDeadlockFreedom:
    def test_swap_needs_no_extra_memory(self):
        """The Figure 4 scenario: two VIPs each taking 60% of switch
        memory swap places.  Through the SMux stepping stone the swap
        needs no transient headroom."""
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=2,
            aggs_per_container=2, n_cores=2,
        ))
        dip_capacity = topology.params.tables.dip_capacity
        heavy = int(dip_capacity * 0.6)

        from tests.test_assignment import demand

        d1 = demand(1, 1e9, topology.tors()[:1], dips=heavy)
        d2 = demand(2, 1e9, topology.tors()[1:2], dips=heavy)
        assigner = GreedyAssigner(topology)
        old = assigner.assign([d1, d2])
        s1, s2 = old.vip_to_switch[1], old.vip_to_switch[2]
        assert s1 != s2  # memory forces them apart

        # Manufacture the swapped assignment.
        import numpy as np

        from repro.core.assignment import Assignment

        swapped = Assignment(
            topology=topology,
            config=assigner.config,
            vip_to_switch={1: s2, 2: s1},
            unassigned=[],
            link_utilization=np.zeros(topology.n_links),
            memory_utilization=np.zeros(topology.n_switches),
            demands={1: d1, 2: d2},
        )
        plan = diff_assignments(old, swapped)
        assert plan.validate_two_phase()
        # Simulate the per-switch occupancy along the plan: never exceeds
        # capacity at any step.
        occupancy = {s1: heavy, s2: heavy}
        for step in plan.steps:
            if step.kind is StepKind.WITHDRAW:
                occupancy[step.switch_index] -= heavy
            else:
                occupancy[step.switch_index] += heavy
            assert all(v <= dip_capacity for v in occupancy.values())


class TestSticky:
    def test_initial_epoch_matches_greedy(self, world, epochs):
        topology, _ = world
        sticky = StickyMigrator(topology)
        assignment, plan = sticky.reassign(None, list(epochs[0].demands))
        fresh = GreedyAssigner(topology).assign(list(epochs[0].demands))
        assert assignment.n_assigned == fresh.n_assigned

    def test_sticky_moves_less_than_non_sticky(self, world, epochs):
        topology, _ = world
        sticky = StickyMigrator(topology)
        nonsticky = NonStickyMigrator(topology)
        s_curr = n_curr = None
        s_shuffled, n_shuffled = 0.0, 0.0
        for epoch in epochs:
            s_curr, s_plan = sticky.reassign(s_curr, list(epoch.demands))
            n_curr, n_plan = nonsticky.reassign(n_curr, list(epoch.demands))
            if epoch.index > 0:
                s_shuffled += s_plan.traffic_shuffled_bps
                n_shuffled += n_plan.traffic_shuffled_bps
        assert s_shuffled < n_shuffled

    def test_sticky_keeps_unmoved_vips_in_place(self, world, epochs):
        topology, _ = world
        sticky = StickyMigrator(topology, delta=10.0)  # never worth moving
        current, _ = sticky.reassign(None, list(epochs[0].demands))
        previous = dict(current.vip_to_switch)
        current, plan = sticky.reassign(current, list(epochs[1].demands))
        for vip_id, switch in current.vip_to_switch.items():
            if vip_id in previous:
                assert switch == previous[vip_id]

    def test_delta_zero_degenerates_toward_fresh(self, world, epochs):
        topology, _ = world
        eager = StickyMigrator(topology, delta=0.0)
        lazy = StickyMigrator(topology, delta=0.5)
        e_curr = l_curr = None
        e_moved = l_moved = 0
        for epoch in epochs:
            e_curr, e_plan = eager.reassign(e_curr, list(epoch.demands))
            l_curr, l_plan = lazy.reassign(l_curr, list(epoch.demands))
            if epoch.index > 0:
                e_moved += len(steps_of(e_plan, StepKind.WITHDRAW))
                l_moved += len(steps_of(l_plan, StepKind.WITHDRAW))
        assert e_moved >= l_moved

    def test_negative_delta_rejected(self, world):
        topology, _ = world
        with pytest.raises(ValueError):
            StickyMigrator(topology, delta=-0.1)

    def test_coverage_stays_high(self, world, epochs):
        topology, _ = world
        sticky = StickyMigrator(topology)
        current = None
        for epoch in epochs:
            current, _ = sticky.reassign(current, list(epoch.demands))
            assert current.hmux_traffic_fraction() > 0.9

    def test_plans_are_two_phase(self, world, epochs):
        topology, _ = world
        sticky = StickyMigrator(topology)
        current = None
        for epoch in epochs:
            current, plan = sticky.reassign(current, list(epoch.demands))
            assert plan.validate_two_phase()


class TestOneTime:
    def test_new_vips_never_assigned(self, world, epochs):
        topology, _ = world
        onetime = OneTimeMigrator(topology)
        current, _ = onetime.reassign(None, list(epochs[0].demands))
        initial_ids = set(current.vip_to_switch)
        for epoch in epochs[1:]:
            current, _ = onetime.reassign(current, list(epoch.demands))
            assert set(current.vip_to_switch) <= initial_ids

    def test_placements_never_change(self, world, epochs):
        topology, _ = world
        onetime = OneTimeMigrator(topology)
        current, _ = onetime.reassign(None, list(epochs[0].demands))
        initial = dict(current.vip_to_switch)
        for epoch in epochs[1:]:
            current, _ = onetime.reassign(current, list(epoch.demands))
            for vip_id, switch in current.vip_to_switch.items():
                assert initial[vip_id] == switch

    def test_capacity_still_enforced(self, world, epochs):
        topology, _ = world
        onetime = OneTimeMigrator(topology)
        current = None
        for epoch in epochs:
            current, _ = onetime.reassign(current, list(epoch.demands))
            assert current.mru <= 1.0 + 1e-9
