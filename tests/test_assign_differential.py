"""Differential tier: the fast assignment backend vs the reference walk.

Same twin pattern as ``test_batch_differential.py``, one layer up the
stack: every scenario builds one topology / router / VIP population and
solves it through the vectorized backend and through the scalar
reference walk.  Production code has no switch between the two — the
walk is the size-selected fallback past ``DENSE_CELL_LIMIT`` — so the
tier reaches it the way a too-large fabric would, by lowering that limit
(:func:`reference_walk`).  The two must be *bit-identical* — same
VIP→switch map, same unassigned list in the same order, same link/memory
utilization arrays down to the last ULP — because the fast backend's
contract is that it performs the exact IEEE-754 operation sequence of
the scalar walk, merely batched.

Scenario space (seeded, deterministic): randomized fabric shapes, VIP
counts, traffic loads from underloaded to oversubscribed, switch
failures, both candidate strategies, all VIP orderings, small host-table
budgets, and stop-on-first-failure both ways.  Every fifth scenario
additionally replays five epochs of drifting traffic through a
``StickyMigrator`` on both backends and requires identical migration
plans (steps, moved VIPs, shuffled traffic) at every epoch.  A second
pass over all scenarios holds the sticky rule's keep-MRU, read off the
fast backend's scoring vector, equal to ``placement_mru``.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import replace
from typing import Iterator, List, Tuple

import numpy as np
import pytest

import repro.core.fastassign as fastassign
from repro.core.assignment import (
    VIP_ORDERS,
    AssignmentConfig,
    GreedyAssigner,
)
from repro.core.migration import StepKind, StickyMigrator
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, SwitchTableSpec, Topology
from repro.workload.vips import VipDemand, generate_population

#: Nominal per-server traffic used to size scenario loads relative to
#: fabric capacity (mirrors ``repro.experiments.common.PER_SERVER_BPS``).
PER_SERVER_BPS = 300e6

N_SCENARIOS = 200

#: Every fifth scenario also replays a 5-epoch sticky-migration trace.
MIGRATION_EVERY = 5
MIGRATION_EPOCHS = 5


@contextlib.contextmanager
def reference_walk() -> Iterator[None]:
    """Every ``GreedyAssigner`` built inside (the migrators and the
    refiner build their own) takes the size-selected scalar fallback."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastassign, "DENSE_CELL_LIMIT", 0)
        yield


def build_scenario(
    seed: int,
) -> Tuple[Topology, EcmpRouter, List[VipDemand], AssignmentConfig]:
    """Deterministically derive one (topology, failures, VIPs, config)
    scenario from its seed."""
    rng = random.Random(seed)
    aggs = rng.choice((2, 3))
    params = FatTreeParams(
        n_containers=rng.choice((2, 3, 4)),
        tors_per_container=rng.choice((2, 3, 4)),
        aggs_per_container=aggs,
        # Agg-Core striping needs cores to be a multiple of the aggs.
        n_cores=aggs * rng.choice((1, 2)),
        servers_per_tor=8,
    )
    topology = Topology(params)

    failed: Tuple[int, ...] = ()
    if rng.random() < 0.4:
        failed = tuple(rng.sample(
            range(topology.n_switches), rng.randint(1, 2)
        ))
    router = EcmpRouter(topology, failed_switches=failed)

    n_vips = rng.randint(20, 60)
    # 0.5x nominal is comfortably placeable; 2.5x forces unassignments,
    # exercising infeasibility and (with the budget below) spill paths.
    total_traffic = (
        params.n_servers * PER_SERVER_BPS * rng.uniform(0.5, 2.5)
    )
    population = generate_population(
        topology, n_vips, total_traffic, seed=seed,
    )

    strategy = rng.choice(("container-best-tor", "exhaustive"))
    order = rng.choice(VIP_ORDERS)
    stop = rng.random() < 0.5
    budget = rng.choice((None, rng.randint(8, 30)))
    config = AssignmentConfig(
        candidate_strategy=strategy, vip_order=order,
        stop_on_first_failure=stop, seed=rng.randint(0, 999),
    )
    if budget is not None:  # a host table only ``budget`` VIPs fit
        topology = Topology(replace(
            params, tables=SwitchTableSpec(host_table=budget),
        ))
        router = EcmpRouter(topology, failed_switches=failed)
    return topology, router, population.demands(), config


def assert_assignments_identical(fast, scalar) -> None:
    assert fast.vip_to_switch == scalar.vip_to_switch
    assert fast.unassigned == scalar.unassigned
    assert np.array_equal(fast.link_utilization, scalar.link_utilization)
    assert np.array_equal(fast.memory_utilization, scalar.memory_utilization)


def assert_plans_identical(fast_plan, scalar_plan) -> None:
    assert fast_plan.steps == scalar_plan.steps
    assert fast_plan.moved_vip_ids == scalar_plan.moved_vip_ids
    assert fast_plan.traffic_shuffled_bps == scalar_plan.traffic_shuffled_bps
    assert fast_plan.total_traffic_bps == scalar_plan.total_traffic_bps


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_engines_placement_identical(seed: int) -> None:
    topology, router, demands, config = build_scenario(seed)

    fast = GreedyAssigner(topology, config, router=router)
    with reference_walk():
        scalar = GreedyAssigner(topology, config, router=router)
    # These fabrics sit far below the dense-cell limit: a silent fallback
    # to scalar would make the comparison vacuous.
    assert fast.engine_name == "fast"
    assert scalar.engine_name == "scalar"

    assert_assignments_identical(fast.assign(demands), scalar.assign(demands))

    if seed % MIGRATION_EVERY != 0:
        return

    # 5 epochs of drifting traffic, each solved on both backends; a
    # migrator keeps its assigner, so each backend gets its own.
    drift = random.Random(seed ^ 0xD81F7)
    sticky_fast = StickyMigrator(topology, config, router=router)
    with reference_walk():
        sticky_scalar = StickyMigrator(topology, config, router=router)
    assert sticky_fast.assigner.engine_name == "fast"
    assert sticky_scalar.assigner.engine_name == "scalar"
    current_fast = current_scalar = None
    for _ in range(MIGRATION_EPOCHS):
        factor = drift.uniform(0.6, 1.5)
        epoch_demands = [d.scaled(factor) for d in demands]
        current_fast, plan_fast = sticky_fast.reassign(
            current_fast, epoch_demands,
        )
        current_scalar, plan_scalar = sticky_scalar.reassign(
            current_scalar, epoch_demands,
        )
        assert_assignments_identical(current_fast, current_scalar)
        assert_plans_identical(plan_fast, plan_scalar)


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_keep_mru_from_the_scoring_pass_is_placement_mru(seed: int) -> None:
    """The sticky rule reads the MRU of staying put off the vector the
    fast backend scored every switch with; the reference walk's
    ``placement_mru`` is the oracle, bit for bit, at every state a
    sticky epoch passes through."""
    topology, router, demands, config = build_scenario(seed)
    fast = GreedyAssigner(topology, config, router=router)
    assert fast.engine_name == "fast"
    old_map = fast.assign(demands).vip_to_switch
    alive = [
        s for s in range(topology.n_switches)
        if s not in router.failed_switches
    ]
    pick = random.Random(seed ^ 0x5C0DE)
    compared = feasible = 0
    sticky = fast.keep_or_move(old_map, 0.05)

    def checking(demand, link_util, mem_util):
        nonlocal compared, feasible
        # Where the VIP is (if anywhere) and one switch it is not on.
        for current in {old_map.get(demand.vip_id), pick.choice(alive)}:
            if current is None:
                continue
            choice, keep = fast.score(demand, link_util, mem_util, current)
            assert keep == fast.placement_mru(
                demand, current, link_util, mem_util,
            )
            assert choice == fast.best_switch(demand, link_util, mem_util)
            compared += 1
            feasible += keep is not None
        return sticky(demand, link_util, mem_util)

    fast.place([d.scaled(1.3) for d in demands], checking)
    assert compared >= len(old_map)
    # Vacuous only where nothing could be placed to begin with.
    assert feasible > 0 or not old_map


@pytest.mark.parametrize("seed", range(0, N_SCENARIOS, 10))
def test_assign_is_the_sticky_pass_with_no_old_map(seed: int) -> None:
    """One placement driver: a from-scratch assignment and the first
    sticky epoch (no old map) are the same pass, field for field."""
    topology, router, demands, config = build_scenario(seed)
    fresh = GreedyAssigner(topology, config, router=router).assign(demands)
    sticky, plan = StickyMigrator(
        topology, config, router=router,
    ).reassign(None, demands)
    assert_assignments_identical(fresh, sticky)
    assert fresh.demands == sticky.demands
    assert fresh.config == sticky.config
    assert fresh.topology is sticky.topology
    assert all(step.kind is StepKind.ANNOUNCE for step in plan.steps)
    assert sorted(plan.moved_vip_ids) == sorted(fresh.vip_to_switch)


def test_scenarios_cover_the_interesting_axes() -> None:
    """The scenario generator must actually hit both candidate
    strategies, failures, budgets, and oversubscription — otherwise the
    200 scenarios above could silently degenerate."""
    strategies = set()
    any_failed = 0
    any_budget = 0
    any_unassigned = 0
    for seed in range(N_SCENARIOS):
        topology, router, demands, config = build_scenario(seed)
        strategies.add(config.candidate_strategy)
        if router.failed_switches:
            any_failed += 1
        if topology.params.tables != SwitchTableSpec():
            any_budget += 1
        if seed % 20 == 0:  # sample: solving all 200 twice is the tier above
            result = GreedyAssigner(
                topology, config, router=router,
            ).assign(demands)
            if result.unassigned:
                any_unassigned += 1
    assert strategies == {"container-best-tor", "exhaustive"}
    assert any_failed >= 20
    assert any_budget >= 20
    assert any_unassigned >= 1
