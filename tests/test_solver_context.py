"""The controller's warm solver context: one router + assigner per
network state, looked up by key at every solve.

Four claims, each with its own tier:

* **Differential.**  A trace of sticky epochs through one long-lived
  controller — VIP churn, a switch failure and recovery, a link cut and
  repair in the middle — yields the same migration plans and the same
  controller fingerprint as a twin that builds a fresh ``EcmpRouter`` +
  ``StickyMigrator`` for every epoch (what ``rebalance`` did before the
  context existed), on the fast backend and on the reference walk.
* **Property.**  Every public mutation of the failure set changes the
  context key, so no solve can see a router whose failure set differs
  from the controller's.
* **Initial assignment** goes through the same context: computed after a
  failure it neither scores the dead switch nor degrades a VIP.
* **Durability.**  The context is derived state: not in the journal, the
  snapshot or the fingerprint, and a restored controller starts cold.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentConfig
from repro.core.controller import ControllerError, DuetController
from repro.core.migration import MigrationPlan, StickyMigrator
from repro.durability import WriteAheadJournal, controller_fingerprint
from repro.durability.recovery import snapshot_state
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, SwitchKind, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.vips import generate_population

from tests.test_assign_differential import (
    assert_plans_identical,
    reference_walk,
)

PARAMS = FatTreeParams(
    n_containers=3, tors_per_container=3, aggs_per_container=2,
    n_cores=4, servers_per_tor=8,
)
CONFIG = AssignmentConfig(stop_on_first_failure=False)
N_EPOCHS = 9


def build_controller(seed: int) -> DuetController:
    topology = Topology(PARAMS)
    population = generate_population(
        topology, n_vips=30, total_traffic_bps=12e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12), seed=seed,
    )
    return DuetController(
        topology, population, n_smuxes=2, config=CONFIG, hash_seed=seed,
    )


def most_loaded_switch(controller: DuetController) -> int:
    agents = controller.switch_agents
    return max(agents, key=lambda s: (len(agents[s].hmux.vips()), -s))


def cold_rebalance(controller: DuetController, demands) -> MigrationPlan:
    """One epoch the way the controller solved it before it kept a
    context: a new router and a new migrator, used once."""
    router = EcmpRouter(
        controller.topology,
        failed_switches=controller.failed_switches,
        failed_links=controller.failed_links,
    )
    migrator = StickyMigrator(
        controller.topology, controller.config, router=router,
    )
    new, _plan = migrator.reassign(controller.assignment, demands)
    return controller.apply_assignment(new)


def run_trace(seed: int, warm: bool) -> Tuple[List[MigrationPlan], dict]:
    """Nine epochs with churn; fail a loaded switch before epoch 2,
    recover it before epoch 4, cut an Agg-Core cable before epoch 5 and
    repair it before epoch 7."""
    controller = build_controller(seed)
    epochs = TraceGenerator(
        controller.population,
        TraceConfig(n_epochs=N_EPOCHS, churn_fraction=0.1), seed=seed,
    ).epochs()
    vips_by_id = {vip.vip_id: vip for vip in controller.population}
    controller.run_initial_assignment()
    victim = most_loaded_switch(controller)
    topology = controller.topology
    cable = topology.link_between(
        topology.aggs(0)[0],
        next(
            link.dst for link in topology.links
            if link.src == topology.aggs(0)[0]
            and topology.switch(link.dst).kind is SwitchKind.CORE
        ),
    ).index
    plans: List[MigrationPlan] = []
    for epoch in epochs:
        if epoch.index == 2:
            controller.fail_switch(victim)
        elif epoch.index == 4:
            controller.recover_switch(victim)
        elif epoch.index == 5:
            assert controller.cut_link(cable) == []
        elif epoch.index == 7:
            controller.restore_link(cable)
        for vip_id in epoch.removed_vip_ids:
            controller.remove_vip(vips_by_id[vip_id].addr)
        for vip_id in epoch.added_vip_ids:
            controller.add_vip(vips_by_id[vip_id])
        demands = list(epoch.demands)
        if warm:
            plans.append(controller.rebalance(demands))
        else:
            plans.append(cold_rebalance(controller, demands))
    return plans, controller_fingerprint(controller)


@pytest.mark.parametrize("seed", range(6))
def test_warm_context_matches_a_fresh_solver_per_epoch(seed: int) -> None:
    results = {}
    for engine in ("fast", "scalar"):
        with reference_walk() if engine == "scalar" else nullcontext():
            for warm in (True, False):
                results[engine, warm] = run_trace(seed, warm)
    reference_plans, reference_fingerprint = results["scalar", False]
    assert any(plan.steps for plan in reference_plans[1:])
    for plans, fingerprint in results.values():
        assert len(plans) == N_EPOCHS
        for plan, reference in zip(plans, reference_plans):
            assert_plans_identical(plan, reference)
        assert fingerprint == reference_fingerprint


def test_the_trace_runs_on_the_engine_it_names() -> None:
    """The tier above is vacuous if lowering the limit did not reach the
    controller's context."""
    controller = build_controller(0)
    controller.run_initial_assignment()
    assert controller._solver().assigner.engine_name == "fast"
    with reference_walk():
        controller = build_controller(0)
        controller.run_initial_assignment()
        assert controller._solver().assigner.engine_name == "scalar"


def test_consecutive_epochs_share_one_context() -> None:
    controller = build_controller(1)
    controller.run_initial_assignment()
    solver = controller._solver()
    controller.rebalance()
    controller.rebalance(delta=0.0)
    assert controller._solver() is solver
    with pytest.raises(ValueError):
        controller.rebalance(delta=-0.1)


# -- (b) the key tracks every mutation of the failure set --------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from((
            "fail_switch", "recover_switch", "cut_link", "restore_link",
            "rebalance",
        )),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_every_failure_set_mutation_changes_the_key(ops) -> None:
    controller = build_controller(2)
    controller.run_initial_assignment()
    topology = controller.topology
    for op, pick in ops:
        failed_before = (controller.failed_switches, controller.failed_links)
        key_before = controller._solver_key()
        if op == "fail_switch":
            controller.fail_switch(pick % topology.n_switches)
        elif op == "recover_switch":
            down = sorted(controller.failed_switches)
            if down:
                try:
                    controller.recover_switch(down[pick % len(down)])
                except ControllerError:
                    pass  # still isolated by cut links: nothing changed
        elif op == "cut_link":
            controller.cut_link(
                pick % topology.n_links,
                bidirectional=(pick // topology.n_links) % 2 == 0,
            )
        elif op == "restore_link":
            cut = sorted(controller.failed_links)
            if cut:
                controller.restore_link(
                    cut[pick % len(cut)],
                    bidirectional=(pick // len(cut)) % 2 == 0,
                )
        else:
            controller.rebalance()
        failed_after = (controller.failed_switches, controller.failed_links)
        assert (controller._solver_key() != key_before) == (
            failed_after != failed_before
        )
        # What the next solve would run on describes the network as the
        # controller sees it now.
        router = controller._solver().assigner.calculator.router
        assert router.failed_switches == controller.failed_switches
        assert router.failed_links == controller.failed_links


def test_a_config_change_changes_the_key() -> None:
    controller = build_controller(3)
    controller.run_initial_assignment()
    solver = controller._solver()
    controller.config = AssignmentConfig(link_headroom=0.7)
    assert controller._solver() is not solver
    assert controller._solver().assigner.config.link_headroom == 0.7


# -- initial assignment after a failure --------------------------------------


def test_initial_assignment_after_a_switch_failure_avoids_it() -> None:
    """``run_initial_assignment`` used to build its assigner without a
    router: it scored the dead switch like any other, and the plan guard
    then degraded every VIP it had put there."""
    controller = build_controller(4)
    # Where a failure-blind solve would put the most VIPs.
    blind = build_controller(4)
    blind.run_initial_assignment()
    victim = most_loaded_switch(blind)
    assert blind.switch_agents[victim].hmux.vips()

    controller.fail_switch(victim)
    assignment = controller.run_initial_assignment()
    assert assignment.n_assigned > 0
    assert victim not in assignment.vip_to_switch.values()
    assert controller.degraded_vips == set()
    assert controller.programming_stats.skipped_dead_switch == 0
    assert controller.switch_agents[victim].hmux.vips() == []


# -- (d) derived state: not durable, not part of identity --------------------


def test_context_is_not_journaled_snapshotted_or_fingerprinted() -> None:
    controller = build_controller(5)
    journal = WriteAheadJournal()
    controller.attach_journal(journal, snapshot_interval=4)
    controller.run_initial_assignment()
    victim = sorted(controller.switch_agents)[0]
    controller.fail_switch(victim)

    assert controller._solver_context is not None
    with_context = (
        json.dumps(snapshot_state(controller), sort_keys=True),
        controller_fingerprint(controller),
    )
    controller._solver_context = None
    assert with_context == (
        json.dumps(snapshot_state(controller), sort_keys=True),
        controller_fingerprint(controller),
    )

    controller.rebalance()
    controller.checkpoint()
    restored = DuetController.restore(journal, topology=controller.topology)
    assert restored._solver_context is None
    assert controller_fingerprint(restored)["assignment"] == (
        controller_fingerprint(controller)["assignment"]
    )
    # Its first solve builds a context for the failure set it replayed.
    restored.rebalance()
    router = restored._solver().assigner.calculator.router
    assert router.failed_switches == {victim}


# -- cache hit/miss accounting -----------------------------------------------


def test_warm_epochs_hit_the_caches_and_the_registry_says_so() -> None:
    from repro.core.fastassign import stats_for
    from repro.obs import MetricsRegistry, register_assignment_metrics

    controller = build_controller(6)
    controller.run_initial_assignment()          # the cold solve
    stats = stats_for("fast")
    n_vips = len(controller.population)
    before = (
        stats.structure_hits, stats.rows_built,
        stats.leg_hits, stats.leg_misses, stats.rows_invalidated,
    )
    controller.rebalance()
    controller.rebalance()
    assert stats.structure_hits - before[0] == 2 * n_vips
    assert (stats.rows_built, stats.leg_misses, stats.rows_invalidated) == (
        before[1], before[3], before[4],
    )

    controller.fail_switch(sorted(controller.switch_agents)[0])
    controller.rebalance()                       # new key: cold again
    assert stats.leg_misses > before[3]
    assert stats.rows_built > before[1]

    registry = MetricsRegistry()
    register_assignment_metrics(registry)
    registry.collect()
    hits = registry.get("duet_assign_cache_hits_total")
    misses = registry.get("duet_assign_cache_misses_total")
    assert hits.value("fast", "structure") == stats.structure_hits
    assert hits.value("fast", "leg") == stats.leg_hits
    assert misses.value("fast", "structure") == stats.rows_built
    assert misses.value("fast", "leg") == stats.leg_misses
