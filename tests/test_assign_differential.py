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
pass over all scenarios holds the fast backend's price of a VIP's
current switch equal to ``placement_mru``, and a third holds the sticky
rule's early keep to the decisions of a policy that prices every
candidate for every VIP.  One layer down, ``walk_load_vector`` keeps
the leg-by-leg load-vector walk the calculator's templates replaced, as
the oracle they must equal byte for byte.
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
    LoadCalculator,
)
from repro.core.migration import StepKind, StickyMigrator
from repro.net.routing import EcmpRouter, UnreachableError
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


def walk_load_vector(
    calc: LoadCalculator, demand: VipDemand, switch_index: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """The load vector leg by leg, as the calculator computed it before
    it kept templates: the oracle ``load_vector`` must equal byte for
    byte."""
    failed = calc.router.failed_switches
    parts_idx: List[np.ndarray] = []
    parts_val: List[np.ndarray] = []
    traffic = demand.traffic_bps
    for tor, fraction in demand.ingress_racks:
        if tor in failed:
            continue
        idx, val = calc._pf(tor, switch_index)
        parts_idx.append(idx)
        parts_val.append(val * (traffic * fraction))
    if demand.internet_fraction > 0:
        idx, val = calc._internet_pf(switch_index)
        parts_idx.append(idx)
        parts_val.append(val * (traffic * demand.internet_fraction))
    diffuse = demand.diffuse_intra_fraction
    if diffuse > 1e-12:
        idx, val = calc._diffuse_pf(switch_index)
        parts_idx.append(idx)
        parts_val.append(val * (traffic * diffuse))
    alive_dip_tors = [
        (tor, count) for tor, count in demand.dip_tors if tor not in failed
    ]
    alive_dips = sum(count for _, count in alive_dip_tors)
    if alive_dips == 0 and demand.n_dips > 0:
        raise UnreachableError(switch_index, switch_index)
    if alive_dips > 0:
        per_dip = traffic / alive_dips
        for tor, count in alive_dip_tors:
            idx, val = calc._pf(switch_index, tor)
            parts_idx.append(idx)
            parts_val.append(val * (per_dip * count))
    if not parts_idx:
        return (np.empty(0, dtype=np.int64), np.empty(0))
    idx = np.concatenate(parts_idx)
    load = np.concatenate(parts_val)
    return idx, load / calc._capacity[idx]


def assert_load_vectors_match(
    calc: LoadCalculator, demands: List[VipDemand],
) -> Tuple[int, int]:
    """``load_vector`` against the walk for every demand on every switch,
    in order; returns (vectors compared, unreachable pairs)."""
    compared = unreachable = 0
    for demand in demands:
        for s in range(calc.topology.n_switches):
            try:
                want = walk_load_vector(calc, demand, s)
            except UnreachableError:
                with pytest.raises(UnreachableError):
                    calc.load_vector(demand, s)
                unreachable += 1
                continue
            idx, util = calc.load_vector(demand, s)
            assert idx.dtype == want[0].dtype and util.dtype == want[1].dtype
            assert idx.tobytes() == want[0].tobytes(), (demand, s)
            assert util.tobytes() == want[1].tobytes(), (demand, s)
            compared += 1
    return compared, unreachable


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
    """The fast backend prices every switch in one pass (``_link_peaks``
    plus the memory term); the sticky rule prices staying put with the
    templated ``placement_mru``.  At every state a sticky epoch passes
    through, the two agree on the current switch, bit for bit."""
    topology, router, demands, config = build_scenario(seed)
    fast = GreedyAssigner(topology, config, router=router)
    assert fast.engine_name == "fast"
    engine = fast._engine
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
        structure = engine._structure(demand)
        global_max = fast._global_max(link_util, mem_util)
        peaks = engine._link_peaks(structure, demand, link_util)
        # Where the VIP is (if anywhere) and one switch it is not on.
        for current in {old_map.get(demand.vip_id), pick.choice(alive)}:
            if current is None:
                continue
            new_mem = mem_util[current] + demand.n_dips / fast.dip_capacity
            priced = None
            if not (
                structure.plan.all_unreachable
                or new_mem > 1.0 + 1e-12
                or not structure.reachable[current]
            ):
                priced = max(global_max, float(peaks[current]), float(new_mem))
            assert priced == fast.placement_mru(
                demand, current, link_util, mem_util,
            )
            compared += 1
            feasible += priced is not None
        return sticky(demand, link_util, mem_util)

    fast.place([d.scaled(1.3) for d in demands], checking)
    assert compared >= len(old_map)
    # Vacuous only where nothing could be placed to begin with.
    assert feasible > 0 or not old_map


#: Demands per scenario the load-vector oracle varies.
ORACLE_DEMANDS = 4


def demand_variants(demand: VipDemand) -> List[VipDemand]:
    """Shapes one generated demand does not reach on its own: no
    Internet share, no diffuse share, no DIPs, and all three at once
    (Internet only), which every switch the cores reach can serve."""
    pinned = sum(fraction for _, fraction in demand.ingress_racks)
    return [
        replace(demand, internet_fraction=0.0),
        replace(demand, internet_fraction=max(0.0, 1.0 - pinned)),
        replace(demand, n_dips=0, dip_tors=()),
        replace(
            demand, ingress_racks=(), internet_fraction=1.0,
            n_dips=0, dip_tors=(),
        ),
    ]


@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_load_vector_is_the_leg_walk(seed: int) -> None:
    """A templated load vector is the leg-by-leg walk's, byte for byte:
    first-seen shapes, drifted epochs of them, shapes with no Internet,
    diffuse or DIP share, dead ingress and DIP racks, and a VIP whose
    DIP racks are all dead (unreachable from every switch)."""
    topology, router, demands, config = build_scenario(seed)
    picked = sorted(demands, key=lambda d: -d.traffic_bps)[:ORACLE_DEMANDS]
    calc = LoadCalculator(topology, router, config.link_headroom)
    drift = random.Random(seed ^ 0x10AD)
    checked = picked + [d.scaled(drift.uniform(0.5, 1.8)) for d in picked]
    checked += [v for d in picked for v in demand_variants(d)]
    compared, _ = assert_load_vectors_match(calc, checked)
    assert compared > 0

    # Dead racks: one pinned ingress rack and one DIP rack die, another
    # DIP rack survives; a second VIP has DIPs on the dead racks only.
    failed = router.failed_switches
    live = [
        t for c in range(topology.n_containers)
        if any(a not in failed for a in topology.aggs(c))
        for t in topology.tors(c) if t not in failed
    ]
    t0, t1, t2 = (live * 3)[:3]
    base = picked[0]
    probe = replace(
        base, ingress_racks=((t0, 0.3), (t1, 0.2)), internet_fraction=0.4,
        dip_tors=((t1, 2), (t2, 3)), n_dips=5,
    )
    stranded = replace(probe, dip_tors=((t0, 2), (t1, 1)), n_dips=3)
    calc = LoadCalculator(
        topology, EcmpRouter(topology, failed_switches=(*failed, t0, t1)),
        config.link_headroom,
    )
    shapes = [probe, probe.scaled(1.7), stranded] + picked
    _, unreachable = assert_load_vectors_match(calc, shapes)
    assert unreachable >= topology.n_switches  # every switch, for stranded


def test_a_drifted_epoch_builds_no_new_template() -> None:
    """Only the traffic volume changes between epochs, so the second
    epoch's vectors all come from the first epoch's templates."""
    seed = 3
    topology, router, demands, config = build_scenario(seed)
    calc = LoadCalculator(topology, router, config.link_headroom)
    assert_load_vectors_match(calc, demands)
    built: List[Tuple[VipDemand, int]] = []
    template = calc._template

    def counting(demand, switch_index):
        # Unreachable pairs raise here every time: nothing is built.
        made = template(demand, switch_index)
        built.append((demand, switch_index))
        return made

    calc._template = counting
    compared, _ = assert_load_vectors_match(calc, drifted(seed, demands))
    assert compared > 0
    assert built == []


#: Sticky thresholds the early keep is checked under: none, the paper's,
#: and one wide enough that a stay past full capacity would fit in it.
STICKY_DELTAS = (0.0, 0.05, 0.5)


def drifted(seed: int, demands: List[VipDemand]) -> List[VipDemand]:
    """The epoch after ``demands``: each VIP's traffic scaled on its own."""
    drift = random.Random(seed ^ 0x57C1)
    return [d.scaled(drift.uniform(0.5, 1.8)) for d in demands]


def full_search(assigner: GreedyAssigner, old_map, delta: float):
    """The sticky rule as it reads in S4.2, with no shortcut: score
    every candidate for every VIP, then keep the current switch unless
    the best fresh placement beats it by more than ``delta``."""
    failed = assigner.calculator.router.failed_switches

    def policy(demand, link_util, mem_util):
        current = old_map.get(demand.vip_id)
        keep_mru = None
        if current is not None and current not in failed:
            keep_mru = assigner.placement_mru(
                demand, current, link_util, mem_util,
            )
        choice = assigner.best_switch(demand, link_util, mem_util)
        if keep_mru is not None and keep_mru <= 1.0 and (
            choice is None or keep_mru - choice[1] <= delta
        ):
            return current, False
        if choice is None:
            return None, True
        return choice[0], False

    return policy


@pytest.mark.parametrize("walk", (False, True), ids=("fast", "scalar"))
@pytest.mark.parametrize("seed", range(N_SCENARIOS))
def test_sticky_keep_decides_as_the_full_search(seed: int, walk: bool) -> None:
    """``keep_or_move`` keeps a VIP without a search when staying is
    within delta of the global max; at every state an epoch passes
    through, on both engines and every delta, its answer is the one the
    full search gives."""
    topology, router, demands, config = build_scenario(seed)
    with reference_walk() if walk else contextlib.nullcontext():
        assigner = GreedyAssigner(topology, config, router=router)
    assert assigner.engine_name == ("scalar" if walk else "fast")
    old_map = assigner.assign(demands).vip_to_switch
    epoch = drifted(seed, demands)
    for delta in STICKY_DELTAS:
        sticky = assigner.keep_or_move(old_map, delta)
        reference = full_search(assigner, old_map, delta)
        decided = 0

        def checking(demand, link_util, mem_util):
            nonlocal decided
            answer = sticky(demand, link_util, mem_util)
            assert answer == reference(demand, link_util, mem_util)
            decided += 1
            return answer

        assigner.place(epoch, checking)
        assert decided > 0 or not demands


def test_sticky_scenarios_both_keep_early_and_move() -> None:
    """The differential above is vacuous unless its epochs both take the
    early keep and move VIPs the search found better homes for."""
    keeps = moves = 0
    for seed in range(0, N_SCENARIOS, 10):
        topology, router, demands, config = build_scenario(seed)
        assigner = GreedyAssigner(topology, config, router=router)
        old_map = assigner.assign(demands).vip_to_switch
        before = assigner.stats.sticky_keeps
        placed = assigner.place(
            drifted(seed, demands), assigner.keep_or_move(old_map, 0.05),
        ).vip_to_switch
        keeps += assigner.stats.sticky_keeps - before
        moves += sum(
            1 for vip, switch in placed.items()
            if vip in old_map and old_map[vip] != switch
        )
    assert keeps > 0
    assert moves > 0


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
