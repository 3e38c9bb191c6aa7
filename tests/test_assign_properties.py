"""Property tests for the greedy assignment invariants (S4.1).

Where the differential tier proves the fast backend and the scalar
reference walk agree with each other, this tier proves they both agree
with the *spec*:

* capacity — a solved network never has a link or switch memory above
  MRU 1.0 (placement is refused rather than oversubscribed);
* budget — the global /32 host-route budget (16K in the paper's
  switches, smaller when configured) is never exceeded;
* completeness — with the stop-on-first-failure strawman off, a VIP is
  left unassigned only when no candidate placement was feasible;
* determinism — the same seed reproduces the same solution exactly, for
  both backends, and independently of ``PYTHONHASHSEED``;
* refinement — local search never makes the network MRU worse.

Randomized inputs reuse the seeded scenario generator from the
differential tier plus Hypothesis-driven small worlds.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import subprocess
import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fastassign as fastassign
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.migration import (
    NonStickyMigrator,
    OneTimeMigrator,
    StickyMigrator,
)
from repro.core.refine import AssignmentRefiner
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import generate_population
from tests.test_assign_differential import build_scenario, reference_walk

#: Test-side names for the two scoring backends: the production default
#: and the reference walk it falls back to past ``DENSE_CELL_LIMIT``.
ASSIGN_ENGINES = ("fast", "scalar")


def backend(engine: str):
    """Context in which every assigner built scores through ``engine``."""
    return reference_walk() if engine == "scalar" else contextlib.nullcontext()

#: Float-comparison slack for "is this resource within capacity": the
#: solver's own feasibility epsilon.
EPS = 1e-9

#: A representative spread of the differential tier's scenario space.
PROPERTY_SEEDS = list(range(0, 200, 7))


def solve(seed: int, engine: str, **overrides):
    topology, router, demands, config = build_scenario(seed)
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    with backend(engine):
        assigner = GreedyAssigner(topology, config, router=router)
    assert assigner.engine_name == engine
    return assigner, assigner.assign(demands), demands


@pytest.mark.parametrize("engine", ASSIGN_ENGINES)
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_placed_vips_keep_mru_within_capacity(seed: int, engine: str) -> None:
    _assigner, assignment, _demands = solve(seed, engine)
    assert float(assignment.link_utilization.max()) <= 1.0 + EPS
    assert float(assignment.memory_utilization.max()) <= 1.0 + EPS


@pytest.mark.parametrize("engine", ASSIGN_ENGINES)
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_host_route_budget_never_exceeded(seed: int, engine: str) -> None:
    assigner, assignment, _demands = solve(seed, engine)
    assert len(assignment.vip_to_switch) <= assigner.host_table_budget


@pytest.mark.parametrize("engine", ASSIGN_ENGINES)
@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_unassigned_only_if_infeasible(seed: int, engine: str) -> None:
    """With the stop-on-first-failure strawman off, every unassigned VIP
    must have had *no* feasible placement when it was considered.

    Soundness of checking against the final state: utilization only
    grows during the greedy pass, so a placement that is feasible after
    the solve was feasible at decision time too — finding one for an
    unassigned VIP is a genuine bug.  The check needs the exhaustive
    candidate strategy so the candidate set itself is state-independent.
    """
    assigner, assignment, demands = solve(
        seed, engine,
        stop_on_first_failure=False,
        candidate_strategy="exhaustive",
    )
    by_id = {d.vip_id: d for d in demands}
    budget_full = len(assignment.vip_to_switch) >= assigner.host_table_budget
    for vip_id in assignment.unassigned:
        demand = by_id[vip_id]
        if demand.n_dips > assigner.dip_capacity:
            continue
        if budget_full:
            continue
        assert assigner.best_switch(
            demand,
            assignment.link_utilization,
            assignment.memory_utilization,
        ) is None, f"VIP {vip_id} was unassigned despite a feasible placement"


@pytest.mark.parametrize("engine", ASSIGN_ENGINES)
@pytest.mark.parametrize("seed", PROPERTY_SEEDS[::3])
def test_same_seed_reproduces_identical_solution(
    seed: int, engine: str,
) -> None:
    _a1, first, _d1 = solve(seed, engine)
    _a2, second, _d2 = solve(seed, engine)
    assert first.vip_to_switch == second.vip_to_switch
    assert first.unassigned == second.unassigned
    assert np.array_equal(first.link_utilization, second.link_utilization)
    assert np.array_equal(
        first.memory_utilization, second.memory_utilization,
    )


@pytest.mark.parametrize("engine", ASSIGN_ENGINES)
@pytest.mark.parametrize("seed", PROPERTY_SEEDS[::2])
def test_refine_never_increases_mru(seed: int, engine: str) -> None:
    topology, router, demands, config = build_scenario(seed)
    # vip_order="random" hands refine a deliberately sub-optimal greedy
    # pass so the hill-climb has something to climb.
    import dataclasses

    config = dataclasses.replace(config, vip_order="random")
    with backend(engine):
        assigner = GreedyAssigner(topology, config, router=router)
        assignment = assigner.assign(demands)
        result = AssignmentRefiner(topology, config).refine(assignment)
    assert result.final_mru <= result.initial_mru + 1e-12
    # The reported MRUs must be the real array peaks, not stale caches.
    recomputed = max(
        float(result.assignment.link_utilization.max()),
        float(result.assignment.memory_utilization.max()),
    )
    assert recomputed == pytest.approx(result.final_mru, abs=1e-12)
    # Refinement relocates VIPs; it never silently drops or invents one.
    assert set(result.assignment.vip_to_switch) == set(
        assignment.vip_to_switch
    )


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    containers=st.integers(min_value=2, max_value=3),
    tors=st.integers(min_value=2, max_value=3),
    n_vips=st.integers(min_value=5, max_value=40),
    load=st.floats(min_value=0.2, max_value=2.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_capacity_and_budget_hold_on_hypothesis_worlds(
    containers: int, tors: int, n_vips: int, load: float, seed: int,
) -> None:
    topology = Topology(FatTreeParams(
        n_containers=containers,
        tors_per_container=tors,
        aggs_per_container=2,
        n_cores=2,
        servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips, topology.params.n_servers * 300e6 * load,
        seed=seed,
    )
    config = AssignmentConfig(stop_on_first_failure=False, seed=seed)
    for engine in ASSIGN_ENGINES:
        with backend(engine):
            assigner = GreedyAssigner(topology, config)
        assignment = assigner.assign(population.demands())
        assert float(assignment.link_utilization.max()) <= 1.0 + EPS
        assert float(assignment.memory_utilization.max()) <= 1.0 + EPS
        assert len(assignment.vip_to_switch) <= assigner.host_table_budget


# -- engine plumbing ---------------------------------------------------------


def test_engine_name_is_validated() -> None:
    """No engine selector remains: the name is what the assigner reports
    it picked, never something a caller can ask for."""
    topology = Topology(FatTreeParams(
        n_containers=2, tors_per_container=2, aggs_per_container=2,
        n_cores=2, servers_per_tor=4,
    ))
    assert GreedyAssigner(topology).engine_name == "fast"
    with pytest.raises(TypeError):
        AssignmentConfig(engine="fast")
    for takes_no_engine in (
        GreedyAssigner, AssignmentRefiner, StickyMigrator,
        NonStickyMigrator, OneTimeMigrator,
    ):
        with pytest.raises(TypeError):
            takes_no_engine(topology, engine="fast")


def test_fast_engine_falls_back_when_dense_matrix_too_large(
    monkeypatch,
) -> None:
    topology = Topology(FatTreeParams(
        n_containers=2, tors_per_container=2, aggs_per_container=2,
        n_cores=2, servers_per_tor=4,
    ))
    monkeypatch.setattr(fastassign, "DENSE_CELL_LIMIT", 1)
    before = fastassign.ASSIGN_STATS["fast"].fallbacks
    assigner = GreedyAssigner(topology)
    assert assigner.engine_name == "scalar"
    assert fastassign.ASSIGN_STATS["fast"].fallbacks == before + 1


# -- PYTHONHASHSEED regression (seed-stability audit) ------------------------

#: The audit of assignment.py / refine.py / migration.py found every
#: cross-VIP iteration already sorted or insertion-ordered (dicts keyed
#: by vip_id populated in solve order; ``diff_assignments`` sorts both
#: phases; refine candidates sort by contribution).  This subprocess
#: regression pins that: the full solve / refine / sticky-trace pipeline
#: must produce one digest under any hash seed.
_HASHSEED_SCRIPT = """
import hashlib, json
import repro.core.fastassign as fastassign
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.migration import StickyMigrator
from repro.core.refine import AssignmentRefiner
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import generate_population

topology = Topology(FatTreeParams(
    n_containers=3, tors_per_container=3, aggs_per_container=2,
    n_cores=4, servers_per_tor=8,
))
population = generate_population(topology, 50, 45e9, seed=11)
demands = population.demands()
config = AssignmentConfig(stop_on_first_failure=False, seed=5)
blob = []
for dense_cell_limit in (fastassign.DENSE_CELL_LIMIT, 0):  # fast, reference walk
    fastassign.DENSE_CELL_LIMIT = dense_cell_limit
    assignment = GreedyAssigner(topology, config).assign(demands)
    blob.append(sorted(assignment.vip_to_switch.items()))
    blob.append(list(assignment.unassigned))
    refined = AssignmentRefiner(topology, config).refine(assignment)
    blob.append(sorted(refined.assignment.vip_to_switch.items()))
    sticky = StickyMigrator(topology, config)
    current = None
    for factor in (1.0, 1.25, 0.8):
        scaled = [d.scaled(factor) for d in demands]
        current, plan = sticky.reassign(current, scaled)
        blob.append([
            (step.kind.value, step.vip_id, step.switch_index)
            for step in plan.steps
        ])
print(hashlib.sha256(json.dumps(blob).encode()).hexdigest())
"""


def test_solver_is_stable_across_pythonhashseed() -> None:
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(repo_root / "src")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env, cwd=repo_root,
            check=True,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, f"hash-seed-dependent solve: {digests}"
