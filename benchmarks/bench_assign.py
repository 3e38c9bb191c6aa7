#!/usr/bin/env python
"""Fast-vs-scalar assignment-engine benchmark (ISSUE 7 tentpole gate).

Times one epoch solve of a >= 2000-VIP population on a multi-container
fabric through the vectorized backend and through the scalar reference
walk (reached the way production reaches it — as the size-selected
fallback, by lowering ``DENSE_CELL_LIMIT`` for the baseline), spot-checks
that the two produce the identical placement, and writes the numbers to
``BENCH_assign.json``.  CI runs this with ``--min-speedup 5`` (the
ISSUE 7 acceptance bar) so a regression that de-vectorizes the epoch
solver fails the build.

Two fast-engine timings are reported:

* ``cold`` — a fresh ``GreedyAssigner`` per solve, paying the per-epoch
  delta-matrix build;
* ``warm`` — a persistent assigner re-solving a scaled epoch, the
  steady-state migration-planner shape where traffic-independent VIP
  structures are served from cache.

The gate applies to the *cold* speedup: it is the conservative number
(every epoch pays matrix construction) and the one a chaos-remediation
re-plan sees.

Usage::

    PYTHONPATH=src python benchmarks/bench_assign.py \
        [--vips 2500] [--repeats 3] [--out BENCH_assign.json] \
        [--min-speedup 5]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Dict, List

import numpy as np

import repro.core.fastassign as fastassign
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import VipDemand, generate_population

#: The bench fabric: 12 containers x 10 ToRs, 176 switches, 1152
#: directional links — big enough that candidate scoring dominates and
#: the multi-container acceptance bar (>= 2000 VIPs) is meaningful.
FABRIC = FatTreeParams(
    n_containers=12,
    tors_per_container=10,
    aggs_per_container=4,
    n_cores=8,
    servers_per_tor=24,
)

TOTAL_TRAFFIC_BPS = 400e9


def build_world(n_vips: int, seed: int):
    topology = Topology(FABRIC)
    router = EcmpRouter(topology)
    population = generate_population(
        topology, n_vips, TOTAL_TRAFFIC_BPS, seed=seed,
    )
    # No early stop: the paper's stop-on-first-failure semantics would
    # let an infeasible head-of-line VIP end the solve (and the
    # benchmark) after a handful of placements.
    config = AssignmentConfig(stop_on_first_failure=False)
    return topology, router, config, population.demands()


def best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def reference_walk():
    """Assigners built inside take the size-selected scalar fallback."""
    limit = fastassign.DENSE_CELL_LIMIT
    fastassign.DENSE_CELL_LIMIT = 0
    try:
        yield
    finally:
        fastassign.DENSE_CELL_LIMIT = limit


def bench(n_vips: int, repeats: int, seed: int) -> Dict[str, object]:
    topology, router, config, demands = build_world(n_vips, seed)

    def solve(engine: str):
        backend = (
            reference_walk() if engine == "scalar"
            else contextlib.nullcontext()
        )
        with backend:
            assigner = GreedyAssigner(topology, config, router=router)
        assert assigner.engine_name == engine
        return assigner.assign(demands)

    scalar_s = best_seconds(lambda: solve("scalar"), repeats)
    fast_cold_s = best_seconds(lambda: solve("fast"), repeats)

    # Warm epochs: a persistent assigner re-solving drifted traffic, as
    # the sticky/non-sticky migrators do.  VIP structures are keyed on
    # traffic-independent shape, so a uniformly scaled epoch is a pure
    # cache hit.
    warm = GreedyAssigner(topology, config, router=router)
    warm.assign(demands)
    drifted: List[VipDemand] = [d.scaled(1.1) for d in demands]
    fast_warm_s = best_seconds(lambda: warm.assign(drifted), repeats)

    # Identity rides along with every benchmark run.
    fast_result = solve("fast")
    scalar_result = solve("scalar")
    assert fast_result.vip_to_switch == scalar_result.vip_to_switch
    assert fast_result.unassigned == scalar_result.unassigned
    assert np.array_equal(
        fast_result.link_utilization, scalar_result.link_utilization,
    )

    return {
        "n_vips": n_vips,
        "n_switches": topology.n_switches,
        "n_links": topology.n_links,
        "n_placed": len(fast_result.vip_to_switch),
        "n_unassigned": len(fast_result.unassigned),
        "scalar_s": scalar_s,
        "fast_cold_s": fast_cold_s,
        "fast_warm_s": fast_warm_s,
        "speedup_cold": scalar_s / fast_cold_s,
        "speedup_warm": scalar_s / fast_warm_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vips", type=int, default=2500)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="BENCH_assign.json")
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail (exit 1) if the cold epoch-solve speedup is below this",
    )
    args = parser.parse_args(argv)

    report = {
        "repeats": args.repeats,
        "seed": args.seed,
        "assign": bench(args.vips, args.repeats, args.seed),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    numbers = report["assign"]
    print(
        f"epoch solve ({numbers['n_vips']} VIPs, "
        f"{numbers['n_switches']} switches): "
        f"scalar {numbers['scalar_s']:.2f}s, "
        f"fast {numbers['fast_cold_s']:.2f}s cold / "
        f"{numbers['fast_warm_s']:.2f}s warm "
        f"({numbers['speedup_cold']:.1f}x cold, "
        f"{numbers['speedup_warm']:.1f}x warm)"
    )
    print(f"wrote {args.out}")

    if args.min_speedup is not None:
        speedup = numbers["speedup_cold"]
        if speedup < args.min_speedup:
            print(
                f"FAIL: epoch-solve speedup {speedup:.1f}x is below the "
                f"required {args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
