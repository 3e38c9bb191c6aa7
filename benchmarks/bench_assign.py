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

* ``cold`` — a fresh ``GreedyAssigner`` per solve, paying the leg-matrix
  build: what the controller pays for the first solve after its failure
  set changed;
* ``warm`` — the solve inside ``DuetController.rebalance`` on
  consecutive epochs of drifted traffic, i.e. the path production takes:
  the controller keeps one solver context per network state, so legs
  and VIP structures are served from cache.  The number is the solver's
  own ``AssignStats`` latency for that call; the whole call (solve plus
  executing the plan) is reported beside it as ``rebalance_warm_s``.

The speedup gate applies to the *cold* number: it is the conservative
one and the one a chaos-remediation re-plan sees.  ``warm`` must not
exceed ``cold`` — a context that does not pay for itself fails the run.

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
from typing import Dict

import numpy as np

import repro.core.fastassign as fastassign
from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.controller import DuetController
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import generate_population

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
    return topology, router, config, population


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
    topology, router, config, population = build_world(n_vips, seed)
    demands = population.demands()

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

    # Warm epochs: consecutive sticky rebalances of one controller, each
    # on differently drifted traffic.  The initial assignment builds the
    # solver context; every rebalance after it finds it by key.
    controller = DuetController(topology, population, config=config)
    controller.run_initial_assignment()
    stats = fastassign.stats_for("fast")
    fast_warm_s = rebalance_warm_s = float("inf")
    for epoch in range(repeats):
        factor = 1.1 - 0.1 * (epoch % 3)
        drifted = [d.scaled(factor) for d in demands]
        solved_before = stats.solve_seconds_total
        start = time.perf_counter()
        controller.rebalance(drifted)
        rebalance_warm_s = min(
            rebalance_warm_s, time.perf_counter() - start,
        )
        fast_warm_s = min(
            fast_warm_s, stats.solve_seconds_total - solved_before,
        )

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
        "rebalance_warm_s": rebalance_warm_s,
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
    if numbers["fast_warm_s"] > numbers["fast_cold_s"]:
        print(
            f"FAIL: a warm epoch ({numbers['fast_warm_s']:.2f}s through "
            f"DuetController.rebalance) costs more than a cold solve "
            f"({numbers['fast_cold_s']:.2f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
