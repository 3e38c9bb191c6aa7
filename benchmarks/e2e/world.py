"""The shared world ``W80`` and the pieces every workload needs:
work sizes, the operation ledger (failure accounting) and block medians."""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import AssignmentConfig, DuetController
from repro.durability import JournalError, WriteAheadJournal
from repro.net import FatTreeParams, Topology
from repro.workload import DipCountModel, generate_population

from .spans import clock

BATCH = 2048


class CheckFailed(Exception):
    """A workload's output check failed: the run reports no metrics."""


class Poisoned(CheckFailed):
    """The controller is broken (``JournalError``, or more than 1% of
    operations failed): timings from here on would be meaningless."""


@dataclass(frozen=True)
class Scale:
    """World size and work per second of ``--seconds``.  The per-second
    rates were calibrated on the seed commit so that the measured region
    of every workload lasts about ``--seconds``; counts, not durations,
    are fixed, so exact counters repeat run to run."""

    fat_tree: FatTreeParams
    n_vips: int
    traffic_bps: float
    epochs_per_s: float
    storm_ops_per_s: float
    steady_batches_per_s: float
    churn_batches_per_s: float
    soak_seeds_per_s: float
    crash_every: int
    invariants_every: int
    churn_flows: int
    churn_failed_switches: int
    soak_events: int

    def count(self, rate: float, seconds: float, floor: int, step: int = 1) -> int:
        return max(floor, int(round(rate * seconds / step)) * step)


FULL = Scale(
    fat_tree=FatTreeParams(
        n_containers=6, tors_per_container=8, aggs_per_container=4,
        n_cores=8, servers_per_tor=24,
    ),
    n_vips=800, traffic_bps=200e9,
    epochs_per_s=1.2, storm_ops_per_s=420.0, steady_batches_per_s=4000.0,
    churn_batches_per_s=64.0, soak_seeds_per_s=2.0,
    crash_every=500, invariants_every=1000,
    churn_flows=200_000, churn_failed_switches=6, soak_events=30,
)

#: CI-sized (run with ``--seconds 1``): same code paths, a world 20
#: times smaller; the rates are then the counts.
SMOKE = Scale(
    fat_tree=FatTreeParams(
        n_containers=2, tors_per_container=3, aggs_per_container=2,
        n_cores=2, servers_per_tor=8,
    ),
    n_vips=40, traffic_bps=10e9,
    epochs_per_s=4.0, storm_ops_per_s=200.0, steady_batches_per_s=50.0,
    churn_batches_per_s=48.0, soak_seeds_per_s=3.0,
    crash_every=100, invariants_every=100,
    churn_flows=16_000, churn_failed_switches=2, soak_events=10,
)

SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass
class World:
    controller: DuetController
    topology_build_s: float
    population_gen_s: float


def build_world(seed: int, scale: Scale) -> World:
    """W80: topology, population, journaled controller, first assignment."""
    t0 = clock()
    topology = Topology(scale.fat_tree)
    t1 = clock()
    population = generate_population(
        topology, scale.n_vips, scale.traffic_bps,
        # The DIP cap keeps every VIP inside the 512-entry tunnelling
        # table; without it add_dip poisons the journal (README, hazard 1).
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=seed,
    )
    t2 = clock()
    controller = DuetController(
        topology, population, n_smuxes=4,
        config=AssignmentConfig(stop_on_first_failure=False),
        hash_seed=seed,
    )
    controller.attach_journal(WriteAheadJournal(), snapshot_interval=64)
    controller.run_initial_assignment()
    return World(controller, t1 - t0, t2 - t1)


def world_layer(world: World) -> Dict[str, float]:
    """Per-layer values every W80 workload can read off the world: the
    set-up timings and the exact channel and journal counters."""
    channel = world.controller.channel.stats
    journal = world.controller.journal
    return {
        "workload.gen_s": world.population_gen_s,
        "net.topology_build_s": world.topology_build_s,
        "control.channel.sends": channel.sends,
        "control.channel.losses": channel.losses,
        "control.channel.delayed_dups": channel.delayed_dups,
        "control.channel.dup_drops": channel.dup_drops,
        "control.channel.fence_rejects": channel.fence_rejects,
        "durability.journal.appends": journal.ops_appended,
        "durability.journal.snapshots": journal.snapshots_written,
    }


# -- failure accounting ----------------------------------------------------


@dataclass
class Ledger:
    """Every operation of a measured region goes through :meth:`call`:
    it is timed, and an exception counts as one failed operation instead
    of ending the run — unless the controller is poisoned."""

    planned: int
    attempted: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        self.attempted += 1
        started = clock()
        try:
            return fn(*args)
        except JournalError as error:
            self.failed += 1
            raise Poisoned(f"journal poisoned: {error}") from error
        except Exception as error:  # the boundary that counts failures
            self.failed += 1
            self.errors.append(f"{type(error).__name__}: {error}")
            if self.failed > 0.01 * self.planned:
                raise Poisoned(
                    f"{self.failed} of {self.planned} operations failed; "
                    f"last: {self.errors[-1]}"
                ) from error
            return None
        finally:
            self.latencies.append(clock() - started)

    def add(self, attempted: int, failed: int) -> None:
        """Account operations counted in bulk (packets of a batch)."""
        self.attempted += attempted
        self.failed += failed
        if self.failed > 0.01 * self.planned:
            raise Poisoned(f"{self.failed} of {self.planned} dropped")


# -- numbers ---------------------------------------------------------------


def digest(value: Any) -> str:
    """Short stable hash of a JSON-able value (fingerprints in counts)."""
    blob = json.dumps(value, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def block_medians(n: int, blocks: int,
                  stat: Callable[[slice], float]) -> float:
    """Median over ``blocks`` contiguous blocks of ``n`` samples of
    ``stat(block)``.  Even in CPU time this box slows down by 10-30% for
    seconds at a time; a statistic taken per block and then as a median
    ignores such a burst as long as it covers fewer than half the blocks."""
    blocks = max(1, min(blocks, n))
    edges = [round(i * n / blocks) for i in range(blocks + 1)]
    return statistics.median(
        stat(slice(lo, hi)) for lo, hi in zip(edges, edges[1:])
    )


@dataclass
class Result:
    """What one measured region hands back to the harness."""

    ledger: Ledger
    tail_q: float                    # percentile behind ``op_ms_tail``
    op_latencies: List[float]        # seconds of each unit operation
    op_work: List[float]             # units behind ``throughput``, per op
    region_s: float                    # whole measured loop, for overheads
    #: Seconds charged to an operation on top of its own latency (the
    #: pool update that precedes a fwd_churn batch).
    op_overhead: Optional[List[float]] = None
    counts: Dict[str, Any] = field(default_factory=dict)   # exact, repeat
    layer: Dict[str, float] = field(default_factory=dict)  # per-layer values
    probes: float = 0.0              # health probes sent while measuring
    extra: Optional[Any] = None
