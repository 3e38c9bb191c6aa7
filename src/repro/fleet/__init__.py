"""Seed-sharded soak fleet: fan a seed corpus out over workers.

Duet scales its slow software path by adding SMuxes behind a
deterministic control plane; this package does the same for the repo's
own validation tiers.  A :class:`SoakFleet` shards a seed corpus over
``multiprocessing`` workers — each running the existing
:class:`~repro.chaos.engine.ChaosEngine` / health / SLO pipeline
unchanged — and deterministically merges the per-seed results into one
:class:`FleetReport` that is byte-identical to the serial loop's
aggregate regardless of worker count or completion order:

* results are keyed and merged in **sorted seed order**, never arrival
  order, so float summation order is fixed;
* per-seed summaries contain **no wall-clock** — timing lives only in
  the supervisor's ``duet_fleet_*`` metrics family;
* a worker that crashes, raises, or hangs is retried on the shared
  :class:`~repro.control.retry.RetryPolicy` budget and then
  **quarantined** with a replayable artifact instead of failing the
  fleet run.
"""

from repro.fleet.merge import FleetReport, merge_results, summarize_report
from repro.fleet.metrics import FleetMetrics
from repro.fleet.orchestrator import (
    DEFAULT_FLEET_RETRY,
    FleetConfig,
    SoakFleet,
    fleet_workers_from_env,
    pool_map_reports,
)
from repro.fleet.worker import (
    load_quarantine,
    replay_quarantine,
    run_seed_task,
)

__all__ = [
    "DEFAULT_FLEET_RETRY",
    "FleetConfig",
    "FleetMetrics",
    "FleetReport",
    "SoakFleet",
    "fleet_workers_from_env",
    "load_quarantine",
    "merge_results",
    "pool_map_reports",
    "replay_quarantine",
    "run_seed_task",
    "summarize_report",
]
