"""The ``duet_fleet_*`` metrics family (supervisor-side only).

Wall-clock is deliberately exiled here: the merged
:class:`~repro.fleet.merge.FleetReport` must be byte-identical across
worker counts, so per-shard timing, retries, and quarantines are
observed on the supervisor's registry instead of riding in the report.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

#: Shard wall-clock buckets: a tiny unit-test seed takes ~100 ms, a
#: 200-event soak seconds, a wedged worker hits the timeout ceiling.
SHARD_SECONDS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class FleetMetrics:
    """Typed handles for every fleet instrument on one registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.seeds_completed = registry.counter(
            "duet_fleet_seeds_completed_total",
            "Seeds whose workers returned a summary",
        )
        self.seeds_retried = registry.counter(
            "duet_fleet_seeds_retried_total",
            "Seed attempts re-dispatched after a worker failure",
        )
        self.seeds_quarantined = registry.counter(
            "duet_fleet_seeds_quarantined_total",
            "Seeds quarantined after exhausting the retry budget",
        )
        self.worker_failures = registry.counter(
            "duet_fleet_worker_failures_total",
            "Worker attempt failures, by reason",
            ("reason",),
        )
        self.shard_seconds = registry.histogram(
            "duet_fleet_shard_seconds",
            "Per-shard (one seed attempt) wall-clock",
            buckets=SHARD_SECONDS_BUCKETS,
        )
        self.backoff_seconds = registry.counter(
            "duet_fleet_retry_backoff_seconds_total",
            "Modelled retry backoff accounted (never slept)",
        )
        self.workers = registry.gauge(
            "duet_fleet_workers",
            "Worker processes the supervisor fans out over",
        )
