"""The seed-sharded soak supervisor.

:class:`SoakFleet` fans a seed corpus out over ``multiprocessing``
workers (fork where available), supervises them with a per-seed timeout
and a bounded retry budget on the shared
:class:`~repro.control.retry.RetryPolicy` shape, quarantines poison
seeds with a replayable artifact, and merges the survivors through
:func:`~repro.fleet.merge.merge_results`.

Determinism contract: the merged report depends only on the chaos
configs, never on worker count, scheduling, or completion order.  The
serial path (``workers=1``) calls the exact same per-seed function
in-process, so ``SoakFleet(..., workers=1)`` is the reference the
parallel runs must match byte-for-byte.  Retry backoff is *accounted*
(``duet_fleet_retry_backoff_seconds_total``), never slept, matching the
modelled-time convention of the rest of the repo.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.chaos.engine import ChaosConfig
from repro.control.retry import RetryPolicy
from repro.obs.registry import MetricsRegistry

from repro.fleet.merge import FleetReport, merge_results
from repro.fleet.metrics import FleetMetrics
from repro.fleet.worker import (
    quarantine_artifact,
    run_seed_task,
    worker_entry,
)

#: One retry after the first failure, no modelled pause between tries:
#: a crashed soak worker is rarely transient, so the budget is small and
#: quarantine (with the artifact) is the real remediation.
DEFAULT_FLEET_RETRY = RetryPolicy(max_attempts=2, base_backoff_s=0.0)


def _mp_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class FleetConfig:
    """Supervision knobs (never part of the merged report's identity).

    ``crash_seeds`` (``repro chaos --inject-worker-crash``) is
    deterministic worker-fault injection for tests and the CI quarantine
    smoke: the listed seeds' workers die with
    :data:`~repro.fleet.worker.CRASH_EXIT_CODE` on every attempt,
    exercising the retry -> quarantine path without touching the chaos
    config.
    """

    workers: int = 1
    timeout_s: Optional[float] = None
    retry: RetryPolicy = DEFAULT_FLEET_RETRY
    quarantine_dir: Optional[str] = None
    crash_seeds: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout must be positive")


class _Shard:
    """One in-flight worker attempt."""

    __slots__ = ("seed", "proc", "conn", "started")

    def __init__(self, seed, proc, conn, started) -> None:
        self.seed = seed
        self.proc = proc
        self.conn = conn
        self.started = started


class SoakFleet:
    """Run ``base_config`` across ``seeds``, sharded over workers."""

    def __init__(
        self,
        base_config: ChaosConfig,
        seeds: Sequence[int],
        *,
        fleet: FleetConfig = FleetConfig(),
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not seeds:
            raise ValueError("need at least one seed")
        self.base_config = base_config
        self.seeds = sorted(set(seeds))
        self.fleet = fleet
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = FleetMetrics(self.registry)
        self.metrics.workers.set(fleet.workers)

    # -- task payloads ------------------------------------------------------

    def _config_for(self, seed: int) -> ChaosConfig:
        data = self.base_config.to_dict()
        data["seed"] = seed
        return ChaosConfig.from_dict(data)

    def _payload(self, seed: int) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"config": self._config_for(seed).to_dict()}
        if seed in self.fleet.crash_seeds:
            payload["crash"] = True
        return payload

    # -- run ----------------------------------------------------------------

    def run(self) -> FleetReport:
        results: Dict[int, Dict[str, Any]] = {}
        quarantined: Dict[int, Dict[str, Any]] = {}
        if self.fleet.workers > 1 or self.fleet.crash_seeds:
            self._run_sharded(results, quarantined)
        else:
            for seed in self.seeds:
                started = time.perf_counter()
                results[seed] = run_seed_task(self._payload(seed))
                self.metrics.shard_seconds.observe(
                    time.perf_counter() - started
                )
                self.metrics.seeds_completed.inc()
        return merge_results(self.base_config, self.seeds, results, quarantined)

    def _run_sharded(
        self,
        results: Dict[int, Dict[str, Any]],
        quarantined: Dict[int, Dict[str, Any]],
    ) -> None:
        ctx = _mp_context()
        pending = deque(self.seeds)
        schedules = {seed: self.fleet.retry.start() for seed in self.seeds}
        attempts = {seed: 0 for seed in self.seeds}
        running: Dict[Any, _Shard] = {}

        def launch(seed: int) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=worker_entry,
                args=(self._payload(seed), child_conn),
                daemon=True,
            )
            attempts[seed] += 1
            proc.start()
            child_conn.close()
            # Keyed (and waited on) by the pipe, NOT the process
            # sentinel: a summary larger than the pipe buffer blocks the
            # child in send() until we read it, so the child only exits
            # after the recv — waiting for exit first would deadlock.
            # The pipe also signals EOF when the child dies abruptly.
            running[parent_conn] = _Shard(
                seed, proc, parent_conn, time.perf_counter()
            )

        def fail(shard: _Shard, reason: str, detail: str) -> None:
            self.metrics.worker_failures.labels(reason).inc()
            backoff = schedules[shard.seed].next_backoff()
            if backoff is not None:
                self.metrics.backoff_seconds.inc(backoff)
                self.metrics.seeds_retried.inc()
                pending.append(shard.seed)
                return
            self.metrics.seeds_quarantined.inc()
            artifact = quarantine_artifact(
                self._config_for(shard.seed),
                reason=reason,
                attempts=attempts[shard.seed],
                detail=detail,
                exitcode=shard.proc.exitcode,
            )
            record = dict(artifact["quarantine"])
            if self.fleet.quarantine_dir is not None:
                import json

                os.makedirs(self.fleet.quarantine_dir, exist_ok=True)
                path = os.path.join(
                    self.fleet.quarantine_dir, f"seed{shard.seed}.json",
                )
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(artifact, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                record["artifact_path"] = path
            quarantined[shard.seed] = record

        while pending or running:
            while pending and len(running) < self.fleet.workers:
                launch(pending.popleft())
            wait_for = None
            if self.fleet.timeout_s is not None and running:
                next_deadline = min(
                    shard.started + self.fleet.timeout_s
                    for shard in running.values()
                )
                wait_for = max(0.0, next_deadline - time.perf_counter())
            ready = connection.wait(list(running), timeout=wait_for)
            now = time.perf_counter()
            for conn in ready:
                shard = running.pop(conn)
                outcome = None
                try:
                    outcome = conn.recv()
                except (EOFError, OSError):
                    outcome = None  # abrupt death: EOF, no result
                shard.proc.join()
                shard.conn.close()
                self.metrics.shard_seconds.observe(now - shard.started)
                if outcome is not None and outcome[0] == "ok":
                    results[shard.seed] = outcome[1]
                    self.metrics.seeds_completed.inc()
                elif outcome is not None:
                    fail(shard, "worker-error", outcome[1])
                else:
                    fail(
                        shard, "worker-crash",
                        f"worker died with exit code {shard.proc.exitcode} "
                        "before reporting a result",
                    )
            if self.fleet.timeout_s is not None:
                for conn, shard in list(running.items()):
                    if now - shard.started < self.fleet.timeout_s:
                        continue
                    running.pop(conn)
                    shard.proc.terminate()
                    shard.proc.join()
                    shard.conn.close()
                    self.metrics.shard_seconds.observe(now - shard.started)
                    fail(
                        shard, "timeout",
                        f"no result within {self.fleet.timeout_s:g}s; "
                        "worker killed",
                    )
