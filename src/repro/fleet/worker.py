"""The per-seed unit of fleet work, runnable in-process or in a worker.

A worker runs the existing :class:`~repro.chaos.engine.ChaosEngine`
pipeline for one seed and returns a JSON-safe, wall-clock-free summary
(:func:`run_seed_task`).  The same function runs in the serial path and
in forked workers, which is what makes the merged fleet report
byte-identical across worker counts.

The fault-injection hook (``crash`` in the task payload) lets tests and
the CI quarantine smoke kill a worker deterministically; it is
supervisor-injected and never part of the chaos config itself.
"""

from __future__ import annotations

import json
import os
import traceback
from typing import Any, Dict, Optional

from repro.chaos.engine import ChaosConfig, ChaosEngine, ChaosReport

#: Exit code of a deliberately crashed worker (CI quarantine smoke).
CRASH_EXIT_CODE = 86


def _jsonify(value: Any) -> Any:
    """Canonical JSON-safe copy (tuples -> lists, keys stringified)."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def summarize_report(report: ChaosReport) -> Dict[str, Any]:
    """A JSON-safe, deterministic digest of one seed's chaos run.

    Deliberately excludes anything wall-clock shaped: the digest must be
    identical whether the seed ran serially, sharded, first, or last.
    """
    return {
        "seed": report.config.seed,
        "ok": report.ok,
        "steps_run": report.steps_run,
        "event_counts": _jsonify(report.event_counts),
        "violations": [str(v) for v in report.violations],
        "first_violation_step": report.first_violation_step,
        "crashes": report.crashes,
        "stats": _jsonify(report.stats),
        "channel": _jsonify(report.channel),
        "metric_deltas": [
            [name, delta] for name, delta in report.metric_deltas
        ],
        "health": None if report.health is None else _jsonify(report.health),
        "slo": None if report.slo is None else _jsonify(report.slo),
        "incidents": [_jsonify(inc.to_dict()) for inc in report.incidents],
        "artifact": (
            None if report.artifact is None
            else _jsonify({
                "config": report.artifact.config,
                "events": report.artifact.events,
                "violation_step": report.artifact.violation_step,
                "violations": report.artifact.violations,
                "metric_deltas": [
                    [n, d] for n, d in report.artifact.metric_deltas
                ],
            })
        ),
    }


def run_seed_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one task payload: apply the crash hook, run the engine,
    return the summary.  ``payload["config"]`` is a ChaosConfig dict
    with the seed already set."""
    if payload.get("crash"):
        # Simulated worker death: bypass every finally/atexit, exactly
        # like an OOM kill.  Only the supervisor path sets this.
        os._exit(CRASH_EXIT_CODE)
    config = ChaosConfig.from_dict(payload["config"])
    return summarize_report(ChaosEngine(config).run())


def worker_entry(payload: Dict[str, Any], conn) -> None:
    """Process entry point: run the task, ship ``("ok", summary)`` or
    ``("error", traceback)`` back over the pipe."""
    try:
        result = run_seed_task(payload)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


# -- quarantine artifacts ---------------------------------------------------


def quarantine_artifact(
    config: ChaosConfig,
    *,
    reason: str,
    attempts: int,
    detail: str,
    exitcode: Optional[int],
) -> Dict[str, Any]:
    """The replayable record of a poison seed: the full config (so
    ``replay_quarantine`` / ``repro chaos --replay`` rebuilds the exact
    run) plus what the supervisor observed."""
    return {
        "quarantine": {
            "seed": config.seed,
            "reason": reason,
            "attempts": attempts,
            "detail": detail,
            "exitcode": exitcode,
        },
        "config": config.to_dict(),
    }


def load_quarantine(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if "quarantine" not in data or "config" not in data:
        raise ValueError(f"{path} is not a fleet quarantine artifact")
    return data


def replay_quarantine(artifact) -> ChaosReport:
    """Re-run a quarantined seed in-process from its artifact (a path or
    a loaded dict): deterministic seeding means the replay reproduces
    whatever the dead worker was doing."""
    if isinstance(artifact, str):
        artifact = load_quarantine(artifact)
    config = ChaosConfig.from_dict(artifact["config"])
    return ChaosEngine(config).run()
