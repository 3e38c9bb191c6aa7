"""Deterministic merge of per-seed soak results into one fleet report.

The merge is a pure function of the (seed -> summary) mapping: results
are folded in ascending seed order, so counter totals, float sums, and
list concatenations come out bit-identical no matter how many workers
produced them or in what order they finished.  Nothing wall-clock
shaped is admitted — timing belongs to the ``duet_fleet_*`` metrics
family, not the report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.chaos.engine import ChaosConfig

from repro.fleet.worker import summarize_report  # noqa: F401  (re-export)


def _fold(into: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Accumulate ``part`` into ``into``: numbers sum, dicts recurse,
    lists concatenate, ``None`` ("this seed has no such number") is
    skipped, anything else keeps the first value seen.  Called in sorted
    seed order, so float accumulation order is fixed."""
    for key, value in part.items():
        if value is None or isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value
        elif isinstance(value, dict):
            child = into.setdefault(key, {})
            _fold(child, value)
        elif isinstance(value, list):
            into.setdefault(key, []).extend(value)
        elif key not in into:
            into[key] = value


#: Per-seed scorecard fields that are functions of the others, not
#: additive counts.
_SCORECARD_DERIVED = (
    "precision", "recall", "median_time_to_fire_s", "max_time_to_fire_s",
)


@dataclass
class FleetReport:
    """The merged outcome of one fleet run.

    ``results`` holds the per-seed summaries (sorted by seed) of every
    seed that completed; ``quarantined`` the supervisor records (sorted
    by seed) of seeds that exhausted their retry budget.  ``totals``
    aggregates counters/ledgers/scorecards across completed seeds.
    """

    config: Dict[str, Any]
    seeds: List[int]
    results: List[Dict[str, Any]]
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    totals: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no completed seed violated an invariant.  A
        quarantined seed does not fail the run — it is preserved for
        triage instead."""
        return all(r["ok"] for r in self.results)

    @property
    def violating_seeds(self) -> List[int]:
        return [r["seed"] for r in self.results if not r["ok"]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "seeds": self.seeds,
            "results": self.results,
            "quarantined": self.quarantined,
            "totals": self.totals,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def sha256(self) -> str:
        """Content hash of the canonical JSON — the CI determinism gate
        compares this across worker counts."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FleetReport":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(
            config=data["config"],
            seeds=list(data["seeds"]),
            results=list(data["results"]),
            quarantined=list(data.get("quarantined", [])),
            totals=dict(data.get("totals", {})),
        )


def merge_results(
    base_config: ChaosConfig,
    seeds: Sequence[int],
    results: Dict[int, Dict[str, Any]],
    quarantined: Dict[int, Dict[str, Any]],
) -> FleetReport:
    """Fold per-seed summaries into a :class:`FleetReport`.

    ``results`` / ``quarantined`` are keyed by seed; every seed in
    ``seeds`` must appear in exactly one of them.
    """
    ordered_seeds = sorted(seeds)
    missing = [
        s for s in ordered_seeds if s not in results and s not in quarantined
    ]
    if missing:
        raise ValueError(f"seeds neither completed nor quarantined: {missing}")

    ordered = [results[s] for s in ordered_seeds if s in results]
    totals: Dict[str, Any] = {
        "seeds_total": len(ordered_seeds),
        "seeds_completed": len(ordered),
        "seeds_quarantined": len(ordered_seeds) - len(ordered),
        "seeds_with_violations": [r["seed"] for r in ordered if not r["ok"]],
        "violations": sum(len(r["violations"]) for r in ordered),
        "steps_run": sum(r["steps_run"] for r in ordered),
        "crashes": sum(r["crashes"] for r in ordered),
        "event_counts": {},
        "stats": {},
        "channel": {},
    }
    for result in ordered:
        _fold(totals["event_counts"], result["event_counts"])
        _fold(totals["stats"], result["stats"])
        _fold(totals["channel"], result["channel"])

    health_parts = [r["health"] for r in ordered if r.get("health")]
    if health_parts:
        health: Dict[str, Any] = {}
        for part in health_parts:
            _fold(health, part)
        totals["health"] = health
    slo_parts = [
        r["slo"]["scorecard"] for r in ordered
        if r.get("slo") and "scorecard" in r["slo"]
    ]
    if slo_parts:
        scorecard: Dict[str, Any] = {}
        for part in slo_parts:
            _fold(scorecard, {
                key: value for key, value in part.items()
                if key not in _SCORECARD_DERIVED
            })
        # Ratios and order statistics do not add across seeds: re-derive
        # them from the summed counts and the pooled fire times.
        fire_times = scorecard["time_to_fire_s"] = sorted(
            scorecard.get("time_to_fire_s", [])
        )
        scorecard["median_time_to_fire_s"] = (
            fire_times[len(fire_times) // 2] if fire_times else None
        )
        scorecard["max_time_to_fire_s"] = (
            fire_times[-1] if fire_times else None
        )
        incidents = scorecard.get("incidents", 0)
        eligible = scorecard.get("eligible_faults", 0)
        scorecard["precision"] = (
            scorecard.get("true_positives", 0) / incidents
            if incidents else 1.0
        )
        scorecard["recall"] = (
            scorecard.get("matched_faults", 0) / eligible
            if eligible else 1.0
        )
        totals["slo_scorecard"] = scorecard

    config = base_config.to_dict()
    config.pop("seed", None)  # per-seed; the corpus is the seeds list
    return FleetReport(
        config=config,
        seeds=ordered_seeds,
        results=ordered,
        quarantined=[quarantined[s] for s in ordered_seeds if s in quarantined],
        totals=totals,
    )
