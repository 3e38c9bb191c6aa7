"""Tests for repro.fleet: seed-sharded soak determinism + supervision.

The load-bearing property is byte-identical merges: the fleet report
for a seed corpus must not depend on worker count, scheduling, or
completion order.  Supervision (timeout, retry, quarantine) must
preserve the failing seed as a replayable artifact instead of failing
the whole run.
"""

import json
import multiprocessing
import os

import pytest

from repro.chaos import ChaosConfig
from repro.control.retry import RetryPolicy
from repro.fleet import (
    DEFAULT_FLEET_RETRY,
    FleetConfig,
    FleetReport,
    SoakFleet,
    load_quarantine,
    merge_results,
    replay_quarantine,
    run_seed_task,
)
from repro.fleet.worker import CRASH_EXIT_CODE, worker_entry
from repro.obs.registry import MetricsRegistry
from tests.conftest import fleet_workers

BASE = ChaosConfig(seed=0, n_events=6, n_vips=6)
SEEDS = list(range(5))

#: Quarantine fast: one attempt, no retry.
NO_RETRY = RetryPolicy(max_attempts=1, base_backoff_s=0.0)


def run_fleet(workers=1, seeds=SEEDS, config=BASE, **fleet_kw):
    fleet = SoakFleet(
        config, seeds,
        fleet=FleetConfig(workers=workers, **fleet_kw),
        registry=MetricsRegistry(),
    )
    return fleet.run(), fleet


@pytest.fixture(scope="module")
def serial_report():
    report, _ = run_fleet(workers=1)
    return report


class TestDeterministicMerge:
    def test_worker_count_invariance(self, serial_report):
        for workers in (2, 4):
            report, _ = run_fleet(workers=workers)
            assert report.to_json() == serial_report.to_json()
            assert report.sha256() == serial_report.sha256()

    def test_seed_order_invariance(self, serial_report):
        shuffled = [3, 0, 4, 1, 2]
        report, _ = run_fleet(workers=2, seeds=shuffled)
        assert report.to_json() == serial_report.to_json()

    def test_results_sorted_by_seed(self, serial_report):
        assert [r["seed"] for r in serial_report.results] == SEEDS
        assert serial_report.seeds == SEEDS

    def test_totals_fold_per_seed_summaries(self, serial_report):
        assert serial_report.totals["seeds_total"] == len(SEEDS)
        assert serial_report.totals["seeds_completed"] == len(SEEDS)
        assert serial_report.totals["steps_run"] == sum(
            r["steps_run"] for r in serial_report.results
        )
        by_hand: dict = {}
        for result in serial_report.results:
            for kind, n in result["event_counts"].items():
                by_hand[kind] = by_hand.get(kind, 0) + n
        assert serial_report.totals["event_counts"] == by_hand

    def test_no_wall_clock_in_report(self, serial_report):
        text = serial_report.to_json()
        for needle in ("elapsed", "wall", "duration", "perf_counter"):
            assert needle not in text

    def test_roundtrip_save_load(self, serial_report, tmp_path):
        path = str(tmp_path / "fleet.json")
        serial_report.save(path)
        loaded = FleetReport.load(path)
        assert loaded.to_json() == serial_report.to_json()
        assert loaded.sha256() == serial_report.sha256()

    def test_config_seed_excluded_from_identity(self, serial_report):
        # The corpus is the seeds list; the base config's own seed must
        # not leak into the merged identity.
        other_base = ChaosConfig(seed=42, n_events=6, n_vips=6)
        report, _ = run_fleet(workers=1, config=other_base)
        assert report.to_json() == serial_report.to_json()


class TestQuarantine:
    def test_crashed_seed_quarantined_not_fatal(self, tmp_path):
        qdir = str(tmp_path / "q")
        report, fleet = run_fleet(
            workers=2, crash_seeds=(2,), quarantine_dir=qdir,
        )
        assert report.ok  # the fleet run itself does not fail
        assert [q["seed"] for q in report.quarantined] == [2]
        q = report.quarantined[0]
        assert q["reason"] == "worker-crash"
        assert q["exitcode"] == CRASH_EXIT_CODE
        assert q["attempts"] == DEFAULT_FLEET_RETRY.max_attempts
        assert fleet.metrics.seeds_quarantined.value() == 1
        assert fleet.metrics.seeds_retried.value() == \
            DEFAULT_FLEET_RETRY.max_attempts - 1
        assert fleet.metrics.worker_failures.value("worker-crash") == \
            DEFAULT_FLEET_RETRY.max_attempts

    def test_artifact_is_replayable(self, tmp_path):
        qdir = str(tmp_path / "q")
        report, _ = run_fleet(
            workers=2, crash_seeds=(1,), quarantine_dir=qdir,
            retry=NO_RETRY,
        )
        path = report.quarantined[0]["artifact_path"]
        artifact = load_quarantine(path)
        assert artifact["config"]["seed"] == 1
        replayed = replay_quarantine(artifact)
        assert replayed.config.seed == 1
        # The replay is the seed's real run: byte-identical summary to
        # the serial path's.
        from repro.fleet import summarize_report

        serial = run_seed_task(
            {"config": artifact["config"]}
        )
        assert summarize_report(replayed) == serial

    def test_survivors_match_serial_subset(self, tmp_path):
        report, _ = run_fleet(
            workers=2, crash_seeds=(2,),
            quarantine_dir=str(tmp_path / "q"), retry=NO_RETRY,
        )
        sub, _ = run_fleet(workers=1, seeds=[0, 1, 3, 4])
        assert report.results == sub.results

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="monkeypatching the worker needs fork inheritance",
    )
    def test_hang_hits_timeout_then_quarantine(self, tmp_path, monkeypatch):
        import time

        import repro.fleet.worker as worker_mod

        real_run = worker_mod.run_seed_task

        def hang_seed_one(payload):
            if payload["config"]["seed"] == 1:
                time.sleep(60.0)
            return real_run(payload)

        monkeypatch.setattr(worker_mod, "run_seed_task", hang_seed_one)
        report, fleet = run_fleet(
            workers=2, seeds=[0, 1], timeout_s=0.5, retry=NO_RETRY,
            quarantine_dir=str(tmp_path / "q"),
        )
        assert [q["seed"] for q in report.quarantined] == [1]
        assert report.quarantined[0]["reason"] == "timeout"
        assert fleet.metrics.worker_failures.value("timeout") == 1
        assert any(result["seed"] == 0 for result in report.results)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="monkeypatching the worker needs fork inheritance",
    )
    def test_large_summary_does_not_deadlock(self, monkeypatch):
        """A summary bigger than the pipe buffer blocks the child in
        send() until the supervisor reads; waiting on process exit
        instead of the pipe deadlocks forever (regression)."""
        import signal

        import repro.fleet.worker as worker_mod

        blob = "x" * (1 << 20)  # ~16x a 64 KiB pipe buffer

        def fake_run(payload):
            return {
                "seed": payload["config"]["seed"], "ok": True,
                "steps_run": 0, "event_counts": {}, "violations": [],
                "first_violation_step": None, "crashes": 0, "stats": {},
                "channel": {}, "metric_deltas": [], "health": None,
                "slo": None, "incidents": [], "artifact": None,
                "blob": blob,
            }

        monkeypatch.setattr(worker_mod, "run_seed_task", fake_run)

        def alarm(signum, frame):
            raise TimeoutError("fleet deadlocked on an oversized summary")

        previous = signal.signal(signal.SIGALRM, alarm)
        signal.alarm(60)
        try:
            report, _ = run_fleet(workers=2, seeds=[0, 1, 2])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [len(r["blob"]) for r in report.results] == [len(blob)] * 3

    def test_worker_exception_reported_as_error(self):
        parent, child = multiprocessing.Pipe(duplex=False)
        worker_entry({"config": {"not": "a config"}}, child)
        kind, detail = parent.recv()
        assert kind == "error"
        assert "Traceback" in detail

    def test_bad_quarantine_file_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"nope": 1}, handle)
        with pytest.raises(ValueError):
            load_quarantine(path)


class TestMerge:
    def test_missing_seed_rejected(self):
        summary = run_seed_task({"config": BASE.to_dict()})
        with pytest.raises(ValueError, match="neither completed"):
            merge_results(BASE, [0, 1], {0: summary}, {})

    def test_quarantined_seed_accounted(self):
        summary = run_seed_task({"config": BASE.to_dict()})
        record = {"seed": 1, "reason": "worker-crash", "attempts": 2,
                  "detail": "", "exitcode": 86}
        report = merge_results(BASE, [0, 1], {0: summary}, {1: record})
        assert report.totals["seeds_quarantined"] == 1
        assert report.totals["seeds_completed"] == 1
        assert report.quarantined == [record]


class TestSloCorpusMerge:
    """Seed 7 of this corpus fires no alert, so its scorecard carries
    ``median_time_to_fire_s: None``; seeds 6 and 10 fire some."""

    SLO_BASE = ChaosConfig(
        seed=0, n_events=12, n_vips=8, no_oracle=True, slo=True,
        background_loss=0.02,
    )

    @pytest.mark.parametrize("seeds", [[7, 10], [6, 7]])
    def test_seed_without_alerts_merges_in_either_order(self, seeds):
        serial, _ = run_fleet(workers=1, seeds=seeds, config=self.SLO_BASE)
        cards = {r["seed"]: r["slo"]["scorecard"] for r in serial.results}
        quiet = cards.pop(7)
        (loud,) = cards.values()
        assert quiet["median_time_to_fire_s"] is None
        assert loud["median_time_to_fire_s"] is not None

        # Counts add; order statistics are re-derived from the pooled
        # fire times, never summed.
        merged = serial.totals["slo_scorecard"]
        pooled = sorted(quiet["time_to_fire_s"] + loud["time_to_fire_s"])
        assert merged["incidents"] == quiet["incidents"] + loud["incidents"]
        assert merged["time_to_fire_s"] == pooled
        assert merged["median_time_to_fire_s"] == pooled[len(pooled) // 2]
        assert merged["max_time_to_fire_s"] == pooled[-1]

        sharded, _ = run_fleet(workers=2, seeds=seeds, config=self.SLO_BASE)
        assert sharded.to_json() == serial.to_json()

    def test_all_quiet_corpus_keeps_none(self):
        summary = run_seed_task({"config": self.SLO_BASE.to_dict() | {"seed": 7}})
        report = merge_results(self.SLO_BASE, [7], {7: summary}, {})
        merged = report.totals["slo_scorecard"]
        assert merged["time_to_fire_s"] == []
        assert merged["median_time_to_fire_s"] is None
        assert merged["max_time_to_fire_s"] is None


class TestConfigValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            FleetConfig(workers=0)

    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            FleetConfig(timeout_s=0.0)

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            SoakFleet(BASE, [])

    def test_workers_from_env(self, monkeypatch):
        """The sharded corpora (``test_slo_chaos``, ``test_chaos_channel``)
        take their worker count from CI's ``REPRO_FLEET_WORKERS``."""
        monkeypatch.setenv("REPRO_FLEET_WORKERS", "3")
        assert fleet_workers() == 3
        monkeypatch.delenv("REPRO_FLEET_WORKERS")
        assert 1 <= fleet_workers() <= 8
