"""Tests for repro.chaos: the seeded chaos engine, soak runs, scripted
fault degradation, sabotage artifacts, and the `repro chaos` CLI."""

import json

import pytest

from repro.chaos import (
    ChaosArtifact,
    ChaosConfig,
    ChaosEngine,
    ChaosEvent,
    EventKind,
    replay_artifact,
)
from repro.cli import main


@pytest.fixture(scope="module")
def seed0_report():
    """One 200-event soak shared by the smoke assertions."""
    return ChaosEngine(ChaosConfig(seed=0, n_events=200)).run()


class TestSoak:
    def test_seed0_runs_clean(self, seed0_report):
        assert seed0_report.ok
        assert seed0_report.steps_run == 200
        assert seed0_report.first_violation_step is None
        assert seed0_report.artifact is None
        assert seed0_report.violations == []

    def test_event_mix_exercises_the_lifecycle(self, seed0_report):
        counts = seed0_report.event_counts
        assert sum(counts.values()) == 200
        for kind in (
            "fail_switch", "recover_switch", "rebalance",
            "dip_down", "remove_dip",
        ):
            assert counts.get(kind, 0) > 0, f"no {kind} events in 200 steps"

    def test_every_step_traced(self, seed0_report):
        assert len(seed0_report.traces) == 200
        assert [t.step for t in seed0_report.traces] == list(range(200))
        assert all(t.violations == [] for t in seed0_report.traces)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_other_seeds_run_clean(self, seed):
        report = ChaosEngine(ChaosConfig(seed=seed, n_events=120)).run()
        assert report.ok, [str(v) for v in report.violations]

    def test_deterministic_in_seed(self):
        config = ChaosConfig(seed=5, n_events=40)
        a = ChaosEngine(config).run()
        b = ChaosEngine(config).run()
        assert [t.event.to_dict() for t in a.traces] == [
            t.event.to_dict() for t in b.traces
        ]


class TestTransientFaults:
    def test_faults_absorbed_by_retry(self):
        """Transient programming faults below the retry budget never
        degrade a VIP or break an invariant (S6: the controller retries
        with backoff)."""
        engine = ChaosEngine(ChaosConfig(
            seed=1, n_events=120, fail_prob=0.15, fault_max_consecutive=2,
        ))
        report = engine.run()
        assert report.ok, [str(v) for v in report.violations]
        stats = engine.controller.programming_stats
        assert stats.transient_faults > 0
        assert stats.degraded == 0
        assert engine.controller.degraded_vips == set()


class TestScriptedDegradation:
    def test_soak_stays_clean_with_broken_switch(self):
        """A permanently faulty switch forces its VIPs to SMux-only
        (graceful degradation, S3.3.2) — degraded is not down: the soak
        still holds every invariant."""
        engine = ChaosEngine(ChaosConfig(
            seed=0, n_events=60, broken_switches=(5,),
        ))
        controller = engine.controller
        degraded = set(controller.degraded_vips)
        assert degraded, "broken switch should degrade its VIPs"
        assert controller.programming_stats.degraded > 0
        for addr in degraded:
            assert controller.vip_location(addr) is None
        report = engine.run()
        assert report.ok, [str(v) for v in report.violations]

    def test_degraded_vips_drain_once_fault_clears(self):
        """Once the fault clears, the next sticky rebalance re-homes the
        degraded VIPs."""
        engine = ChaosEngine(ChaosConfig(
            seed=0, n_events=0, broken_switches=(5,),
        ))
        controller = engine.controller
        assert controller.degraded_vips
        controller.set_fault_model(None)
        controller.rebalance()
        assert controller.degraded_vips == set()


class TestSabotage:
    @pytest.fixture(scope="class")
    def sabotage_report(self):
        return ChaosEngine(ChaosConfig(
            seed=3, n_events=60, sabotage_step=40,
        )).run()

    def test_sabotage_is_caught_at_its_step(self, sabotage_report):
        assert not sabotage_report.ok
        assert sabotage_report.first_violation_step == 40
        invariants = {v.invariant for v in sabotage_report.violations}
        assert "intent-matches-dataplane" in invariants

    def test_artifact_replays_to_same_violation(self, sabotage_report):
        artifact = sabotage_report.artifact
        assert artifact is not None
        assert artifact.violation_step == 40
        assert len(artifact.events) == 41  # prefix includes the sabotage
        replayed = replay_artifact(artifact)
        assert not replayed.ok
        assert replayed.first_violation_step == 40
        assert [str(v) for v in replayed.violations] == artifact.violations

    def test_artifact_round_trips_through_disk(
        self, sabotage_report, tmp_path
    ):
        path = str(tmp_path / "artifact.json")
        sabotage_report.artifact.save(path)
        loaded = ChaosArtifact.load(path)
        assert loaded.config == sabotage_report.artifact.config
        assert loaded.events == sabotage_report.artifact.events
        replayed = replay_artifact(path)
        assert replayed.first_violation_step == 40


class TestSerialization:
    def test_config_round_trip(self):
        config = ChaosConfig(
            seed=9, n_events=77, broken_switches=(2, 5), fail_prob=0.1,
            sabotage_step=12,
        )
        assert ChaosConfig.from_dict(config.to_dict()) == config
        # to_dict is JSON-clean (tuples become lists).
        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()

    def test_event_round_trip(self):
        event = ChaosEvent(
            kind=EventKind.ADD_DIP,
            params={"vip": 0x0A000001, "dip": 0x64000001, "server": 3},
        )
        assert ChaosEvent.from_dict(event.to_dict()) == event
        assert json.loads(json.dumps(event.to_dict())) == event.to_dict()


class TestChaosCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["chaos", "--seed", "0", "--events", "60"]) == 0
        out = capsys.readouterr().out
        assert "invariants: all held" in out

    def test_sabotage_run_emits_artifact_and_replays(self, tmp_path, capsys):
        artifact = str(tmp_path / "repro.json")
        code = main([
            "chaos", "--seed", "3", "--events", "60",
            "--sabotage-at", "40", "--artifact", artifact,
        ])
        assert code == 1
        assert "violations" in capsys.readouterr().out
        assert main(["chaos", "--replay", artifact]) == 1
        assert "artifact reproduces" in capsys.readouterr().out
