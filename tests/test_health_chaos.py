"""No-oracle chaos integration: the detect -> failover -> recover loop.

The engine injects silent faults into the fault plane; the only path
back to the controller is the probe-driven health monitor.  These tests
run the full loop (including under controller crashes), pin replay
determinism, and exercise the engine's mode guards.
"""

import pytest

from repro.chaos import ChaosConfig, ChaosEngine
from repro.chaos.engine import build_controller
from repro.chaos.events import ChaosEvent, EventKind
from repro.cli import main
from repro.health import FaultPlane, HealthConfig, HealthMonitor
from repro.health.faults import switch_key
from repro.obs import MetricsRegistry


def no_oracle_config(**overrides):
    defaults = dict(
        seed=0, n_events=60, no_oracle=True, monitor_rounds_per_step=3,
    )
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def filler_event():
    """A benign fault-plane event: clearing a gray failure that was
    never injected is a no-op, but still advances the monitor."""
    return ChaosEvent(EventKind.GRAY_RECOVER, {"switch": 0, "vip": None})


class TestNoOracleSoak:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_soak_holds_every_invariant(self, seed):
        report = ChaosEngine(no_oracle_config(
            seed=seed, background_loss=0.02,
        )).run()
        assert report.violations == []
        health = report.health
        assert health["faults_injected"] > 0
        assert health["faults_detected"] > 0
        assert health["false_positives"] == 0
        assert health["max_detection_latency_s"] <= health["detection_budget_s"]

    def test_soak_survives_controller_crashes(self):
        report = ChaosEngine(no_oracle_config(
            seed=1, crash_prob=0.08, background_loss=0.02,
        )).run()
        assert report.violations == []
        assert report.crashes > 0
        assert report.health["faults_detected"] > 0

    def test_generator_never_samples_oracle_lifecycle_ops(self):
        from repro.chaos.events import FORBIDDEN_IN_NO_ORACLE

        report = ChaosEngine(no_oracle_config(seed=0)).run()
        forbidden = {kind.value for kind in FORBIDDEN_IN_NO_ORACLE}
        assert not forbidden & set(report.event_counts)
        # And the silent faults it samples instead actually happened.
        assert any(
            kind in report.event_counts
            for kind in ("silent_fail_switch", "gray_failure",
                         "silent_fail_smux")
        )


def test_detection_at_exactly_the_budget_is_within_it():
    """Shrunk by the Hypothesis machine (tests/test_stateful.py): a gray
    fault detected exactly ``detection_budget_rounds`` probe rounds after
    injection was reported late, because a sim clock summed from 3 ms
    periods drifts past 0.09 s.  The scorecard judges in whole rounds."""
    def ev(kind, **params):
        return ChaosEvent(EventKind(kind), params)

    events = [
        ev("dip_down", dip=1677721612, server=7),
        ev("silent_fail_smux", smux=1),
        ev("silent_recover_smux", smux=1),
        ev("dip_down", dip=1677721613, server=32),
        ev("dip_down", dip=1677721614, server=26),
        ev("gray_failure", switch=4, vip=167772165, loss=0.4),
        ev("add_vip", vip_id=8, addr=167772168, traffic_bps=125e6, dips=[
            {"addr": 1677721626, "server": 26},
            {"addr": 1677721627, "server": 2},
            {"addr": 1677721628, "server": 16},
            {"addr": 1677721629, "server": 32},
        ]),
        ev("add_smux"),
        ev("silent_fail_smux", smux=0),
        ev("silent_fail_switch", switch=10),
        ev("remove_vip", vip=167772166),
        ev("dip_down", dip=1677721615, server=10),
        ev("dip_down", dip=1677721616, server=29),
        ev("dip_down", dip=1677721617, server=4),
        ev("add_smux"),
    ]
    report = ChaosEngine(no_oracle_config(
        seed=7, n_vips=8, background_loss=0.02,
    ), events=events).run()
    assert report.violations == []
    assert report.health["max_detection_latency_s"] == pytest.approx(
        HealthConfig().detection_budget_s
    )


def test_product_probers_never_forward_per_packet(monkeypatch):
    """Tier-1 cannot time the probe path, so it forbids the slow one:
    with the scalar muxes and host delivery disabled, a stacked seed —
    lossy channel, crashes, health loop, SLO alerting — still runs clean
    and summarizes exactly as it does with them (the health sweep, the
    invariant battery and the affinity tracker all forward in batches)."""
    from repro.dataplane import HMux, HostAgent, SMux
    from repro.fleet import summarize_report

    config = ChaosConfig(
        seed=2, n_events=20, channel_loss=0.3, channel_delay=0.2,
        crash_prob=0.1, no_oracle=True, slo=True,
    )
    reference = summarize_report(ChaosEngine(config).run())

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a product prober forwarded one packet")

    for cls, name in ((HMux, "process"), (SMux, "process"),
                      (HostAgent, "receive")):
        monkeypatch.setattr(cls, name, forbidden)
    report = ChaosEngine(config).run()
    assert report.ok and report.crashes > 0 and report.incidents
    assert summarize_report(report) == reference


class TestReplayDeterminism:
    def test_scripted_replay_is_bit_identical(self):
        config = no_oracle_config(seed=7, n_events=50, background_loss=0.02)
        first = ChaosEngine(config)
        report = first.run()
        events = [trace.event for trace in report.traces]

        second = ChaosEngine(config, events=events)
        replay = second.run()

        assert replay.violations == []
        assert second.monitor.detector.transitions == \
            first.monitor.detector.transitions
        assert second.fault_plane.to_dict() == first.fault_plane.to_dict()
        assert second.monitor.remediation.actions == \
            first.monitor.remediation.actions
        assert replay.health == report.health


class TestModeGuards:
    def test_oracle_lifecycle_event_forbidden_in_no_oracle(self):
        engine = ChaosEngine(no_oracle_config(), events=[
            ChaosEvent(EventKind.FAIL_SWITCH, {"switch": 0}),
        ])
        with pytest.raises(ValueError, match="forbidden in no-oracle"):
            engine.run()

    def test_fault_plane_event_requires_no_oracle(self):
        engine = ChaosEngine(ChaosConfig(seed=0), events=[
            ChaosEvent(EventKind.SILENT_FAIL_SWITCH, {"switch": 0}),
        ])
        with pytest.raises(ValueError, match="requires no_oracle"):
            engine.run()


class TestClosedLoop:
    """Direct monitor runs: one fault in, remediation out, no engine."""

    def build(self, seed=0, background_loss=0.0):
        controller = build_controller(ChaosConfig(seed=seed))
        plane = FaultPlane(seed=seed, background_loss=background_loss)
        monitor = HealthMonitor(
            controller, plane, HealthConfig(), registry=MetricsRegistry(),
            seed=seed,
        )
        return controller, plane, monitor

    def test_silent_switch_death_fails_over_and_recovers(self):
        controller, plane, monitor = self.build()
        victim = sorted(controller.switch_agents)[0]
        plane.silent_fail_switch(victim, t=0.0)

        monitor.run(8)
        assert victim in controller.failed_switches
        rec = plane.record_for(switch_key(victim))
        assert rec is not None

        plane.silent_recover_switch(victim, monitor.clock.now_s)
        monitor.run(20)
        assert victim not in controller.failed_switches
        ops = [a["op"] for a in monitor.remediation.actions if a["ok"]]
        assert ops[:2] == ["fail_switch", "recover_switch"]
        assert "rebalance" in ops

    def test_gray_vip_is_migrated_off_the_switch(self):
        controller, plane, monitor = self.build()
        vip, record = sorted(controller.records().items())[0]
        source = record.assigned_switch
        plane.inject_gray(source, vip, 1.0, t=0.0)

        monitor.run(15)
        assert controller.records()[vip].assigned_switch != source
        migrations = [
            a for a in monitor.remediation.actions
            if a["op"] == "migrate_vip" and a["ok"]
        ]
        assert migrations and migrations[0]["params"]["vip"] == vip
        # The fault never touched the controller's failed set: the
        # switch still serves its other VIPs.
        assert source not in controller.failed_switches

    def test_silent_smux_death_is_replaced(self):
        controller, plane, monitor = self.build()
        fleet_before = len(controller.smuxes)
        victim = controller.smuxes[0].smux_id
        plane.silent_fail_smux(victim, t=0.0)

        monitor.run(8)
        assert all(s.smux_id != victim for s in controller.smuxes)
        assert len(controller.smuxes) == fleet_before
        assert monitor.remediation.removed_smuxes == [victim]


class TestCrashDuringRemediation:
    """Satellite: a controller crash *inside* a detector-driven
    failover must not lose the failover — the WAL has the intent, and
    restore completes it."""

    def scripted_run(self, tmp_path=None):
        # Timeline at one monitor round per step, zero background loss:
        # round 1 miss, round 2 -> suspect, round 3 dwell, round 4 ->
        # quarantine verdict -> fail_switch.  Arming the crash at step 3
        # lands it on the first journaled crash point inside that
        # detector-initiated fail_switch.
        config = no_oracle_config(n_events=0, monitor_rounds_per_step=1)
        probe = ChaosEngine(config, events=[])
        victim = sorted(probe.controller.switch_agents)[0]
        events = [
            ChaosEvent(EventKind.SILENT_FAIL_SWITCH, {"switch": victim}),
            filler_event(),
            filler_event(),
            ChaosEvent(EventKind.CONTROLLER_CRASH, {"during_next": 1}),
            filler_event(),
            filler_event(),
        ]
        engine = ChaosEngine(config, events=events)
        report = engine.run()
        return engine, report, victim

    def test_failover_survives_the_crash(self):
        engine, report, victim = self.scripted_run()
        assert report.crashes == 1
        assert report.violations == []
        # The restored controller finished what the dying one started.
        assert victim in engine.controller.failed_switches
        rec = engine.fault_plane.record_for(switch_key(victim))
        assert rec is not None and rec.detected_t is not None
        # The monitor survived the restart and kept its suspicion state.
        track = engine.monitor.detector.track(switch_key(victim))
        assert track.state.value == "quarantined"

    def test_verdicts_behind_the_crashing_one_are_still_applied(self):
        """duet-e2e hazard 6 (chaos seed 21022): one probe round emits
        ``restore-switch 3`` then ``quarantine-switch 4``; the armed
        crash fires inside the first verdict's rebalance and unwinds
        ``run_round``.  The detector already holds switch 4 QUARANTINED
        and never re-emits, so the monitor must keep the second verdict
        and apply it on the next round — or switch 4's routes stay
        announced over a dead switch (a §5.1 blackhole)."""
        engine = ChaosEngine(ChaosConfig(
            seed=21022, n_events=30, n_vips=24, channel_loss=0.3,
            channel_delay=0.2, crash_prob=0.02, no_oracle=True, slo=True,
        ))
        report = engine.run()
        assert report.crashes == 1
        assert report.violations == []
        timeline = engine.monitor.timeline
        verdict = next(
            e for e in timeline
            if e["type"] == "verdict" and e["kind"] == "quarantine-switch"
            and e["target"] == "switch:4"
        )
        failover = next(
            e for e in timeline
            if e["type"] == "remediation" and e["op"] == "fail_switch"
            and e["target"] == "switch:4"
        )
        # Applied by the round after the one the crash unwound.
        period = engine.monitor.config.probe_period_s
        assert failover["t"] == pytest.approx(verdict["t"] + period)

    def test_repro_recover_replays_the_failover(self, tmp_path, capsys):
        engine, report, victim = self.scripted_run()
        journal_path = tmp_path / "health-crash.jsonl"
        engine.controller.journal.save(str(journal_path))
        assert main(["recover", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "fail_switch" in out or "restored" in out


class TestHealthCli:
    def test_health_command_runs_clean(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.json"
        code = main([
            "health", "--seed", "3", "--events", "40",
            "--background-loss", "0.02", "--timeline", str(timeline),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert timeline.exists()
        assert "invariants: all held" in out

    def test_health_command_survives_crashes(self, capsys):
        code = main([
            "health", "--seed", "1", "--events", "40",
            "--crash-prob", "0.1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "invariants: all held" in out
