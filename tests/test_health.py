"""Unit tier for the probe-driven health subsystem.

Covers the fault plane's injection/ground-truth lifecycle, the
quarantine state machine edge by edge (including the hysteresis that
keeps benign background loss from quarantining healthy devices), the
gray-failure gates, and the verdict -> controller-op translation.
"""

import pytest

from repro.chaos import ChaosConfig
from repro.chaos.engine import build_controller
from repro.health import (
    FaultPlane,
    HealthConfig,
    HealthDetector,
    HealthMonitor,
    HealthState,
    ProbeNetwork,
    Verdict,
    VerdictKind,
)
from repro.health.faults import dip_key, gray_key, smux_key, switch_key
from repro.health.probes import ProbeOutcome, ProbeRound
from repro.health.remediation import RemediationLoop
from repro.net.addressing import format_ip
from repro.obs import MetricsRegistry, instrument_controller

PERIOD = 0.003


def switch_round(t, oks):
    """One probe round of switch heartbeats: {index: ok}."""
    return ProbeRound(t=t, outcomes=[
        ProbeOutcome(kind="switch", target=switch_key(i), t=t, ok=ok)
        for i, ok in sorted(oks.items())
    ])


def drive_switch(detector, pattern, start_round=0):
    """Feed a True/False heartbeat pattern for switch 0; collect verdicts."""
    verdicts = []
    for offset, ok in enumerate(pattern):
        t = (start_round + offset + 1) * PERIOD
        verdicts.extend(detector.observe(switch_round(t, {0: ok})))
    return verdicts


class TestFaultPlane:
    def test_silent_switch_lifecycle(self):
        plane = FaultPlane(seed=0)
        plane.silent_fail_switch(3, t=1.0)
        assert plane.switch_heartbeat_drops(3)
        assert plane.hmux_drops(3, 0x0A000001)
        assert not plane.switch_heartbeat_drops(4)
        rec = plane.record_for(switch_key(3))
        assert rec is not None and rec.active and rec.injected_t == 1.0
        plane.silent_recover_switch(3, t=2.0)
        assert not plane.switch_heartbeat_drops(3)
        assert rec.cleared_t == 2.0 and not rec.active
        assert plane.record_for(switch_key(3)) is None

    def test_double_injection_rejected(self):
        plane = FaultPlane()
        plane.silent_fail_switch(0, t=0.0)
        with pytest.raises(ValueError):
            plane.silent_fail_switch(0, t=0.1)
        plane.silent_fail_smux(1, t=0.0)
        with pytest.raises(ValueError):
            plane.silent_fail_smux(1, t=0.1)

    def test_gray_is_per_vip_and_keeps_heartbeats(self):
        plane = FaultPlane(seed=0)
        plane.inject_gray(2, 0x0A000001, 1.0, t=0.0)
        # Total loss for the gray (switch, VIP) pair only...
        assert plane.hmux_drops(2, 0x0A000001)
        assert not plane.hmux_drops(2, 0x0A000002)
        assert not plane.hmux_drops(1, 0x0A000001)
        # ...while the switch CPU still answers pings: that is what
        # makes the failure gray rather than silent-dead.
        assert not plane.switch_heartbeat_drops(2)
        plane.clear_gray(2, 0x0A000001, t=1.0)
        assert not plane.hmux_drops(2, 0x0A000001)

    def test_switch_wide_gray_covers_every_vip(self):
        plane = FaultPlane(seed=0)
        plane.inject_gray(1, None, 1.0, t=0.0)
        assert plane.hmux_drops(1, 0x0A000001)
        assert plane.hmux_drops(1, 0x0A00FFFF)

    def test_gray_loss_rate_validated(self):
        plane = FaultPlane()
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                plane.inject_gray(0, None, bad, t=0.0)

    def test_background_loss_hits_every_family(self):
        plane = FaultPlane(seed=0, background_loss=1.0)
        assert plane.switch_heartbeat_drops(0)
        assert plane.smux_heartbeat_drops(0)
        assert plane.hmux_drops(0, 1)
        assert plane.smux_drops(0)

    def test_retire_smux_closes_the_fault(self):
        plane = FaultPlane()
        plane.silent_fail_smux(2, t=0.0)
        plane.retire_smux(2, t=1.0)
        assert not plane.smux_heartbeat_drops(2)
        assert plane.log[0].cleared_t == 1.0

    def test_mark_detected_is_first_writer_wins(self):
        plane = FaultPlane()
        plane.silent_fail_switch(0, t=0.0)
        plane.mark_detected(switch_key(0), t=0.5)
        plane.mark_detected(switch_key(0), t=0.9)
        assert plane.log[0].detected_t == 0.5


class TestProbeNetwork:
    def test_vip_outcome_names_the_offered_mux(self):
        """The outcome is the prober's whole record of a probe: which
        mux it was offered to, whether it came back, how fast."""
        controller = build_controller(ChaosConfig(seed=0))
        plane = FaultPlane()
        network = ProbeNetwork(controller, plane)
        vip, switch = next(
            (addr, record.assigned_switch)
            for addr, record in sorted(controller.records().items())
            if record.assigned_switch is not None
        )
        [served] = network.probe_vips([vip], PERIOD, seq=0)
        assert served.ok and not served.post_mux
        assert (served.kind, served.vip) == ("vip", vip)
        assert (served.mux_kind, served.mux_ident) == ("hmux", switch)
        assert served.latency_s > 0

        plane.silent_fail_switch(switch, t=2 * PERIOD)
        before = controller.switch_agents[switch].hmux.counters.packets
        dropped, unrouted = network.probe_vips(
            [vip, 0x7F000001], 3 * PERIOD, seq=1,
        )
        assert not dropped.ok and dropped.latency_s is None
        assert (dropped.mux_kind, dropped.mux_ident) == ("hmux", switch)
        # Lost before the mux: offered, never counted.
        assert controller.switch_agents[switch].hmux.counters.packets == before
        # No route: offered to no mux at all.
        assert not unrouted.ok and unrouted.mux_kind is None

        # Counted by a healthy mux, then refused by the host agent: a
        # post-mux loss the detector must not blame on the mux.
        other = next(
            addr for addr, record in sorted(controller.records().items())
            if record.assigned_switch not in (None, switch)
        )
        for dip in controller.record(other).dips:
            controller.host_agents[dip.server_id].set_health(dip.addr, False)
        [refused] = network.probe_vips([other], 4 * PERIOD, seq=2)
        assert not refused.ok and refused.post_mux
        assert refused.mux_kind == "hmux"


class TestMuxStateMachine:
    def test_hard_down_quarantined_on_fast_path(self):
        det = HealthDetector(HealthConfig())
        verdicts = drive_switch(det, [False] * 4)
        assert [v.kind for v in verdicts] == [VerdictKind.QUARANTINE_SWITCH]
        track = det.track(switch_key(0))
        assert track.state is HealthState.QUARANTINED
        assert track.times_quarantined == 1
        # healthy -> suspect -> quarantined, nothing else.
        assert [tr["to"] for tr in det.transitions] == [
            "suspect", "quarantined"
        ]

    def test_short_flap_never_quarantined(self):
        det = HealthDetector(HealthConfig())
        verdicts = drive_switch(det, [False, False] + [True] * 8)
        assert verdicts == []
        assert det.track(switch_key(0)).state is HealthState.HEALTHY
        # It did get suspected — hysteresis, not blindness.
        assert any(tr["to"] == "suspect" for tr in det.transitions)

    def test_scattered_drops_stay_below_confirm_threshold(self):
        # Alternating loss holds the EWMA above suspect_threshold but
        # never reaches confirm_threshold nor a consecutive-miss run:
        # the confirmation gate must not quarantine on lingering
        # suspicion alone.
        det = HealthDetector(HealthConfig())
        verdicts = drive_switch(det, [False, True] * 15)
        assert verdicts == []
        assert det.track(switch_key(0)).state is not HealthState.QUARANTINED

    def quarantine_then_recover(self, det, dead_rounds=6):
        drive_switch(det, [False] * dead_rounds)
        assert det.track(switch_key(0)).state is HealthState.QUARANTINED

    def test_probation_requires_dwell_and_streak(self):
        cfg = HealthConfig()
        det = HealthDetector(cfg)
        self.quarantine_then_recover(det)
        verdicts = drive_switch(det, [True] * 10, start_round=6)
        kinds = [v.kind for v in verdicts]
        assert kinds[0] is VerdictKind.PROBATION_SWITCH
        assert kinds[-1] is VerdictKind.RESTORE_SWITCH
        track = det.track(switch_key(0))
        assert track.state is HealthState.HEALTHY

    def test_probation_starts_with_a_clean_slate(self):
        det = HealthDetector(HealthConfig())
        self.quarantine_then_recover(det)
        drive_switch(det, [True] * 4, start_round=6)
        track = det.track(switch_key(0))
        assert track.state is HealthState.PROBATION
        # The quarantine-era EWMA must not leak into probation.
        assert track.ewma == 0.0 and track.consec_fail == 0
        # One benign drop during probation is not a relapse...
        verdicts = drive_switch(det, [False] + [True] * 6, start_round=10)
        assert VerdictKind.REQUARANTINE_SWITCH not in [v.kind for v in verdicts]
        assert VerdictKind.RESTORE_SWITCH in [v.kind for v in verdicts]

    def test_probation_relapse_doubles_the_dwell(self):
        cfg = HealthConfig()
        det = HealthDetector(cfg)
        self.quarantine_then_recover(det)
        drive_switch(det, [True] * 4, start_round=6)
        assert det.track(switch_key(0)).state is HealthState.PROBATION
        # ...but a real failure run is.
        verdicts = drive_switch(det, [False] * 3, start_round=10)
        assert [v.kind for v in verdicts] == [VerdictKind.REQUARANTINE_SWITCH]
        track = det.track(switch_key(0))
        assert track.state is HealthState.QUARANTINED
        assert track.dwell_rounds == int(
            cfg.quarantine_min_rounds * cfg.relapse_backoff
        )
        assert track.times_quarantined == 2

    def test_smux_quarantine_emits_smux_verdict(self):
        det = HealthDetector(HealthConfig())
        verdicts = []
        for i in range(4):
            t = (i + 1) * PERIOD
            verdicts.extend(det.observe(ProbeRound(t=t, outcomes=[
                ProbeOutcome(kind="smux", target=smux_key(7), t=t, ok=False)
            ])))
        assert [v.kind for v in verdicts] == [VerdictKind.QUARANTINE_SMUX]
        assert verdicts[0].ident == 7

    def test_retired_target_is_ignored(self):
        det = HealthDetector(HealthConfig())
        drive_switch(det, [False] * 4)
        det.retire(switch_key(0), t=1.0)
        before = len(det.transitions)
        drive_switch(det, [True] * 10, start_round=4)
        assert len(det.transitions) == before
        assert det.track(switch_key(0)).state is HealthState.RETIRED

    def test_adopt_quarantine_is_not_a_detection(self):
        det = HealthDetector(HealthConfig())
        det.adopt_quarantine(switch_key(5), "switch", 5, t=0.0)
        track = det.track(switch_key(5))
        assert track.state is HealthState.QUARANTINED
        assert det.transitions[-1]["detail"] == "adopted external failure"


class TestDipStateMachine:
    def dip_round(self, t, ok, dip=0x0A0A0A0A, vip=0x0A000001):
        return ProbeRound(t=t, outcomes=[
            ProbeOutcome(kind="dip", target=dip_key(dip), t=t, ok=ok, vip=vip)
        ])

    def drive(self, det, pattern, start=0):
        verdicts = []
        for i, ok in enumerate(pattern):
            t = (start + i + 1) * PERIOD
            verdicts.extend(det.observe(self.dip_round(t, ok)))
        return verdicts

    def test_single_flap_is_suppressed(self):
        det = HealthDetector(HealthConfig())
        verdicts = self.drive(det, [False, False, False, True, True])
        assert verdicts == []
        track = det.track(dip_key(0x0A0A0A0A))
        assert track.state is HealthState.HEALTHY
        assert any(
            tr["detail"] == "flap suppressed" for tr in det.transitions
        )

    def test_sustained_failure_reaps_the_dip(self):
        det = HealthDetector(HealthConfig())
        verdicts = self.drive(det, [False] * 6)
        assert [v.kind for v in verdicts] == [VerdictKind.QUARANTINE_DIP]
        assert verdicts[0].ident == 0x0A0A0A0A
        assert verdicts[0].vip == 0x0A000001


class TestGrayDetection:
    VIP = 0x0A000001
    SWITCH = 0

    def gray_round(self, t, losses, oks=0, vip=None, dip_ok=True):
        vip = self.VIP if vip is None else vip
        outcomes = [
            ProbeOutcome(kind="switch", target=switch_key(self.SWITCH),
                         t=t, ok=True),
            ProbeOutcome(kind="dip", target=dip_key(0x0A0A0A0A), t=t,
                         ok=dip_ok, vip=vip),
        ]
        for _ in range(losses):
            outcomes.append(ProbeOutcome(
                kind="vip", target=f"vip:{vip:#x}", t=t, ok=False,
                vip=vip, mux_kind="hmux", mux_ident=self.SWITCH,
            ))
        for _ in range(oks):
            outcomes.append(ProbeOutcome(
                kind="vip", target=f"vip:{vip:#x}", t=t, ok=True,
                vip=vip, mux_kind="hmux", mux_ident=self.SWITCH,
                latency_s=150e-6,
            ))
        return ProbeRound(t=t, outcomes=outcomes)

    def test_sustained_loss_yields_gray_verdict(self):
        det = HealthDetector(HealthConfig())
        verdicts = []
        for i in range(8):
            verdicts.extend(det.observe(self.gray_round((i + 1) * PERIOD, 1)))
        gray = [v for v in verdicts if v.kind is VerdictKind.GRAY_VIP]
        assert len(gray) == 1
        assert gray[0].target == gray_key(self.SWITCH, self.VIP)
        assert gray[0].vip == self.VIP

    def test_cooldown_suppresses_verdict_spam(self):
        det = HealthDetector(HealthConfig())
        verdicts = []
        for i in range(30):
            verdicts.extend(det.observe(self.gray_round((i + 1) * PERIOD, 1)))
        gray = [v for v in verdicts if v.kind is VerdictKind.GRAY_VIP]
        # 30 lossy rounds but the cooldown (40 rounds) admits only one
        # migration attempt.
        assert len(gray) == 1

    def test_min_losses_gate(self):
        # Low thresholds except the loss floor: two lost probes must
        # never trigger a migration.
        cfg = HealthConfig(gray_loss_threshold=0.01, gray_min_probes=4)
        det = HealthDetector(cfg)
        verdicts = []
        for i, losses in enumerate([1, 1, 0, 0, 0]):
            verdicts.extend(det.observe(
                self.gray_round((i + 1) * PERIOD, losses, oks=1 - losses)
            ))
        assert [v for v in verdicts if v.kind is VerdictKind.GRAY_VIP] == []

    def test_dip_suppression_blames_the_dip_not_the_switch(self):
        det = HealthDetector(HealthConfig())
        verdicts = []
        for i in range(12):
            verdicts.extend(det.observe(
                self.gray_round((i + 1) * PERIOD, 1, dip_ok=False)
            ))
        assert [v for v in verdicts if v.kind is VerdictKind.GRAY_VIP] == []

    def test_counter_corroboration_vetoes_post_mux_loss(self):
        # The registry says the HMux processed every offered probe, so
        # whatever dropped them sat *after* the mux: no gray verdict.
        det = HealthDetector(HealthConfig(), registry=object())
        key = (str(self.SWITCH), format_ip(self.VIP))
        verdicts = []
        for i in range(12):
            verdicts.extend(det.observe(
                self.gray_round((i + 1) * PERIOD, 1), {key: 1.0}
            ))
        assert [v for v in verdicts if v.kind is VerdictKind.GRAY_VIP] == []

    def test_rolling_window_ages_out_clean_history(self):
        # A long clean (and counter-corroborated) history must not
        # dilute fresh mux-level loss past the detection budget.
        cfg = HealthConfig()
        det = HealthDetector(cfg, registry=object())
        key = (str(self.SWITCH), format_ip(self.VIP))
        round_no = 0
        for _ in range(30):
            round_no += 1
            det.observe(self.gray_round(round_no * PERIOD, 0, oks=1),
                        {key: 1.0})
        gray_rounds_to_verdict = None
        for lossy in range(1, 16):
            round_no += 1
            verdicts = det.observe(self.gray_round(round_no * PERIOD, 1))
            if any(v.kind is VerdictKind.GRAY_VIP for v in verdicts):
                gray_rounds_to_verdict = lossy
                break
        assert gray_rounds_to_verdict is not None
        assert gray_rounds_to_verdict <= cfg.gray_window_rounds
        # And the evidence window itself stays bounded.
        for gt in det.gray_tracks.values():
            assert len(gt.window) <= cfg.gray_window_rounds

    def test_probe_gap_resets_stale_evidence(self):
        det = HealthDetector(HealthConfig())
        for i in range(5):
            det.observe(self.gray_round((i + 1) * PERIOD, 1))
        # The pair sees no probes for > 2 rounds (VIP served elsewhere).
        for i in range(5, 9):
            det.observe(ProbeRound(t=(i + 1) * PERIOD, outcomes=[
                ProbeOutcome(kind="switch", target=switch_key(self.SWITCH),
                             t=(i + 1) * PERIOD, ok=True),
            ]))
        det.observe(self.gray_round(10 * PERIOD, 1))
        track = det.gray_tracks[(self.SWITCH, self.VIP)]
        assert track.offered == 1 and track.losses == 1

    def test_escalation_quarantines_the_switch(self):
        det = HealthDetector(HealthConfig())
        vips = [0x0A000001, 0x0A000002, 0x0A000003]
        verdicts = []
        for i in range(10):
            t = (i + 1) * PERIOD
            outcomes = [ProbeOutcome(
                kind="switch", target=switch_key(self.SWITCH), t=t, ok=True,
            )]
            for vip in vips:
                outcomes.append(ProbeOutcome(
                    kind="vip", target=f"vip:{vip:#x}", t=t, ok=False,
                    vip=vip, mux_kind="hmux", mux_ident=self.SWITCH,
                ))
            verdicts.extend(det.observe(ProbeRound(t=t, outcomes=outcomes)))
            if any(v.kind is VerdictKind.QUARANTINE_SWITCH for v in verdicts):
                break
        kinds = [v.kind for v in verdicts]
        assert kinds.count(VerdictKind.GRAY_VIP) == len(vips)
        assert VerdictKind.QUARANTINE_SWITCH in kinds
        assert det.track(switch_key(self.SWITCH)).state is HealthState.QUARANTINED
        assert any(
            "gray escalation" in tr["detail"] for tr in det.transitions
        )


class TestHealthConfig:
    def test_round_trip(self):
        cfg = HealthConfig(suspect_threshold=0.5, gray_window_rounds=9)
        assert HealthConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_ignores_unknown_keys(self):
        cfg = HealthConfig.from_dict({"confirm_threshold": 0.8, "bogus": 1})
        assert cfg.confirm_threshold == 0.8

    def test_budgets_scale_with_probe_period(self):
        cfg = HealthConfig(probe_period_s=0.01, detection_budget_rounds=10)
        assert cfg.detection_budget_s == pytest.approx(0.1)


class TestRemediation:
    @pytest.fixture()
    def loop(self):
        controller = build_controller(ChaosConfig(seed=0))
        detector = HealthDetector(HealthConfig())
        return controller, detector, RemediationLoop(controller, detector)

    def test_quarantine_switch_withdraws_routes(self, loop):
        controller, _, loop_ = loop
        index = sorted(controller.switch_agents)[0]
        loop_.apply(Verdict(
            VerdictKind.QUARANTINE_SWITCH, switch_key(index), 0.1, index,
        ), 0.1)
        assert index in controller.failed_switches
        assert loop_.actions[-1]["op"] == "fail_switch"
        assert loop_.actions[-1]["ok"]
        # Idempotent: a second verdict for an already-failed switch is
        # a no-op, not a ControllerError.
        loop_.apply(Verdict(
            VerdictKind.QUARANTINE_SWITCH, switch_key(index), 0.2, index,
        ), 0.2)
        assert len(loop_.actions) == 1

    def test_probation_rejoins_and_restore_rebalances(self, loop):
        controller, _, loop_ = loop
        index = sorted(controller.switch_agents)[0]
        controller.fail_switch(index)
        loop_.apply(Verdict(
            VerdictKind.PROBATION_SWITCH, switch_key(index), 0.1, index,
        ), 0.1)
        assert index not in controller.failed_switches
        loop_.apply(Verdict(
            VerdictKind.RESTORE_SWITCH, switch_key(index), 0.2, index,
        ), 0.2)
        assert loop_.actions[-1]["op"] == "rebalance"
        assert any(
            rec.assigned_switch == index
            for rec in controller.records().values()
        )

    def test_quarantined_smux_is_replaced_then_removed(self, loop):
        controller, detector, loop_ = loop
        fleet_before = len(controller.smuxes)
        victim = controller.smuxes[0].smux_id
        # The detector has been probing the SMux, so it has a track to
        # retire once the replacement lands.
        detector.observe(ProbeRound(t=0.05, outcomes=[
            ProbeOutcome(kind="smux", target=smux_key(victim), t=0.05, ok=True)
        ]))
        loop_.apply(Verdict(
            VerdictKind.QUARANTINE_SMUX, smux_key(victim), 0.1, victim,
        ), 0.1)
        assert all(s.smux_id != victim for s in controller.smuxes)
        assert len(controller.smuxes) == fleet_before
        assert loop_.removed_smuxes == [victim]
        assert detector.track(smux_key(victim)).state is HealthState.RETIRED

    def test_never_reaps_the_last_dip(self, loop):
        controller, _, loop_ = loop
        vip, record = next(
            (vip, rec) for vip, rec in sorted(controller.records().items())
            if len(rec.dips) >= 2
        )
        while len(controller.records()[vip].dips) > 1:
            dip = controller.records()[vip].dips[0].addr
            loop_.apply(Verdict(
                VerdictKind.QUARANTINE_DIP, dip_key(dip), 0.1, dip, vip=vip,
            ), 0.1)
        last = controller.records()[vip].dips[0].addr
        loop_.apply(Verdict(
            VerdictKind.QUARANTINE_DIP, dip_key(last), 0.2, last, vip=vip,
        ), 0.2)
        assert len(controller.records()[vip].dips) == 1
        assert loop_.actions[-1]["ok"] is False
        assert "last DIP" in loop_.actions[-1]["error"]

    def test_gray_vip_migrates_off_the_gray_switch(self, loop):
        controller, _, loop_ = loop
        vip, record = sorted(controller.records().items())[0]
        source = record.assigned_switch
        loop_.apply(Verdict(
            VerdictKind.GRAY_VIP, gray_key(source, vip), 0.1, source, vip=vip,
        ), 0.1)
        assert loop_.actions[-1]["op"] == "migrate_vip"
        assert controller.records()[vip].assigned_switch != source

    def test_migration_avoids_unhealthy_targets(self, loop):
        controller, detector, loop_ = loop
        vip, record = sorted(controller.records().items())[0]
        source = record.assigned_switch
        # Every other switch is quarantined: nowhere to go.
        for index in controller.switch_agents:
            if index != source:
                detector.adopt_quarantine(switch_key(index), "switch", index, 0.0)
        loop_.apply(Verdict(
            VerdictKind.GRAY_VIP, gray_key(source, vip), 0.1, source, vip=vip,
        ), 0.1)
        assert loop_.actions[-1]["ok"] is False
        assert "no healthy migration target" in loop_.actions[-1]["error"]
        assert controller.records()[vip].assigned_switch == source


class TestMonitorObservability:
    def test_health_metrics_flow_through_the_registry(self):
        controller = build_controller(ChaosConfig(seed=0))
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        plane = FaultPlane(seed=0)
        monitor = HealthMonitor(
            controller, plane, HealthConfig(), registry=registry, seed=0,
        )
        monitor.run(3)
        registry.collect()
        rounds = registry.get("duet_health_probe_rounds_total")
        assert rounds.samples()[0].value == 3
        probes = registry.get("duet_health_probes_total")
        assert sum(s.value for s in probes.samples()) > 0
        states = registry.get("duet_health_targets")
        by_state = {
            dict(s.labels)["state"]: s.value for s in states.samples()
        }
        assert by_state["healthy"] == len(monitor.detector.tracks)

    def test_quarantine_transition_is_counted(self):
        controller = build_controller(ChaosConfig(seed=0))
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        plane = FaultPlane(seed=0)
        monitor = HealthMonitor(
            controller, plane, HealthConfig(), registry=registry, seed=0,
        )
        victim = sorted(controller.switch_agents)[0]
        plane.silent_fail_switch(victim, t=0.0)
        monitor.run(6)
        transitions = registry.get("duet_health_transitions_total")
        counted = {
            tuple(v for _, v in s.labels): s.value
            for s in transitions.samples()
        }
        assert counted.get(("suspect", "quarantined")) == 1
        verdicts = registry.get("duet_health_verdicts_total")
        kinds = {dict(s.labels)["kind"] for s in verdicts.samples()}
        assert "quarantine-switch" in kinds
