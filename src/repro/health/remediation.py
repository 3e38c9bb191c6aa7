"""Verdict -> controller-op translation, and the monitor main loop.

The :class:`RemediationLoop` is the only component here allowed to
touch the controller's mutating API, and it only uses the existing
journaled lifecycle ops — so every detector-initiated failover is
written to the WAL before its effects and survives crash-restart
exactly like an operator-initiated one (``repro recover`` replays it).

Verdict mapping:

==================  =====================================================
Verdict             Controller op
==================  =====================================================
QUARANTINE_SWITCH   ``fail_switch`` — withdraw /32s; SMux aggregate
                    routes take over (the paper's failover, S5.3)
PROBATION_SWITCH    ``recover_switch`` — rejoin BGP, no VIPs yet
RESTORE_SWITCH      ``rebalance`` — re-home VIPs onto the recovered
                    switch once probation completed cleanly
REQUARANTINE_SWITCH ``fail_switch`` again (probation relapse)
QUARANTINE_SMUX     ``add_smux`` replacement, then ``fail_smux``
QUARANTINE_DIP      ``dip_failure`` — reap the DIP (never the last one)
GRAY_VIP            ``migrate_vip`` to the least-loaded healthy switch
==================  =====================================================

A :class:`SimulatedCrash` raised inside any of these ops propagates —
the monitor never swallows it, so crash chaos exercises recovery of
detector-initiated ops too.  Verdicts of the same round that were still
waiting behind the crashing op are kept and applied on the next round.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.controller import ControllerError, DuetController
from repro.health.detector import (
    HealthConfig,
    HealthDetector,
    HealthState,
    Verdict,
    VerdictKind,
)
from repro.health.faults import FaultPlane, smux_key, switch_key
from repro.health.probes import ProbeNetwork, ProbeScheduler, SimClock
from repro.net.addressing import format_ip


class RemediationLoop:
    """Applies verdicts through journaled controller ops."""

    def __init__(
        self,
        controller: DuetController,
        detector: HealthDetector,
        replace_failed_smux: bool = True,
    ) -> None:
        self.controller = controller
        self.detector = detector
        self.replace_failed_smux = replace_failed_smux
        self.actions: List[Dict[str, object]] = []
        self.removed_smuxes: List[int] = []
        self.errors = 0

    def rebind(self, controller: DuetController) -> None:
        """Point at a restored controller after crash recovery."""
        self.controller = controller

    def _run(self, op: str, target: str, t: float, fn, **params) -> bool:
        entry: Dict[str, object] = {
            "t": t, "op": op, "target": target, "params": params, "ok": True,
        }
        try:
            fn()
        except ControllerError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            self.errors += 1
            self.actions.append(entry)
            return False
        self.actions.append(entry)
        return True

    def apply(self, verdict: Verdict, t: float) -> None:
        kind = verdict.kind
        ctl = self.controller

        if kind in (
            VerdictKind.QUARANTINE_SWITCH, VerdictKind.REQUARANTINE_SWITCH
        ):
            if verdict.ident not in ctl.failed_switches:
                self._run(
                    "fail_switch", verdict.target, t,
                    lambda: ctl.fail_switch(verdict.ident),
                    switch=verdict.ident, reason=verdict.detail,
                )

        elif kind is VerdictKind.PROBATION_SWITCH:
            if verdict.ident in ctl.failed_switches:
                self._run(
                    "recover_switch", verdict.target, t,
                    lambda: ctl.recover_switch(verdict.ident),
                    switch=verdict.ident,
                )

        elif kind is VerdictKind.RESTORE_SWITCH:
            # recover_switch may have failed at probation time (e.g. the
            # switch was still link-isolated); retry before re-homing.
            if verdict.ident in ctl.failed_switches:
                if not self._run(
                    "recover_switch", verdict.target, t,
                    lambda: ctl.recover_switch(verdict.ident),
                    switch=verdict.ident,
                ):
                    return
            self._run(
                "rebalance", verdict.target, t, lambda: ctl.rebalance(),
                reason="probation complete",
            )

        elif kind is VerdictKind.QUARANTINE_SMUX:
            if self.replace_failed_smux or len(ctl.smuxes) == 1:
                self._run(
                    "add_smux", verdict.target, t, lambda: ctl.add_smux(),
                    reason="replace quarantined smux",
                )
            if self._run(
                "fail_smux", verdict.target, t,
                lambda: ctl.fail_smux(verdict.ident),
                smux=verdict.ident,
            ):
                self.removed_smuxes.append(verdict.ident)
                self.detector.retire(verdict.target, t)

        elif kind is VerdictKind.QUARANTINE_DIP:
            vip = verdict.vip
            record = None if vip is None else ctl.records().get(vip)
            if record is None:
                return
            if len(record.dips) <= 1:
                self.actions.append({
                    "t": t, "op": "dip_failure", "target": verdict.target,
                    "ok": False, "error": "refusing to reap the last DIP",
                })
                return
            if self._run(
                "dip_failure", verdict.target, t,
                lambda: ctl.dip_failure(vip, verdict.ident),
                vip=vip, dip=verdict.ident,
            ):
                self.detector.retire(verdict.target, t)

        elif kind is VerdictKind.GRAY_VIP:
            vip = verdict.vip
            target_switch = self._migration_target(exclude=verdict.ident)
            if target_switch is None:
                self.actions.append({
                    "t": t, "op": "migrate_vip", "target": verdict.target,
                    "ok": False, "error": "no healthy migration target",
                })
                return
            self._run(
                "migrate_vip", verdict.target, t,
                lambda: ctl.migrate_vip(vip, target_switch),
                vip=vip, to_switch=target_switch, reason=verdict.detail,
            )

    def _migration_target(self, exclude: int) -> Optional[int]:
        """Least-loaded live switch the detector considers healthy."""
        ctl = self.controller
        load: Dict[int, int] = {}
        for index in ctl.switch_agents:
            if index == exclude or index in ctl.failed_switches:
                continue
            track = self.detector.track(switch_key(index))
            if track is not None and track.state is not HealthState.HEALTHY:
                continue
            load[index] = 0
        if not load:
            return None
        for record in ctl.records().values():
            if record.assigned_switch in load:
                load[record.assigned_switch] += 1
        return min(load, key=lambda idx: (load[idx], idx))


class HealthMonitor:
    """probe -> detect -> remediate, one simulated period at a time."""

    def __init__(
        self,
        controller: DuetController,
        fault_plane: FaultPlane,
        config: Optional[HealthConfig] = None,
        registry=None,
        seed: int = 0,
    ) -> None:
        self.config = config or HealthConfig()
        self.controller = controller
        self.registry = registry
        self.clock = SimClock()
        self.network = ProbeNetwork(controller, fault_plane, seed=seed)
        self.scheduler = ProbeScheduler(
            self.network, self.config.vip_probes_per_round
        )
        self.detector = HealthDetector(self.config, registry)
        self.remediation = RemediationLoop(controller, self.detector)
        self.timeline: List[Dict[str, object]] = []
        # Verdicts emitted but not yet applied.  Non-empty between rounds
        # only after a SimulatedCrash unwound run_round mid-remediation:
        # the detector never re-emits a verdict, so the ones behind the
        # crashing op wait here (the monitor outlives the controller).
        self._unapplied: Deque[Verdict] = deque()
        self._transitions_seen = 0
        self._instruments = None
        if registry is not None:
            self._instruments = {
                "probes": registry.counter(
                    "duet_health_probes_total",
                    "Health probes sent, by probe family and result.",
                    ("kind", "result"),
                ),
                # VIP-probe outcomes at SLI granularity: "ok" delivered,
                # "post-mux-drop" lost after a healthy mux decap (the
                # DIP's problem, not the load balancer's), "mux-drop"
                # eaten at/before the mux, "unrouted" no route at all.
                # Incremented here directly (no collector) so partial
                # recorder ticks see fresh values every probe round.
                "vip_outcomes": registry.counter(
                    "duet_health_vip_probe_outcomes_total",
                    "VIP data-path probe outcomes (availability SLI).",
                    ("result",),
                ),
                "vip_rtt": registry.histogram(
                    "duet_health_vip_rtt_seconds",
                    "Delivered VIP probe round-trip time (latency SLI).",
                    buckets=(
                        0.0002, 0.0003, 0.0005, 0.00075, 0.001, 0.0025,
                    ),
                ),
                "rounds": registry.counter(
                    "duet_health_probe_rounds_total",
                    "Completed probe rounds.",
                ),
                "transitions": registry.counter(
                    "duet_health_transitions_total",
                    "Quarantine state-machine transitions.",
                    ("from_state", "to_state"),
                ),
                "verdicts": registry.counter(
                    "duet_health_verdicts_total",
                    "Detector verdicts, by kind.",
                    ("kind",),
                ),
                "remediations": registry.counter(
                    "duet_health_remediations_total",
                    "Remediation ops applied, by op and outcome.",
                    ("op", "result"),
                ),
                "states": registry.gauge(
                    "duet_health_targets",
                    "Probe targets currently in each health state.",
                    ("state",),
                ),
            }
            registry.register_collector("health", self._collect)

    def _collect(self, registry) -> None:
        gauge = self._instruments["states"]
        for state, count in self.detector.state_counts().items():
            gauge.labels(state).set(count)

    def rebind(self, controller: DuetController) -> None:
        """Repoint at a restored controller after crash recovery; the
        detector's suspicion state survives the crash
        (the monitor is a separate failure domain from the controller)."""
        self.controller = controller
        self.network.controller = controller
        self.remediation.rebind(controller)

    # -- per-round plumbing -------------------------------------------------

    def _hmux_counter_snapshot(self) -> Dict[Tuple[int, int], int]:
        """Per-(switch, VIP) packets each HMux has forwarded: the source
        of ``duet_hmux_vip_packets_total``, read off the switches rather
        than through a scrape (which runs every collector)."""
        if self.registry is None:
            return {}
        return {
            (index, vip): packets
            for index, agent in self.controller.switch_agents.items()
            for vip, packets in agent.hmux.counters.per_vip_packets.items()
        }

    def _adopt_external(self, t: float) -> None:
        for index in self.controller.failed_switches:
            key = switch_key(index)
            track = self.detector.track(key)
            if track is None or track.state in (
                HealthState.HEALTHY, HealthState.SUSPECT
            ):
                self.detector.adopt_quarantine(key, "switch", index, t)

    def run_round(self) -> List[Verdict]:
        t = self.clock.advance(self.config.probe_period_s)
        self._adopt_external(t)

        before = self._hmux_counter_snapshot()
        round_ = self.scheduler.run_round(t)
        after = self._hmux_counter_snapshot()
        if self.registry is not None:
            # The one scrape of the round, between the sweep and the
            # remediation below: a quarantine wipes its mux, and the
            # cumulative forwarded series only survives a wipe for the
            # packets a scrape has already seen; the alert round that
            # follows also reads the histograms collectors drain into.
            self.registry.collect()
        # Keyed as the registry labels the counter: (switch, VIP) strings.
        deltas: Dict[Tuple[str, str], float] = {}
        for (index, vip), packets in after.items():
            moved = packets - before.get((index, vip), 0)
            if moved:
                deltas[(str(index), format_ip(vip))] = float(moved)

        if self._instruments is not None:
            probes = self._instruments["probes"]
            vip_outcomes = self._instruments["vip_outcomes"]
            vip_rtt = self._instruments["vip_rtt"]
            for outcome in round_.outcomes:
                probes.labels(outcome.kind, "ok" if outcome.ok else "drop").inc()
                if outcome.kind != "vip":
                    continue
                if outcome.ok:
                    result = "ok"
                elif outcome.post_mux:
                    result = "post-mux-drop"
                elif outcome.mux_kind is None:
                    result = "unrouted"
                else:
                    result = "mux-drop"
                vip_outcomes.labels(result).inc()
                if outcome.latency_s is not None:
                    vip_rtt.observe(outcome.latency_s)
            self._instruments["rounds"].inc()

        verdicts = self.detector.observe(round_, deltas)

        new_transitions = self.detector.transitions[self._transitions_seen:]
        self._transitions_seen = len(self.detector.transitions)
        for tr in new_transitions:
            self.timeline.append({"type": "transition", **tr})
            if self._instruments is not None:
                self._instruments["transitions"].labels(
                    tr["from"], tr["to"]
                ).inc()

        self._unapplied.extend(verdicts)
        while self._unapplied:
            verdict = self._unapplied.popleft()
            self.timeline.append({
                "type": "verdict", "t": verdict.t, "kind": verdict.kind.value,
                "target": verdict.target, "detail": verdict.detail,
            })
            if self._instruments is not None:
                self._instruments["verdicts"].labels(verdict.kind.value).inc()
            actions_before = len(self.remediation.actions)
            self.remediation.apply(verdict, t)
            for action in self.remediation.actions[actions_before:]:
                self.timeline.append({"type": "remediation", **action})
                if self._instruments is not None:
                    self._instruments["remediations"].labels(
                        action["op"], "ok" if action["ok"] else "error"
                    ).inc()

        # Late-arriving transitions from remediation (track retirement,
        # gray escalation) land in the timeline too.
        late = self.detector.transitions[self._transitions_seen:]
        self._transitions_seen = len(self.detector.transitions)
        for tr in late:
            self.timeline.append({"type": "transition", **tr})
            if self._instruments is not None:
                self._instruments["transitions"].labels(
                    tr["from"], tr["to"]
                ).inc()

        return verdicts

    def run(self, rounds: int) -> List[Verdict]:
        all_verdicts: List[Verdict] = []
        for _ in range(rounds):
            all_verdicts.extend(self.run_round())
        return all_verdicts
