"""Ground-truth scoring of the detect -> failover -> recover loop.

The scorecard is the *judge*, not a participant: it reads the fault
plane's injection log (which the detector never sees) and compares it
with the detector's transition history and the remediation action log.
In a no-oracle soak the chaos engine runs it after every step, beside
the invariant battery.

Invariants:

* **fault-detected** — every injected silent/gray fault is detected
  within the detection budget.  Faults that cleared before a detector
  could plausibly have seen them (shorter than the budget) are excused
  as flaps — *not* detecting those is the hysteresis working.
* **detection-budget** — detection latency for detected faults stays
  within ``detection_budget_s``.
* **no-stuck-quarantine** — once a fault clears, its target must leave
  quarantine (and the controller's failed set) within the recovery
  budget.  A healthy device never rusts in quarantine.
* **fault-remediated** — a detected, still-active switch/SMux fault is
  actually acted on: the switch is failed in the controller (routes
  withdrawn, SMux fallback serving) / the SMux is out of the fleet.
* **no-false-positive** — no quarantine verdict for a mux that had no
  active fault at verdict time (external/adopted failures excluded).

``sync()`` also feeds detection latencies into the obs registry
(``duet_health_detection_latency_seconds`` and
``duet_health_false_positives_total``) so detection quality is
scrapeable like every other signal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import Violation
from repro.health.detector import HealthConfig, HealthState
from repro.health.faults import (
    GRAY,
    SMUX_SILENT,
    SWITCH_SILENT,
    FaultPlane,
    FaultRecord,
)
from repro.health.remediation import HealthMonitor

#: Buckets sized for probe-period-scale latencies (seconds).
DETECTION_LATENCY_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0,
)


class HealthScorecard:
    """Pairs injected faults with detections and judges the loop."""

    def __init__(
        self,
        fault_plane: FaultPlane,
        monitor: HealthMonitor,
        config: Optional[HealthConfig] = None,
        registry=None,
    ) -> None:
        self.fault_plane = fault_plane
        self.monitor = monitor
        self.config = config or monitor.config
        self.registry = registry
        self.detection_latencies: List[float] = []
        self.false_positives: List[Dict[str, object]] = []
        self._transitions_scanned = 0
        #: Per-gray-fault exposure-clock start (see :meth:`check`).
        self._gray_exposure_start: Dict[str, float] = {}
        self._latency_hist = None
        self._fp_counter = None
        if registry is not None:
            self._latency_hist = registry.histogram(
                "duet_health_detection_latency_seconds",
                "Time from silent fault injection to quarantine/gray verdict.",
                buckets=DETECTION_LATENCY_BUCKETS,
            )
            self._fp_counter = registry.counter(
                "duet_health_false_positives_total",
                "Quarantine verdicts with no matching injected fault.",
            )

    # -- pairing ------------------------------------------------------------

    def _detection_events(self) -> List[Dict[str, object]]:
        """Detector events that count as 'the fault was noticed':
        entering quarantine (not by adoption), or a gray verdict."""
        events: List[Dict[str, object]] = []
        for tr in self.monitor.detector.transitions:
            if (
                tr["to"] == HealthState.QUARANTINED.value
                and "adopted" not in str(tr["detail"])
            ):
                events.append({
                    "t": tr["t"], "target": tr["target"], "kind": "quarantine",
                })
        for entry in self.monitor.timeline:
            if entry.get("type") == "verdict" and entry.get("kind") == "gray-vip":
                events.append({
                    "t": entry["t"], "target": entry["target"], "kind": "gray",
                })
        events.sort(key=lambda e: (e["t"], e["target"]))
        return events

    def _matches(self, fault: FaultRecord, event: Dict[str, object]) -> bool:
        if event["target"] == fault.target:
            return True
        if fault.kind == GRAY:
            # A switch-wide gray fault (gray:<switch>:*) is detected by
            # per-VIP verdicts (gray:<switch>:<vip>); escalation may also
            # quarantine the whole switch instead.
            switch = fault.target.split(":")[1]
            target = str(event["target"])
            return (
                target.startswith(f"gray:{switch}:")
                or target == f"switch:{switch}"
            )
        return False

    def _gray_dormant(self, fault: FaultRecord, controller) -> bool:
        """A gray fault no VIP traffic traverses is undetectable by
        end-to-end probing — and harmless.  Excused from the budget."""
        if fault.kind != GRAY or controller is None:
            return False
        parts = fault.target.split(":")
        switch = int(parts[1])
        scope = parts[2]
        records = controller.records()
        if scope == "*":
            return not any(
                rec.assigned_switch == switch for rec in records.values()
            )
        vip = int(scope, 16)
        record = records.get(vip)
        return record is None or record.assigned_switch != switch

    def sync(self) -> List[Tuple[str, float]]:
        """Pair new detections with open faults.  Returns newly paired
        (target, latency_s) tuples; feeds the registry metrics."""
        events = self._detection_events()
        newly: List[Tuple[str, float]] = []
        for fault in self.fault_plane.log:
            if fault.detected_t is not None:
                continue
            horizon = fault.cleared_t
            for event in events:
                if event["t"] < fault.injected_t:
                    continue
                if horizon is not None and event["t"] > horizon:
                    continue
                if self._matches(fault, event):
                    fault.detected_t = event["t"]
                    start = max(
                        fault.injected_t,
                        self._gray_exposure_start.get(
                            fault.target, fault.injected_t
                        ),
                    )
                    latency = max(0.0, event["t"] - start)
                    self.detection_latencies.append(latency)
                    newly.append((fault.target, latency))
                    if self._latency_hist is not None:
                        self._latency_hist.observe(latency)
                    break
        return newly

    # -- judgement ----------------------------------------------------------

    def check(self, controller=None) -> List[Violation]:
        self.sync()
        if controller is None:
            controller = self.monitor.controller
        cfg = self.config
        now = self.monitor.clock.now_s
        violations: List[Violation] = []

        for fault in self.fault_plane.log:
            end = fault.cleared_t if fault.cleared_t is not None else now
            if fault.detected_t is None and fault.kind == GRAY:
                # Exposure only accrues while some VIP's traffic actually
                # traverses the gray path; dormant periods (the VIP was
                # rebalanced elsewhere) reset the clock.
                if fault.active and self._gray_dormant(fault, controller):
                    self._gray_exposure_start[fault.target] = now
                start = self._gray_exposure_start.get(
                    fault.target, fault.injected_t
                )
            else:
                start = fault.injected_t
            exposure = end - start
            if fault.detected_t is None:
                if exposure <= cfg.detection_budget_s:
                    # Flap (cleared early) or still within budget.
                    continue
                if self._gray_dormant(fault, controller):
                    continue
                violations.append(Violation(
                    "fault-detected",
                    f"{fault.kind} on {fault.target} injected at "
                    f"t={fault.injected_t:.3f}s never detected "
                    f"({exposure:.3f}s exposure, budget "
                    f"{cfg.detection_budget_s:.3f}s)",
                ))
                continue
            latency = fault.detected_t - max(
                fault.injected_t,
                self._gray_exposure_start.get(fault.target, fault.injected_t),
            )
            if latency > cfg.detection_budget_s:
                violations.append(Violation(
                    "detection-budget",
                    f"{fault.kind} on {fault.target} detected after "
                    f"{latency:.3f}s (budget {cfg.detection_budget_s:.3f}s)",
                ))

        violations.extend(self._check_stuck_quarantine(now))
        violations.extend(self._check_remediated(controller))
        violations.extend(self._check_false_positives())
        return violations

    def _check_stuck_quarantine(self, now: float) -> List[Violation]:
        cfg = self.config
        out: List[Violation] = []
        for key, track in self.monitor.detector.tracks.items():
            if track.kind != "switch":
                continue
            if track.state not in (HealthState.QUARANTINED, HealthState.PROBATION):
                continue
            fault = self.fault_plane.record_for(track.key)
            gray_active = any(
                sw == track.ident for sw, _ in self.fault_plane.gray
            )
            if fault is not None or gray_active:
                continue  # fault still active; quarantine is correct
            # How long has the target been faultless while quarantined?
            cleared = [
                rec.cleared_t for rec in self.fault_plane.log
                if rec.target == track.key and rec.cleared_t is not None
            ]
            since = max([track.entered_state_t] + cleared)
            if now - since > cfg.recovery_budget_s:
                out.append(Violation(
                    "no-stuck-quarantine",
                    f"{key} healthy since t={since:.3f}s but still "
                    f"{track.state.value} at t={now:.3f}s "
                    f"(budget {cfg.recovery_budget_s:.3f}s)",
                ))
        return out

    def _check_remediated(self, controller) -> List[Violation]:
        if controller is None:
            controller = self.monitor.controller
        out: List[Violation] = []
        for fault in self.fault_plane.log:
            if not fault.active or fault.detected_t is None:
                continue
            if fault.kind == SWITCH_SILENT:
                index = int(fault.target.split(":")[1])
                if index not in controller.failed_switches:
                    out.append(Violation(
                        "fault-remediated",
                        f"{fault.target} detected at t={fault.detected_t:.3f}s "
                        "but its routes are still announced",
                    ))
                elif fault.remediated_t is None:
                    fault.remediated_t = fault.detected_t
            elif fault.kind == SMUX_SILENT:
                smux_id = int(fault.target.split(":")[1])
                if any(s.smux_id == smux_id for s in controller.smuxes):
                    out.append(Violation(
                        "fault-remediated",
                        f"{fault.target} detected at t={fault.detected_t:.3f}s "
                        "but still in the SMux fleet",
                    ))
                elif fault.remediated_t is None:
                    fault.remediated_t = fault.detected_t
        return out

    def _check_false_positives(self) -> List[Violation]:
        out: List[Violation] = []
        for tr in self.monitor.detector.transitions[self._transitions_scanned:]:
            if tr["to"] != HealthState.QUARANTINED.value:
                continue
            if "adopted" in str(tr["detail"]):
                continue
            target = str(tr["target"])
            if not (target.startswith("switch:") or target.startswith("smux:")):
                continue
            t = float(tr["t"])
            covered = False
            for fault in self.fault_plane.log:
                # A fault "covers" a verdict from its injection until one
                # detection budget after it clears: evidence gathered
                # while the fault was live can legitimately ripen into a
                # verdict a few confirmation rounds after a flap ends.
                horizon = (
                    fault.cleared_t + self.config.detection_budget_s
                    if fault.cleared_t is not None else t
                )
                if fault.injected_t <= t <= horizon:
                    if fault.target == target:
                        covered = True
                        break
                    if fault.kind == GRAY and target == (
                        "switch:" + fault.target.split(":")[1]
                    ):
                        covered = True
                        break
            if not covered:
                fp = {"t": t, "target": target, "detail": tr["detail"]}
                self.false_positives.append(fp)
                if self._fp_counter is not None:
                    self._fp_counter.inc()
                out.append(Violation(
                    "no-false-positive",
                    f"{target} quarantined at t={t:.3f}s with no active "
                    f"injected fault ({tr['detail']})",
                ))
        self._transitions_scanned = len(self.monitor.detector.transitions)
        return out

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        lats = sorted(self.detection_latencies)
        median = lats[len(lats) // 2] if lats else None
        return {
            "faults_injected": len(self.fault_plane.log),
            "faults_detected": sum(
                1 for f in self.fault_plane.log if f.detected_t is not None
            ),
            "detection_latencies_s": lats,
            "median_detection_latency_s": median,
            "max_detection_latency_s": lats[-1] if lats else None,
            "false_positives": len(self.false_positives),
            "detection_budget_s": self.config.detection_budget_s,
            "recovery_budget_s": self.config.recovery_budget_s,
        }
