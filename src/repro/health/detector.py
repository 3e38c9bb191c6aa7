"""Suspicion scoring and the quarantine state machine.

Detection runs entirely on probe outcomes plus the metrics registry —
no oracle state.  Two signals feed per-target suspicion:

* an **EWMA loss score** (a discretised phi-accrual: instead of
  modelling inter-arrival times, each probe period contributes its
  loss indicator, smoothed by ``ewma_alpha``), and
* a **consecutive-miss fast path** so hard-down targets are caught in
  ``consecutive_miss_fast`` periods instead of waiting for the EWMA to
  saturate.

Both drive one state machine per target::

    healthy -> suspect -> quarantined -> probation -> healthy
                  \\______(suspicion clears)____________/

with hysteresis at every edge: distinct up (``suspect_threshold``) and
down (``clear_threshold``) thresholds, confirmation dwell before
quarantining, a minimum quarantine dwell plus success streak before
probation, a clean probation dwell before restore, and exponential
dwell backoff on relapse so a flapping device converges to mostly-out
instead of oscillating at probe frequency.

**Gray failures** — partial per-VIP loss on a switch whose liveness
heartbeats still pass — use a separate per-(switch, VIP) loss track
built from end-to-end VIP probes, cross-checked two ways before a
verdict:

* *DIP suppression*: if any DIP behind the VIP is currently failing its
  Ananta health probes, the loss is attributed to the DIP, not the
  switch.
* *Telemetry corroboration*: the offered-probe count is compared with
  ``duet_hmux_vip_packets_total`` from the obs registry.  Mux-level
  loss means packets vanished *before* the counter (counter flat while
  probes were offered); post-mux loss increments the counter first and
  is never blamed on the switch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.health.faults import gray_key, switch_key
from repro.net.addressing import format_ip


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBATION = "probation"
    #: Terminal: the target was removed from service (reaped DIP,
    #: decommissioned SMux) and will never be probed again.
    RETIRED = "retired"


class VerdictKind(enum.Enum):
    """What the detector wants the remediation loop to do."""

    QUARANTINE_SWITCH = "quarantine-switch"  # -> fail_switch (SMux fallback)
    PROBATION_SWITCH = "probation-switch"  # -> recover_switch
    RESTORE_SWITCH = "restore-switch"  # -> rebalance (re-home VIPs)
    REQUARANTINE_SWITCH = "requarantine-switch"  # probation failed -> fail_switch
    QUARANTINE_SMUX = "quarantine-smux"  # -> fail_smux (+ replacement)
    QUARANTINE_DIP = "quarantine-dip"  # -> dip_failure (reap)
    GRAY_VIP = "gray-vip"  # -> migrate_vip off the gray switch


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    target: str
    t: float
    #: Switch index / SMux id for mux verdicts; DIP address for DIP ones.
    ident: int
    #: The affected VIP for GRAY_VIP / QUARANTINE_DIP verdicts.
    vip: Optional[int] = None
    detail: str = ""


@dataclass
class HealthConfig:
    """Tuning knobs; see docs/OPERATIONS.md ("Tuning the detector")."""

    probe_period_s: float = 0.003
    vip_probes_per_round: int = 1
    ewma_alpha: float = 0.35
    suspect_threshold: float = 0.45
    clear_threshold: float = 0.10
    consecutive_miss_fast: int = 3
    confirm_rounds: int = 2
    #: Evidence bar at confirmation time: quarantine needs a consecutive
    #: miss run or a near-saturated EWMA, not a lingering just-suspect
    #: score — scattered benign background drops can hold the EWMA above
    #: ``suspect_threshold`` without the target ever being down.
    confirm_threshold: float = 0.70
    quarantine_min_rounds: int = 4
    probation_entry_streak: int = 3
    probation_rounds: int = 4
    relapse_backoff: float = 2.0
    relapse_backoff_cap: float = 8.0
    gray_loss_threshold: float = 0.30
    gray_min_probes: int = 6
    #: Lost probes required in the evidence window before a gray verdict
    #: — a single unlucky probe must never trigger a migration.
    gray_min_losses: int = 3
    #: Rolling evidence window (in probed rounds) for the gray loss
    #: counts and the counter-corroboration fraction; half the detection
    #: budget so clean history ages out well before the budget expires.
    gray_window_rounds: int = 15
    gray_escalate_vips: int = 3
    #: Rounds after which a remediated gray (switch, VIP) pair may be
    #: flagged again (guards against verdict spam while migration heals).
    gray_cooldown_rounds: int = 40
    detection_budget_rounds: int = 30
    recovery_budget_rounds: int = 80

    @property
    def detection_budget_s(self) -> float:
        return self.detection_budget_rounds * self.probe_period_s

    @property
    def recovery_budget_s(self) -> float:
        return self.recovery_budget_rounds * self.probe_period_s

    def to_dict(self) -> Dict[str, float]:
        return {
            "probe_period_s": self.probe_period_s,
            "vip_probes_per_round": self.vip_probes_per_round,
            "ewma_alpha": self.ewma_alpha,
            "suspect_threshold": self.suspect_threshold,
            "clear_threshold": self.clear_threshold,
            "consecutive_miss_fast": self.consecutive_miss_fast,
            "confirm_rounds": self.confirm_rounds,
            "confirm_threshold": self.confirm_threshold,
            "quarantine_min_rounds": self.quarantine_min_rounds,
            "probation_entry_streak": self.probation_entry_streak,
            "probation_rounds": self.probation_rounds,
            "relapse_backoff": self.relapse_backoff,
            "relapse_backoff_cap": self.relapse_backoff_cap,
            "gray_loss_threshold": self.gray_loss_threshold,
            "gray_min_probes": self.gray_min_probes,
            "gray_min_losses": self.gray_min_losses,
            "gray_window_rounds": self.gray_window_rounds,
            "gray_escalate_vips": self.gray_escalate_vips,
            "gray_cooldown_rounds": self.gray_cooldown_rounds,
            "detection_budget_rounds": self.detection_budget_rounds,
            "recovery_budget_rounds": self.recovery_budget_rounds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "HealthConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class TargetTrack:
    """Mutable detector state for one probe target."""

    key: str
    kind: str  # "switch" | "smux" | "dip"
    ident: int
    state: HealthState = HealthState.HEALTHY
    ewma: float = 0.0
    consec_fail: int = 0
    consec_ok: int = 0
    rounds_in_state: int = 0
    entered_state_t: float = 0.0
    #: Effective quarantine dwell; doubles on relapse (capped).
    dwell_rounds: int = 0
    vip: Optional[int] = None  # for DIP tracks

    def note(self, ok: bool, alpha: float) -> None:
        loss = 0.0 if ok else 1.0
        self.ewma = (1.0 - alpha) * self.ewma + alpha * loss
        if ok:
            self.consec_ok += 1
            self.consec_fail = 0
        else:
            self.consec_fail += 1
            self.consec_ok = 0

    def enter(self, state: HealthState, t: float) -> None:
        self.state = state
        self.rounds_in_state = 0
        self.entered_state_t = t


@dataclass
class GrayTrack:
    """Per-(switch, VIP) end-to-end loss evidence.

    All evidence is held in a *rolling window* of recent probed rounds
    (``gray_window_rounds``), not cumulative counters: a long clean
    history must not dilute fresh loss, or the corroboration fraction
    stays above the gate for longer than the detection budget.
    """

    ewma: float = 0.0
    #: One entry per probed round: [offered, mux-level losses, packets
    #: ``duet_hmux_vip_packets_total`` counted during the round].  The
    #: counted column uses in-round registry deltas only, so concurrent
    #: workload traffic cannot pollute the comparison.
    window: List[List[float]] = field(default_factory=list)
    #: Round index of the last probe; a long gap (VIP served elsewhere,
    #: switch quarantined) makes the old evidence stale.
    last_round: int = 0

    @property
    def offered(self) -> int:
        return int(sum(entry[0] for entry in self.window))

    @property
    def losses(self) -> int:
        return int(sum(entry[1] for entry in self.window))

    @property
    def counted(self) -> float:
        return sum(entry[2] for entry in self.window)


class HealthDetector:
    """Consumes probe rounds, maintains per-target FSMs, emits verdicts."""

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        self.tracks: Dict[str, TargetTrack] = {}
        self.gray_tracks: Dict[Tuple[int, int], GrayTrack] = {}
        #: (switch, vip) -> round index when flagged; cooldown gate.
        self.gray_flagged: Dict[Tuple[int, int], int] = {}
        self.transitions: List[Dict[str, object]] = []
        self.rounds_seen = 0

    # -- track bookkeeping --------------------------------------------------

    def track(self, key: str) -> Optional[TargetTrack]:
        return self.tracks.get(key)

    def _track(self, key: str, kind: str, ident: int, t: float) -> TargetTrack:
        tr = self.tracks.get(key)
        if tr is None:
            tr = TargetTrack(key=key, kind=kind, ident=ident, entered_state_t=t)
            tr.dwell_rounds = self.config.quarantine_min_rounds
            self.tracks[key] = tr
        return tr

    def retire(self, key: str, t: float) -> None:
        tr = self.tracks.get(key)
        if tr is not None and tr.state is not HealthState.RETIRED:
            self._transition(tr, HealthState.RETIRED, t, "removed from service")

    def adopt_quarantine(self, key: str, kind: str, ident: int, t: float) -> None:
        """An operator (not this detector) already failed the target:
        track it as quarantined so probation can bring it back, but do
        not count a detection."""
        tr = self._track(key, kind, ident, t)
        if tr.state in (HealthState.HEALTHY, HealthState.SUSPECT):
            self._transition(tr, HealthState.QUARANTINED, t, "adopted external failure")

    def _transition(
        self, tr: TargetTrack, to: HealthState, t: float, detail: str = ""
    ) -> None:
        self.transitions.append({
            "t": t,
            "target": tr.key,
            "from": tr.state.value,
            "to": to.value,
            "detail": detail,
        })
        tr.enter(to, t)

    def state_counts(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in HealthState}
        for tr in self.tracks.values():
            counts[tr.state.value] += 1
        return counts

    # -- the round ----------------------------------------------------------

    def observe(
        self,
        round_,
        hmux_deltas: Optional[Dict[Tuple[str, str], float]] = None,
    ) -> List[Verdict]:
        """Digest one :class:`~repro.health.probes.ProbeRound`.

        ``hmux_deltas`` maps (switch-label, vip-label) to how much
        ``duet_hmux_vip_packets_total`` advanced *during* this round's
        probes — the monitor snapshots the registry on both sides of
        the probe sweep so the delta is purely probe-driven.
        """
        t = round_.t
        self.rounds_seen += 1
        verdicts: List[Verdict] = []
        dip_failing: Set[int] = set()

        by_kind: Dict[str, List] = {"switch": [], "smux": [], "dip": [], "vip": []}
        for out in round_.outcomes:
            by_kind[out.kind].append(out)

        for out in by_kind["dip"]:
            tr = self._track(out.target, "dip", int(out.target.split(":")[1], 16), t)
            tr.vip = out.vip
            if tr.state is HealthState.RETIRED:
                continue
            tr.note(out.ok, self.config.ewma_alpha)
            if not out.ok or tr.consec_fail > 0:
                dip_failing.add(out.vip)
            verdicts.extend(self._step_dip(tr, t))

        for out in by_kind["switch"]:
            tr = self._track(out.target, "switch", int(out.target.split(":")[1]), t)
            if tr.state is HealthState.RETIRED:
                continue
            tr.note(out.ok, self.config.ewma_alpha)
            verdicts.extend(self._step_mux(tr, t))

        for out in by_kind["smux"]:
            tr = self._track(out.target, "smux", int(out.target.split(":")[1]), t)
            if tr.state is HealthState.RETIRED:
                continue
            tr.note(out.ok, self.config.ewma_alpha)
            verdicts.extend(self._step_mux(tr, t))

        verdicts.extend(
            self._observe_gray(by_kind["vip"], dip_failing, hmux_deltas, t)
        )

        return verdicts

    # -- mux state machine --------------------------------------------------

    def _suspicious(self, tr: TargetTrack) -> bool:
        cfg = self.config
        return (
            tr.consec_fail >= cfg.consecutive_miss_fast
            or tr.ewma >= cfg.suspect_threshold
        )

    def _quiet(self, tr: TargetTrack) -> bool:
        return tr.ewma < self.config.clear_threshold and tr.consec_ok >= 2

    def _step_mux(self, tr: TargetTrack, t: float) -> List[Verdict]:
        cfg = self.config
        tr.rounds_in_state += 1
        out: List[Verdict] = []

        if tr.state is HealthState.HEALTHY:
            if self._suspicious(tr):
                self._transition(tr, HealthState.SUSPECT, t, f"ewma={tr.ewma:.2f}")

        elif tr.state is HealthState.SUSPECT:
            if self._quiet(tr):
                self._transition(tr, HealthState.HEALTHY, t, "suspicion cleared")
            elif tr.rounds_in_state >= cfg.confirm_rounds and (
                tr.consec_fail >= cfg.consecutive_miss_fast
                or tr.ewma >= cfg.confirm_threshold
            ):
                self._transition(
                    tr, HealthState.QUARANTINED, t,
                    f"confirmed after {tr.rounds_in_state} rounds",
                )
                kind = (
                    VerdictKind.QUARANTINE_SWITCH
                    if tr.kind == "switch"
                    else VerdictKind.QUARANTINE_SMUX
                )
                out.append(Verdict(kind, tr.key, t, tr.ident, detail="liveness"))

        elif tr.state is HealthState.QUARANTINED:
            if tr.kind == "smux":
                # SMuxes are replaced, not rehabilitated: the remediation
                # loop retires the track once fail_smux lands.
                return out
            if (
                tr.rounds_in_state >= tr.dwell_rounds
                and tr.consec_ok >= cfg.probation_entry_streak
            ):
                self._transition(
                    tr, HealthState.PROBATION, t,
                    f"dwelled {tr.rounds_in_state} rounds, "
                    f"{tr.consec_ok} clean probes",
                )
                # Clean slate: the EWMA is still saturated from the dead
                # period, and probation must judge fresh evidence only —
                # otherwise one benign background drop relapses the track.
                tr.ewma = 0.0
                tr.consec_fail = 0
                out.append(Verdict(
                    VerdictKind.PROBATION_SWITCH, tr.key, t, tr.ident,
                    detail="probes recovered",
                ))

        elif tr.state is HealthState.PROBATION:
            if self._suspicious(tr):
                tr.dwell_rounds = min(
                    int(tr.dwell_rounds * cfg.relapse_backoff),
                    int(cfg.quarantine_min_rounds * cfg.relapse_backoff_cap),
                )
                self._transition(
                    tr, HealthState.QUARANTINED, t,
                    f"relapse; dwell now {tr.dwell_rounds} rounds",
                )
                out.append(Verdict(
                    VerdictKind.REQUARANTINE_SWITCH, tr.key, t, tr.ident,
                    detail="probation probes failing",
                ))
            elif tr.rounds_in_state >= cfg.probation_rounds:
                self._transition(tr, HealthState.HEALTHY, t, "probation complete")
                out.append(Verdict(
                    VerdictKind.RESTORE_SWITCH, tr.key, t, tr.ident,
                    detail="clean probation",
                ))
        return out

    # -- DIP state machine --------------------------------------------------

    def _step_dip(self, tr: TargetTrack, t: float) -> List[Verdict]:
        cfg = self.config
        tr.rounds_in_state += 1
        out: List[Verdict] = []
        if tr.state is HealthState.HEALTHY:
            if tr.consec_fail >= cfg.consecutive_miss_fast:
                self._transition(
                    tr, HealthState.SUSPECT, t, f"{tr.consec_fail} misses"
                )
        elif tr.state is HealthState.SUSPECT:
            if tr.consec_ok >= 1:
                # A flap: hysteresis saved the DIP from being reaped.
                self._transition(tr, HealthState.HEALTHY, t, "flap suppressed")
            elif tr.rounds_in_state >= cfg.confirm_rounds:
                self._transition(tr, HealthState.QUARANTINED, t, "confirmed down")
                out.append(Verdict(
                    VerdictKind.QUARANTINE_DIP, tr.key, t, tr.ident,
                    vip=tr.vip, detail="host health probes failing",
                ))
        return out

    # -- gray-failure detection --------------------------------------------

    def _observe_gray(
        self,
        vip_outcomes: List,
        dip_failing: Set[int],
        hmux_deltas: Optional[Dict[Tuple[str, str], float]],
        t: float,
    ) -> List[Verdict]:
        cfg = self.config
        out: List[Verdict] = []
        touched: Set[Tuple[int, int]] = set()

        for o in vip_outcomes:
            if o.mux_kind != "hmux" or o.mux_ident is None:
                continue
            key = (o.mux_ident, o.vip)
            gt = self.gray_tracks.get(key)
            if gt is None:
                gt = self.gray_tracks[key] = GrayTrack()
            elif self.rounds_seen - gt.last_round > 2:
                # The pair saw no probes for a while (VIP was served
                # elsewhere, switch was quarantined): evidence gathered
                # before the gap is stale — start a fresh window.
                gt = self.gray_tracks[key] = GrayTrack()
            if gt.last_round != self.rounds_seen or not gt.window:
                gt.window.append([0.0, 0.0, 0.0])
                del gt.window[:-cfg.gray_window_rounds]
            gt.last_round = self.rounds_seen
            # Post-mux drops (host agent) are the DIP's fault; count the
            # probe as *delivered by the mux* for gray purposes.
            mux_ok = o.ok or o.post_mux
            gt.ewma = (1.0 - cfg.ewma_alpha) * gt.ewma + (
                cfg.ewma_alpha * (0.0 if mux_ok else 1.0)
            )
            gt.window[-1][0] += 1
            if not mux_ok:
                gt.window[-1][1] += 1
            touched.add(key)

        if hmux_deltas:
            for key in touched:
                delta = hmux_deltas.get((str(key[0]), format_ip(key[1])))
                if delta:
                    self.gray_tracks[key].window[-1][2] += delta

        for key in sorted(touched):
            switch, vip = key
            gt = self.gray_tracks[key]
            if gt.offered < cfg.gray_min_probes:
                continue
            if gt.losses < cfg.gray_min_losses:
                continue
            if gt.ewma < cfg.gray_loss_threshold:
                continue
            flagged_at = self.gray_flagged.get(key)
            if (
                flagged_at is not None
                and self.rounds_seen - flagged_at < cfg.gray_cooldown_rounds
            ):
                continue
            # Only gray if the switch itself still answers heartbeats.
            sw = self.tracks.get(switch_key(switch))
            if sw is None or sw.state is not HealthState.HEALTHY:
                continue
            # DIP suppression: loss explainable by a failing DIP.
            if vip in dip_failing:
                continue
            # Telemetry corroboration: the registry counter must agree
            # that the mux processed materially fewer packets than the
            # prober offered (mux-level loss is invisible to counters;
            # post-mux loss is not).  A round without deltas counts
            # nothing and never vetoes.
            if gt.offered > 0:
                processed_fraction = gt.counted / gt.offered
                if processed_fraction > 1.0 - cfg.gray_loss_threshold / 2:
                    continue
            self.gray_flagged[key] = self.rounds_seen
            out.append(Verdict(
                VerdictKind.GRAY_VIP, gray_key(switch, vip), t, switch,
                vip=vip,
                detail=f"loss ewma={gt.ewma:.2f} over {gt.offered} probes",
            ))
            # Reset the evidence window after a verdict.
            self.gray_tracks[key] = GrayTrack()
            # Escalation: several gray VIPs on one switch means the
            # switch, not the VIP placement, is broken.
            recent = [
                k for k, r in self.gray_flagged.items()
                if k[0] == switch
                and self.rounds_seen - r < cfg.gray_cooldown_rounds
            ]
            if len(recent) >= cfg.gray_escalate_vips and sw.state is HealthState.HEALTHY:
                self._transition(
                    sw, HealthState.QUARANTINED, t,
                    f"gray escalation: {len(recent)} VIPs",
                )
                out.append(Verdict(
                    VerdictKind.QUARANTINE_SWITCH, sw.key, t, switch,
                    detail="gray escalation",
                ))
        return out
