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
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.dataplane.batch import FORWARD_OK, HOST_REFUSED
from repro.health.faults import dip_key, gray_key, smux_key, switch_key
from repro.health.probes import HMUX


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


class HealthConfig:
    """The detector's tuning, as class-level constants; see
    docs/OPERATIONS.md ("Tuning the detector").  Every monitor runs
    ``HealthConfig()``; the instance only carries the class's values to
    the detector, the monitor and the scorecard."""

    probe_period_s = 0.003
    vip_probes_per_round = 1
    ewma_alpha = 0.35
    suspect_threshold = 0.45
    clear_threshold = 0.10
    consecutive_miss_fast = 3
    confirm_rounds = 2
    #: Evidence bar at confirmation time: quarantine needs a consecutive
    #: miss run or a near-saturated EWMA, not a lingering just-suspect
    #: score — scattered benign background drops can hold the EWMA above
    #: ``suspect_threshold`` without the target ever being down.
    confirm_threshold = 0.70
    quarantine_min_rounds = 4
    probation_entry_streak = 3
    probation_rounds = 4
    relapse_backoff = 2.0
    relapse_backoff_cap = 8.0
    gray_loss_threshold = 0.30
    gray_min_probes = 6
    #: Lost probes required in the evidence window before a gray verdict
    #: — a single unlucky probe must never trigger a migration.
    gray_min_losses = 3
    #: Rolling evidence window (in probed rounds) for the gray loss
    #: counts and the counter-corroboration fraction; half the detection
    #: budget so clean history ages out well before the budget expires.
    gray_window_rounds = 15
    gray_escalate_vips = 3
    #: Rounds after which a remediated gray (switch, VIP) pair may be
    #: flagged again (guards against verdict spam while migration heals).
    gray_cooldown_rounds = 40
    detection_budget_rounds = 30
    recovery_budget_rounds = 80

    @property
    def detection_budget_s(self) -> float:
        return self.detection_budget_rounds * self.probe_period_s

    @property
    def recovery_budget_s(self) -> float:
        return self.recovery_budget_rounds * self.probe_period_s


class _Track:
    """What every track does with a probe and a state change."""

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
class TargetTrack(_Track):
    """Mutable detector state for one switch or SMux."""

    key: str
    kind: str  # "switch" | "smux"
    ident: int
    state: HealthState = HealthState.HEALTHY
    ewma: float = 0.0
    consec_fail: int = 0
    consec_ok: int = 0
    rounds_in_state: int = 0
    entered_state_t: float = 0.0
    #: Effective quarantine dwell; doubles on relapse (capped).
    dwell_rounds: int = 0


_STATES = tuple(HealthState)
_CODE = {state: code for code, state in enumerate(_STATES)}
_HEALTHY, _SUSPECT, _RETIRED = (
    _CODE[HealthState.HEALTHY], _CODE[HealthState.SUSPECT],
    _CODE[HealthState.RETIRED],
)


class _DipTable:
    """Every DIP track's per-probe fields as columns, one slot per DIP
    (slots are never reused: a reaped DIP's track stays, retired)."""

    _COLUMNS = (
        ("ewma", np.float64), ("consec_fail", np.int64),
        ("consec_ok", np.int64), ("rounds_in_state", np.int64),
        ("state", np.int8), ("vip", np.int64),
    )

    def __init__(self) -> None:
        self.slot: Dict[int, int] = {}
        self.tracks: List["DipTrack"] = []
        for name, dtype in self._COLUMNS:
            setattr(self, name, np.zeros(16, dtype))

    def add(self, dip: int, track: "DipTrack") -> int:
        slot = len(self.tracks)
        if slot == self.ewma.size:
            for name, _ in self._COLUMNS:
                column = getattr(self, name)
                setattr(self, name, np.concatenate([column, np.zeros_like(column)]))
        self.slot[dip] = slot
        self.tracks.append(track)
        return slot


def _column(name: str):
    def get(track):
        return getattr(track.table, name)[track.slot].item()

    def put(track, value) -> None:
        getattr(track.table, name)[track.slot] = value

    return property(get, put)


class DipTrack(_Track):
    """One DIP's track: a row of the detector's :class:`_DipTable`, read
    and written through the attributes of :class:`TargetTrack`."""

    kind = "dip"
    ewma = _column("ewma")
    consec_fail = _column("consec_fail")
    consec_ok = _column("consec_ok")
    rounds_in_state = _column("rounds_in_state")
    vip = _column("vip")

    def __init__(
        self, table: _DipTable, key: str, ident: int, t: float, dwell_rounds: int,
    ) -> None:
        self.table = table
        self.slot = table.add(ident, self)
        table.state[self.slot] = _HEALTHY
        self.key = key
        self.ident = ident
        self.entered_state_t = t
        self.dwell_rounds = dwell_rounds

    @property
    def state(self) -> HealthState:
        return _STATES[self.table.state[self.slot]]

    @state.setter
    def state(self, state: HealthState) -> None:
        self.table.state[self.slot] = _CODE[state]


class GrayTrack:
    """Per-(switch, VIP) end-to-end loss evidence.

    All evidence is held in a *rolling window* of recent probed rounds
    (``gray_window_rounds``), not cumulative counters: a long clean
    history must not dilute fresh loss, or the corroboration fraction
    stays above the gate for longer than the detection budget.  The
    window's sums are kept running as entries enter and leave it.
    """

    __slots__ = ("ewma", "window", "last_round", "offered", "losses", "counted")

    def __init__(self) -> None:
        self.ewma = 0.0
        #: One entry per probed round: [offered, mux-level losses, packets
        #: ``duet_hmux_vip_packets_total`` counted during the round].  The
        #: counted column uses in-round registry deltas only, so concurrent
        #: workload traffic cannot pollute the comparison.
        self.window: Deque[List[float]] = deque()
        #: Round index of the last probe; a long gap (VIP served elsewhere,
        #: switch quarantined) makes the old evidence stale.
        self.last_round = 0
        self.offered = 0
        self.losses = 0
        self.counted = 0

    def open_round(self, keep: int, counted: float) -> None:
        """Start this round's entry, ``counted`` packets in it; the
        window keeps the last ``keep`` entries."""
        window = self.window
        if len(window) == keep:
            offered, losses, old = window.popleft()
            self.offered -= offered
            self.losses -= losses
            self.counted -= old
        window.append([0, 0, counted])
        self.counted += counted

    def probe(self, lost: bool) -> None:
        entry = self.window[-1]
        entry[0] += 1
        self.offered += 1
        if lost:
            entry[1] += 1
            self.losses += 1


class HealthDetector:
    """Consumes probe rounds, maintains per-target FSMs, emits verdicts."""

    def __init__(self, config: HealthConfig) -> None:
        self.config = config
        self.tracks: Dict[str, Union[TargetTrack, DipTrack]] = {}
        #: (kind, ident) -> the switch / SMux track of ``tracks``.
        self._mux_tracks: Dict[Tuple[str, int], TargetTrack] = {}
        self._dips = _DipTable()
        self.gray_tracks: Dict[Tuple[int, int], GrayTrack] = {}
        #: (switch, vip) -> round index when flagged; cooldown gate.
        self.gray_flagged: Dict[Tuple[int, int], int] = {}
        self.transitions: List[Dict[str, object]] = []
        self.rounds_seen = 0

    # -- track bookkeeping --------------------------------------------------

    def track(self, key: str) -> Optional[Union[TargetTrack, DipTrack]]:
        return self.tracks.get(key)

    def _track(
        self, key: str, kind: str, ident: int, t: float,
    ) -> Union[TargetTrack, DipTrack]:
        tr = self.tracks.get(key)
        if tr is None:
            dwell = self.config.quarantine_min_rounds
            if kind == "dip":
                tr = DipTrack(self._dips, key, ident, t, dwell)
            else:
                tr = self._mux_tracks[(kind, ident)] = TargetTrack(
                    key=key, kind=kind, ident=ident, entered_state_t=t,
                    dwell_rounds=dwell,
                )
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

    def _transition(self, tr, to: HealthState, t: float, detail: str = "") -> None:
        self.transitions.append({
            "t": t,
            "target": tr.key,
            "from": tr.state.value,
            "to": to.value,
            "detail": detail,
        })
        tr.enter(to, t)

    def state_counts(self) -> Dict[str, int]:
        table = self._dips
        per_code = np.bincount(
            table.state[:len(table.tracks)], minlength=len(_STATES),
        ).tolist()
        counts = {state.value: per_code[code] for code, state in enumerate(_STATES)}
        for tr in self._mux_tracks.values():
            counts[tr.state.value] += 1
        return counts

    # -- the round ----------------------------------------------------------

    def observe(
        self,
        round_,
        hmux_deltas: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> List[Verdict]:
        """Digest one :class:`~repro.health.probes.ProbeRound`.

        ``hmux_deltas`` maps (switch index, VIP) to how much
        ``duet_hmux_vip_packets_total`` advanced *during* this round's
        probes — the monitor snapshots the counters on both sides of
        the probe sweep so the delta is purely probe-driven.
        """
        t = round_.t
        self.rounds_seen += 1
        verdicts: List[Verdict] = []
        dip_failing = self._observe_dips(round_.dip, t, verdicts)
        alpha = self.config.ewma_alpha
        for kind, beats, key_of in (
            ("switch", round_.switch, switch_key), ("smux", round_.smux, smux_key),
        ):
            for ident, ok in zip(beats.ident.tolist(), beats.ok.tolist()):
                tr = self._mux_tracks.get((kind, ident)) \
                    or self._track(key_of(ident), kind, ident, t)
                if tr.state is HealthState.RETIRED:
                    continue
                tr.note(ok, alpha)
                verdicts.extend(self._step_mux(tr, t))
        verdicts.extend(
            self._observe_gray(round_.vip, dip_failing, hmux_deltas or {}, t)
        )
        return verdicts

    def _observe_dips(
        self, probes, t: float, verdicts: List[Verdict],
    ) -> Set[int]:
        """Count every DIP probe into its track in one pass over the
        columns, then step the state machine — in row order — for the
        rows that can transition: a SUSPECT track, or a HEALTHY one at
        the consecutive-miss bar.  A DIP probed twice in one round (a
        DIP registered on two hosts) is counted and stepped row by row.
        Returns the VIPs with a DIP failing its probe."""
        table = self._dips
        cfg = self.config
        # New DIPs get a track, in row order.
        slots = np.fromiter((
            table.slot[dip] if dip in table.slot
            else self._track(dip_key(dip), "dip", dip, t).slot
            for dip in probes.dip.tolist()
        ), np.int64, probes.dip.size)
        shared = np.bincount(slots)[slots] > 1
        alone = np.flatnonzero(~shared)
        table.vip[slots[alone]] = probes.vip[alone]
        rows = alone[table.state[slots[alone]] != _RETIRED]
        at = slots[rows]
        ok = probes.ok[rows]
        alpha = cfg.ewma_alpha
        table.ewma[at] = (1.0 - alpha) * table.ewma[at] + alpha * np.where(ok, 0.0, 1.0)
        table.consec_ok[at] = np.where(ok, table.consec_ok[at] + 1, 0)
        table.consec_fail[at] = np.where(ok, 0, table.consec_fail[at] + 1)
        table.rounds_in_state[at] += 1
        failing = set(probes.vip[rows[~ok]].tolist())
        state = table.state[at]
        stepped = rows[(state == _SUSPECT) | (
            (state == _HEALTHY)
            & (table.consec_fail[at] >= cfg.consecutive_miss_fast)
        )]
        for row in np.union1d(stepped, np.flatnonzero(shared)).tolist():
            tr = table.tracks[slots[row]]
            if shared[row]:
                vip = tr.vip = int(probes.vip[row])
                if tr.state is HealthState.RETIRED:
                    continue
                ok_row = bool(probes.ok[row])
                tr.note(ok_row, alpha)
                tr.rounds_in_state += 1
                if not ok_row:
                    failing.add(vip)
            verdicts.extend(self._step_dip(tr, t))
        return failing

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

    def _step_dip(self, tr: DipTrack, t: float) -> List[Verdict]:
        """One DIP's transition, its probe already counted (the round
        in its state included)."""
        cfg = self.config
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
        probes,
        dip_failing: Set[int],
        hmux_deltas: Dict[Tuple[int, int], float],
        t: float,
    ) -> List[Verdict]:
        cfg = self.config
        out: List[Verdict] = []
        alpha = cfg.ewma_alpha
        rounds = self.rounds_seen
        tracks = self.gray_tracks
        # Keys whose window holds enough losses: the only ones the gates
        # below can pass (losses only grow within a round).
        lossy: Set[Tuple[int, int]] = set()
        rows = np.flatnonzero(probes.mux_kind == HMUX)
        # Post-mux drops (host agent) are the DIP's fault; count the
        # probe as *delivered by the mux* for gray purposes.
        status = probes.status[rows]
        mux_ok = (status == FORWARD_OK) | (status == HOST_REFUSED)
        for switch, vip, ok in zip(
            probes.mux_ident[rows].tolist(), probes.vip[rows].tolist(),
            mux_ok.tolist(),
        ):
            key = (switch, vip)
            gt = tracks.get(key)
            if gt is None or rounds - gt.last_round > 2:
                # New, or the pair saw no probes for a while (VIP was
                # served elsewhere, switch was quarantined): evidence
                # gathered before the gap is stale — start a fresh window.
                gt = tracks[key] = GrayTrack()
            if gt.last_round != rounds or not gt.window:
                gt.open_round(cfg.gray_window_rounds, hmux_deltas.get(key, 0))
            gt.last_round = rounds
            gt.ewma = (1.0 - alpha) * gt.ewma + (alpha * (0.0 if ok else 1.0))
            gt.probe(not ok)
            if gt.losses >= cfg.gray_min_losses:
                lossy.add(key)

        for key in sorted(lossy):
            switch, vip = key
            gt = tracks[key]
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
            tracks[key] = GrayTrack()
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
