"""The columnar probe round against the round it replaced.

The oracle below is the object-per-probe round: the sweep builds one
frozen :class:`ProbeOutcome` per probe with a string target, the
detector parses each target back, keeps one :class:`TargetTrack` object
per DIP and re-sums each gray pair's window list, and the monitor counts
outcomes one probe at a time.  A monitor built from it runs beside the
product monitor on the same seeds; every round must leave the same
transitions, verdicts, timeline, ``duet_health_*`` series, track state
and gray-track evidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest

import repro.health
from repro.chaos import ChaosConfig, ChaosEngine, EventGenerator
from repro.chaos.engine import apply_event, build_controller
from repro.dataplane.batch import FORWARD_OK, HOST_REFUSED, FlowBatch
from repro.dataplane.packet import PROTO_TCP
from repro.health import (
    FaultPlane, HealthConfig, HealthMonitor, HealthState, Verdict, VerdictKind,
)
from repro.health.faults import dip_key, gray_key, smux_key, switch_key
from repro.health.remediation import RemediationLoop
from repro.net.addressing import format_ip
from repro.net.bgp import MuxKind
from repro.obs import MetricsRegistry
from repro.workload.vips import CLIENT_POOL
from tests.test_batch_differential import (
    _virtualized_controller, add_port_vip, assert_forward_batch_matches,
    open_snat_leases, traffic,
)

# -- the oracle: one object per probe ------------------------------------------


@dataclass(frozen=True)
class ProbeOutcome:
    kind: str
    target: str
    t: float
    ok: bool
    vip: Optional[int] = None
    mux_kind: Optional[str] = None
    mux_ident: Optional[int] = None
    post_mux: bool = False
    latency_s: Optional[float] = None


@dataclass
class OracleRound:
    t: float
    outcomes: List[ProbeOutcome] = field(default_factory=list)


class OracleScheduler:
    def __init__(self, controller, fault_plane, seed, vip_probes_per_round):
        self.controller = controller
        self.fault_plane = fault_plane
        self.rng = random.Random(seed ^ 0x9B0E)
        self.vip_probes_per_round = vip_probes_per_round
        self._seq = 0

    def _latency(self, kind):
        base = 150e-6 if kind is MuxKind.HMUX else 600e-6
        return base * (0.9 + 0.2 * self.rng.random())

    def probe_vips(self, vip_addrs, t, seq):
        n = len(vip_addrs)
        seqs = np.arange(seq, seq + n, dtype=np.uint64)
        fields = (
            CLIENT_POOL.network + 0x7000 + seqs % 251,
            np.asarray(vip_addrs, np.uint64), 20000 + seqs % 8191,
            np.full(n, 80), np.full(n, PROTO_TCP),
        )
        muxes = self.controller.resolve_batch(FlowBatch.from_fields(*fields))
        plane = self.fault_plane
        rows = np.flatnonzero([
            mux is not None and not (
                plane.hmux_drops(mux.ident, vip) if mux.kind is MuxKind.HMUX
                else plane.smux_drops(mux.ident)
            )
            for mux, vip in zip(muxes, vip_addrs)
        ])
        status = dict(zip(rows.tolist(), self.controller.forward_batch(
            FlowBatch.from_fields(*(column[rows] for column in fields))
        ).status.tolist()))
        outcomes = []
        for k, (mux, vip) in enumerate(zip(muxes, vip_addrs)):
            ok = status.get(k) == FORWARD_OK
            outcomes.append(ProbeOutcome(
                kind="vip", target=f"vip:{vip:#x}", t=t, ok=ok, vip=vip,
                mux_kind=None if mux is None else mux.kind.value,
                mux_ident=None if mux is None else mux.ident,
                post_mux=status.get(k) == HOST_REFUSED,
                latency_s=self._latency(mux.kind) if ok else None,
            ))
        return outcomes

    def run_round(self, t):
        controller = self.controller
        plane = self.fault_plane
        round_ = OracleRound(t=t)
        out = round_.outcomes
        out.extend(
            ProbeOutcome(kind="switch", target=switch_key(index), t=t,
                         ok=not plane.switch_heartbeat_drops(index))
            for index in sorted(controller.switch_agents)
        )
        out.extend(
            ProbeOutcome(kind="smux", target=smux_key(smux.smux_id), t=t,
                         ok=not plane.smux_heartbeat_drops(smux.smux_id))
            for smux in sorted(controller.smuxes, key=lambda s: s.smux_id)
        )
        records = controller.records()
        vip_dips = {addr: records[addr].dip_addrs() for addr in sorted(records)}
        dip_to_vip = {dip: addr for addr, dips in vip_dips.items() for dip in dips}
        for server in sorted(controller.host_agents):
            agent = controller.host_agents[server]
            for dip in sorted(agent.registered_dips()):
                vip = dip_to_vip.get(dip)
                if vip is not None:
                    out.append(ProbeOutcome(
                        kind="dip", target=dip_key(dip), t=t,
                        ok=dip not in agent.failed_dips(), vip=vip,
                    ))
        vips = [
            addr for addr in sorted(records)
            for _ in range(self.vip_probes_per_round)
        ]
        out.extend(self.probe_vips(vips, t, self._seq))
        self._seq += len(vips)
        return round_


@dataclass
class TargetTrack:
    key: str
    kind: str
    ident: int
    state: HealthState = HealthState.HEALTHY
    ewma: float = 0.0
    consec_fail: int = 0
    consec_ok: int = 0
    rounds_in_state: int = 0
    entered_state_t: float = 0.0
    dwell_rounds: int = 0
    vip: Optional[int] = None

    def note(self, ok, alpha):
        loss = 0.0 if ok else 1.0
        self.ewma = (1.0 - alpha) * self.ewma + alpha * loss
        if ok:
            self.consec_ok += 1
            self.consec_fail = 0
        else:
            self.consec_fail += 1
            self.consec_ok = 0

    def enter(self, state, t):
        self.state = state
        self.rounds_in_state = 0
        self.entered_state_t = t


@dataclass
class GrayTrack:
    ewma: float = 0.0
    window: List[List[float]] = field(default_factory=list)
    last_round: int = 0

    @property
    def offered(self):
        return int(sum(entry[0] for entry in self.window))

    @property
    def losses(self):
        return int(sum(entry[1] for entry in self.window))

    @property
    def counted(self):
        return sum(entry[2] for entry in self.window)


class OracleDetector:
    def __init__(self, config):
        self.config = config
        self.tracks: Dict[str, TargetTrack] = {}
        self.gray_tracks: Dict[Tuple[int, int], GrayTrack] = {}
        self.gray_flagged: Dict[Tuple[int, int], int] = {}
        self.transitions: List[Dict[str, object]] = []
        self.rounds_seen = 0

    def track(self, key):
        return self.tracks.get(key)

    def _track(self, key, kind, ident, t):
        tr = self.tracks.get(key)
        if tr is None:
            tr = TargetTrack(key=key, kind=kind, ident=ident, entered_state_t=t)
            tr.dwell_rounds = self.config.quarantine_min_rounds
            self.tracks[key] = tr
        return tr

    def retire(self, key, t):
        tr = self.tracks.get(key)
        if tr is not None and tr.state is not HealthState.RETIRED:
            self._transition(tr, HealthState.RETIRED, t, "removed from service")

    def adopt_quarantine(self, key, kind, ident, t):
        tr = self._track(key, kind, ident, t)
        if tr.state in (HealthState.HEALTHY, HealthState.SUSPECT):
            self._transition(tr, HealthState.QUARANTINED, t, "adopted external failure")

    def _transition(self, tr, to, t, detail=""):
        self.transitions.append({
            "t": t, "target": tr.key, "from": tr.state.value, "to": to.value,
            "detail": detail,
        })
        tr.enter(to, t)

    def state_counts(self):
        counts = {state.value: 0 for state in HealthState}
        for tr in self.tracks.values():
            counts[tr.state.value] += 1
        return counts

    def observe(self, round_, hmux_deltas=None):
        t = round_.t
        self.rounds_seen += 1
        verdicts: List[Verdict] = []
        dip_failing: Set[int] = set()
        by_kind = {"switch": [], "smux": [], "dip": [], "vip": []}
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
        for kind in ("switch", "smux"):
            for out in by_kind[kind]:
                tr = self._track(out.target, kind, int(out.target.split(":")[1]), t)
                if tr.state is HealthState.RETIRED:
                    continue
                tr.note(out.ok, self.config.ewma_alpha)
                verdicts.extend(self._step_mux(tr, t))
        verdicts.extend(
            self._observe_gray(by_kind["vip"], dip_failing, hmux_deltas, t)
        )
        return verdicts

    def _suspicious(self, tr):
        cfg = self.config
        return (
            tr.consec_fail >= cfg.consecutive_miss_fast
            or tr.ewma >= cfg.suspect_threshold
        )

    def _quiet(self, tr):
        return tr.ewma < self.config.clear_threshold and tr.consec_ok >= 2

    def _step_mux(self, tr, t):
        cfg = self.config
        tr.rounds_in_state += 1
        out = []
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
                    VerdictKind.QUARANTINE_SWITCH if tr.kind == "switch"
                    else VerdictKind.QUARANTINE_SMUX
                )
                out.append(Verdict(kind, tr.key, t, tr.ident, detail="liveness"))
        elif tr.state is HealthState.QUARANTINED:
            if tr.kind == "smux":
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

    def _step_dip(self, tr, t):
        cfg = self.config
        tr.rounds_in_state += 1
        out = []
        if tr.state is HealthState.HEALTHY:
            if tr.consec_fail >= cfg.consecutive_miss_fast:
                self._transition(
                    tr, HealthState.SUSPECT, t, f"{tr.consec_fail} misses"
                )
        elif tr.state is HealthState.SUSPECT:
            if tr.consec_ok >= 1:
                self._transition(tr, HealthState.HEALTHY, t, "flap suppressed")
            elif tr.rounds_in_state >= cfg.confirm_rounds:
                self._transition(tr, HealthState.QUARANTINED, t, "confirmed down")
                out.append(Verdict(
                    VerdictKind.QUARANTINE_DIP, tr.key, t, tr.ident,
                    vip=tr.vip, detail="host health probes failing",
                ))
        return out

    def _observe_gray(self, vip_outcomes, dip_failing, hmux_deltas, t):
        cfg = self.config
        out = []
        touched = set()
        for o in vip_outcomes:
            if o.mux_kind != "hmux" or o.mux_ident is None:
                continue
            key = (o.mux_ident, o.vip)
            gt = self.gray_tracks.get(key)
            if gt is None:
                gt = self.gray_tracks[key] = GrayTrack()
            elif self.rounds_seen - gt.last_round > 2:
                gt = self.gray_tracks[key] = GrayTrack()
            if gt.last_round != self.rounds_seen or not gt.window:
                gt.window.append([0.0, 0.0, 0.0])
                del gt.window[:-cfg.gray_window_rounds]
            gt.last_round = self.rounds_seen
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
            sw = self.tracks.get(switch_key(switch))
            if sw is None or sw.state is not HealthState.HEALTHY:
                continue
            if vip in dip_failing:
                continue
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
            self.gray_tracks[key] = GrayTrack()
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


class OracleMonitor(HealthMonitor):
    """The product monitor with the oracle's sweep, detector and
    per-probe bookkeeping in place of the columnar ones."""

    def __init__(self, controller, fault_plane, config=None, *, registry, seed=0):
        super().__init__(controller, fault_plane, config, registry=registry, seed=seed)
        self.network = self.scheduler = OracleScheduler(
            controller, fault_plane, seed, self.config.vip_probes_per_round,
        )
        self.detector = OracleDetector(self.config)
        self.remediation = RemediationLoop(controller, self.detector)

    def run_round(self):
        t = self.clock.advance(self.config.probe_period_s)
        self._adopt_external(t)

        def snapshot():
            return {
                (index, vip): packets
                for index, agent in self.controller.switch_agents.items()
                for vip, packets in agent.hmux.counters.per_vip_packets.items()
            }

        before = snapshot()
        round_ = self.scheduler.run_round(t)
        after = snapshot()
        deltas = {}
        for (index, vip), packets in after.items():
            moved = packets - before.get((index, vip), 0)
            if moved:
                deltas[(str(index), format_ip(vip))] = float(moved)
        probes: Dict[Tuple[str, str], int] = {}
        vip_outcomes: Dict[str, int] = {}
        rtts: List[float] = []
        for outcome in round_.outcomes:
            key = (outcome.kind, "ok" if outcome.ok else "drop")
            probes[key] = probes.get(key, 0) + 1
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
            vip_outcomes[result] = vip_outcomes.get(result, 0) + 1
            if outcome.latency_s is not None:
                rtts.append(outcome.latency_s)
        for (kind, result), count in probes.items():
            self._instruments["probes"].labels(kind, result).inc(count)
        for result, count in vip_outcomes.items():
            self._instruments["vip_outcomes"].labels(result).inc(count)
        if rtts:
            vip_rtt = self._instruments["vip_rtt"].labels()
            for seconds in rtts:
                vip_rtt.observe(seconds)
        self._instruments["rounds"].inc()
        verdicts = self.detector.observe(round_, deltas)
        self._bookkeep(verdicts, t)
        return verdicts

    def _bookkeep(self, verdicts, t):
        for tr in self.detector.transitions[self._transitions_seen:]:
            self.timeline.append({"type": "transition", **tr})
            self._instruments["transitions"].labels(tr["from"], tr["to"]).inc()
        self._transitions_seen = len(self.detector.transitions)
        self._unapplied.extend(verdicts)
        while self._unapplied:
            verdict = self._unapplied.popleft()
            self.timeline.append({
                "type": "verdict", "t": verdict.t, "kind": verdict.kind.value,
                "target": verdict.target, "detail": verdict.detail,
            })
            self._instruments["verdicts"].labels(verdict.kind.value).inc()
            actions_before = len(self.remediation.actions)
            self.remediation.apply(verdict, t)
            for action in self.remediation.actions[actions_before:]:
                self.timeline.append({"type": "remediation", **action})
                self._instruments["remediations"].labels(
                    action["op"], "ok" if action["ok"] else "error"
                ).inc()
        for tr in self.detector.transitions[self._transitions_seen:]:
            self.timeline.append({"type": "transition", **tr})
            self._instruments["transitions"].labels(tr["from"], tr["to"]).inc()
        self._transitions_seen = len(self.detector.transitions)


# -- the comparison -------------------------------------------------------------


def track_state(detector):
    return {
        key: (
            tr.kind, tr.ident, tr.state, tr.ewma, tr.consec_fail, tr.consec_ok,
            tr.rounds_in_state, tr.entered_state_t, tr.dwell_rounds,
            tr.vip if tr.kind == "dip" else None,
        )
        for key, tr in detector.tracks.items()
    }


def gray_evidence(detector):
    return {
        key: (
            gt.ewma, gt.last_round, gt.offered, gt.losses, gt.counted,
            [list(entry) for entry in gt.window],
        )
        for key, gt in detector.gray_tracks.items()
    }


def health_series(registry):
    return [
        (sample.name, sample.labels, sample.value)
        for instrument in registry.instruments()
        if instrument.name.startswith("duet_health_")
        for sample in instrument.samples()
    ]


def record_rounds(monitor, registry, log):
    """Wrap ``monitor.run_round`` to append what each round left."""
    run_round = monitor.run_round

    def recorded():
        verdicts = run_round()
        detector = monitor.detector
        log.append({
            "verdicts": verdicts,
            "transitions": list(detector.transitions),
            "timeline": list(monitor.timeline),
            "tracks": track_state(detector),
            "gray": gray_evidence(detector),
            "flagged": dict(detector.gray_flagged),
            "series": health_series(registry),
        })
        return verdicts

    monitor.run_round = recorded


def chaos_rounds(config, monitor_class, monkeypatch):
    """Every round of one chaos run, with ``monitor_class`` as the
    health monitor (crash-restarts rebind, never rebuild, the monitor)."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.health, "HealthMonitor", monitor_class)
        engine = ChaosEngine(config)
    log: List[dict] = []
    record_rounds(engine.monitor, engine.registry, log)
    report = engine.run()
    return log, report, engine


def stacked(seed):
    return ChaosConfig(
        seed=seed, n_events=20, n_vips=12, channel_loss=0.3,
        channel_delay=0.2, crash_prob=0.05, no_oracle=True, slo=True,
        background_loss=0.02,
    )


def assert_same_rounds(got, want, label):
    assert len(got) == len(want), label
    for index, (mine, theirs) in enumerate(zip(got, want)):
        for part in mine:
            assert mine[part] == theirs[part], (label, index, part)


def test_stacked_chaos_rounds_match_the_oracle(monkeypatch):
    rounds = crashes = verdicts = dip_tracks = 0
    for seed in range(20):
        got, report, engine = chaos_rounds(stacked(seed), HealthMonitor, monkeypatch)
        want, oracle_report, _ = chaos_rounds(stacked(seed), OracleMonitor, monkeypatch)
        assert_same_rounds(got, want, seed)
        assert report.health == oracle_report.health, seed
        rounds += len(got)
        crashes += engine.crashes
        verdicts += sum(len(entry["verdicts"]) for entry in got)
        dip_tracks += sum(key.startswith("dip:") for key in got[-1]["tracks"])
    # The corpus exercised what it claims to.
    assert rounds > 500 and crashes and verdicts and dip_tracks


def scripted_rounds(monitor_class, script, rounds=40, seed=0):
    """A monitor over a fresh controller, ``script(round, controller,
    plane)`` run before each round; every round's record."""
    controller = build_controller(ChaosConfig(seed=seed))
    registry = MetricsRegistry()
    plane = FaultPlane(seed=seed, background_loss=0.02)
    monitor = monitor_class(
        controller, plane, HealthConfig(), registry=registry, seed=seed,
    )
    log: List[dict] = []
    record_rounds(monitor, registry, log)
    for index in range(rounds):
        script(index, controller, plane)
        monitor.run_round()
    return log


def test_scripted_gray_failure_matches_the_oracle():
    def script(index, controller, plane):
        if index == 2:
            vip, record = next(
                (addr, record) for addr, record in sorted(controller.records().items())
                if record.assigned_switch is not None
            )
            plane.inject_gray(record.assigned_switch, vip, 0.8, t=index)

    got = scripted_rounds(HealthMonitor, script)
    assert_same_rounds(got, scripted_rounds(OracleMonitor, script), "gray")
    assert any(
        verdict.kind is VerdictKind.GRAY_VIP
        for entry in got for verdict in entry["verdicts"]
    )


def pooled_dip():
    """(VIP, its first DIP) of the first VIP with two DIPs, as
    :func:`scripted_rounds` builds the controller."""
    controller = build_controller(ChaosConfig(seed=0))
    return next(
        (vip, record.dips[0])
        for vip, record in sorted(controller.records().items())
        if len(record.dips) >= 2
    )


def set_health(controller, server, dip, healthy):
    agent = controller.host_agents[server]
    if dip in agent.registered_dips():
        agent.set_health(dip, healthy)


def test_dip_flap_matches_the_oracle():
    _, dip = pooled_dip()

    def script(index, controller, plane):
        # Down for three rounds (suspected), up (flap suppressed), then
        # down for good (reaped).
        down = 3 <= index < 6 or index >= 10
        set_health(controller, dip.server_id, dip.addr, not down)

    got = scripted_rounds(HealthMonitor, script)
    assert_same_rounds(got, scripted_rounds(OracleMonitor, script), "flap")
    details = [tr["detail"] for tr in got[-1]["transitions"]]
    assert "flap suppressed" in details and "confirmed down" in details


def test_dip_on_two_hosts_matches_the_oracle():
    """A DIP a second host still registers is probed twice a round; both
    rows go to one track, in row order."""
    vip, dip = pooled_dip()
    other = dip.server_id + 1

    def script(index, controller, plane):
        if index == 0:
            controller.host_agents[other].register_dip(dip.addr, vip)
        set_health(controller, dip.server_id, dip.addr, not 8 <= index < 14)
        set_health(controller, other, dip.addr, index < 3)

    got = scripted_rounds(HealthMonitor, script)
    assert_same_rounds(got, scripted_rounds(OracleMonitor, script), "twice")
    assert any(tr["to"] == "suspect" for tr in got[-1]["transitions"])


@pytest.mark.parametrize("seed", [1, 4])
def test_two_probes_per_vip_match_the_oracle(seed, monkeypatch):
    """Rows that share a gray pair within one round are counted in row
    order, as the oracle counts them."""
    class TwoProbes(HealthConfig):
        vip_probes_per_round = 2

    monkeypatch.setattr(repro.health, "HealthConfig", TwoProbes)
    config = stacked(seed)
    got, _, _ = chaos_rounds(config, HealthMonitor, monkeypatch)
    want, _, _ = chaos_rounds(config, OracleMonitor, monkeypatch)
    assert_same_rounds(got, want, seed)


# -- forward_batch's columnar tail ------------------------------------------------


def ordered_effects(controller):
    """What forwarding writes, in each dict's insertion order."""
    counters = [agent.hmux.counters for agent in controller.switch_agents.values()]
    counters += [smux.counters for smux in controller.smuxes]
    return (
        [(c, list(c.per_vip_packets.items())) for c in counters],
        [
            (server, [(vip, m.packets, m.bytes) for vip, m in agent.meters.items()])
            for server, agent in controller.host_agents.items()
        ],
    )


@pytest.mark.parametrize("virtualized", [False, True])
def test_untapped_forward_batch_matches_scalar(virtualized):
    """Untapped, ``forward_batch`` sums the common rows; per row and per
    device it must still match the scalar composition, dict order too
    (the tapped twin of this loop is ``test_forward_batch_differential``)."""
    rows = 0
    for seed in range(12 if not virtualized else 4):
        if virtualized:
            twins = [_virtualized_controller(seed) for _ in range(2)]
        else:
            twins = [build_controller(ChaosConfig(seed=seed, n_vips=10))
                     for _ in range(2)]
            if seed % 2:
                for twin in twins:
                    twin.channel.set_loss(0.3)
        scalar, batched = twins
        snat = []
        if not virtualized:
            for twin in twins:
                add_port_vip(twin)
                twin.rebalance()
                snat = open_snat_leases(twin)
        generator = EventGenerator(batched, seed=seed)
        rng = random.Random(seed)
        for _ in range(10):
            event = generator.next_event()
            for twin in twins:
                apply_event(twin, event)
            packets = traffic(batched, rng, snat)
            assert_forward_batch_matches(scalar, batched, packets)
            assert ordered_effects(scalar) == ordered_effects(batched), seed
            rows += len(packets)
    assert rows
