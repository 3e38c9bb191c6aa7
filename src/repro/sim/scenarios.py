"""Testbed scenario drivers (paper S7, Figures 11-13).

Each scenario rebuilds one of the paper's testbed experiments on the
simulated substrate: mux queueing stations (:mod:`repro.sim.queueing`),
the real LPM route table (:mod:`repro.net.bgp`) driven by a timed event
list (so failover and migration happen through actual announce/withdraw
calls), and 3 ms ping probes measured into :class:`PingSeries`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.hashing import five_tuple_hash_batch
from repro.dataplane.packet import PROTO_ICMP
from repro.net.addressing import Prefix
from repro.net.bgp import (
    ROUTE_HASH_SALT,
    BgpTimings,
    MuxRef,
    RouteResolutionError,
    VipRouteTable,
)
from repro.sim.control import ControlPlaneModel
from repro.sim.pingmesh import PingSeries, ProbeResult
from repro.sim.queueing import (
    LoadPhase,
    LognormalLatency,
    MuxStation,
    hmux_station,
    smux_station,
)
from repro.workload.flowgen import PingProbe
from repro.workload.vips import SMUX_AGGREGATES, VIP_POOL

#: One-way testbed network latency (small lab fabric, a few hops).
TESTBED_NETWORK_RTT = LognormalLatency(120e-6, 180e-6)


class _TimedControl:
    """Applies control-plane events to the route table in time order."""

    def __init__(self, events: Sequence[Tuple[float, Callable[[], None]]]) -> None:
        self._events = sorted(events, key=lambda e: e[0])
        self._next = 0

    def advance(self, now_s: float) -> None:
        while self._next < len(self._events) and self._events[self._next][0] <= now_s:
            self._events[self._next][1]()
            self._next += 1


@dataclass
class ScenarioResult:
    """Ping series per VIP label plus scenario metadata."""

    series: Dict[str, PingSeries]
    notes: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, label: str) -> PingSeries:
        return self.series[label]


class _MuxFleet:
    """Stations for muxes, plus liveness (a dead mux answers nothing)."""

    def __init__(self) -> None:
        self.stations: Dict[MuxRef, MuxStation] = {}
        self.dead: Dict[MuxRef, float] = {}

    def add(self, ref: MuxRef, station: MuxStation) -> None:
        self.stations[ref] = station

    def kill(self, ref: MuxRef, at_s: float) -> None:
        self.dead[ref] = at_s

    def is_dead(self, ref: MuxRef, now_s: float) -> bool:
        died = self.dead.get(ref)
        return died is not None and now_s >= died

    def latency(self, ref: MuxRef, now_s: float, rng: random.Random) -> Optional[float]:
        if self.is_dead(ref, now_s):
            return None
        station = self.stations[ref]
        return station.latency_sample(now_s, rng)


#: RTT histogram buckets for scenario probes (testbed RTTs run from
#: ~100 µs on an HMux to milliseconds on an overloaded SMux).
_PROBE_RTT_BUCKETS = (
    0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05,
)

#: Scrape cadence while probing: one recorder tick per this many
#: lockstep rounds (plus a final tick), so a long scenario yields a
#: bounded time series instead of one point per probe.
_RECORDER_TICK_EVERY = 256


def _run_probes(
    targets: Sequence[Tuple[str, int]],
    route_table: VipRouteTable,
    fleet: _MuxFleet,
    control: _TimedControl,
    *,
    start_s: float,
    end_s: float,
    interval_s: float = 0.003,
    seed: int = 0,
    recorder=None,
) -> Dict[str, PingSeries]:
    """Drive probes to all targets through the (shared, mutating) route
    table in one merged time order, so every series sees the same
    control-plane evolution.

    Each stream's probe times and flow hashes are precomputed in one
    vectorized pass (no packet objects are built).  ``tests/test_flowgen``
    holds the times and ports to the packet-at-a-time generator, and the
    figure goldens re-run with the scalar ``five_tuple_hash`` swapped in.

    An optional :class:`repro.obs.registry.Recorder` turns the probe
    stream into registry series (probe counts per serving mux, drop
    counts, an RTT histogram per target) scraped every
    ``_RECORDER_TICK_EVERY`` lockstep rounds.  The instrumentation
    touches no RNG, so results are identical with and without it.
    """
    series = {label: PingSeries(vip, label) for label, vip in targets}
    rngs = {label: random.Random(seed ^ vip) for label, vip in targets}
    if recorder is not None:
        registry = recorder.registry
        m_probes = registry.counter(
            "duet_scenario_probes_total",
            "Scenario probes answered, by target and serving mux",
            ("target", "mux"),
        )
        m_drops = registry.counter(
            "duet_scenario_probe_drops_total",
            "Scenario probes lost, by target", ("target",),
        )
        m_rtt = registry.histogram(
            "duet_scenario_rtt_seconds",
            "Scenario probe round-trip time, by target", ("target",),
            buckets=_PROBE_RTT_BUCKETS,
        )
    else:
        m_probes = m_drops = m_rtt = None

    def probe_once(label: str, vip: int, t: float, flow_hash: int) -> None:
        control.advance(t)
        rng = rngs[label]
        try:
            mux = route_table.resolve(vip, flow_hash)
        except RouteResolutionError:
            series[label].add(ProbeResult(t, None, "none"))
            if m_drops is not None:
                m_drops.labels(label).inc()
            return
        added = fleet.latency(mux, t, rng)
        if added is not None:
            drop_p = fleet.stations[mux].drop_probability_at(t)
            if drop_p > 0.0 and rng.random() < drop_p:
                added = None
        if added is None:
            series[label].add(ProbeResult(t, None, mux.kind.value))
            if m_drops is not None:
                m_drops.labels(label).inc()
            return
        rtt = TESTBED_NETWORK_RTT.sample(rng) + added
        series[label].add(ProbeResult(t, rtt, mux.kind.value))
        if m_probes is not None:
            m_probes.labels(label, mux.kind.value).inc()
            m_rtt.labels(label).observe(rtt)

    # Resolve each stream's probe times and five-tuple hashes in one
    # vectorized pass, then replay them in lockstep order (the route
    # table mutates over time, so per-probe ordering is part of the
    # semantics).
    batched = []
    for label, vip in targets:
        prober = PingProbe(vip, interval_s, seed=seed ^ (vip << 1))
        times, src_ports = prober.probe_fields(start_s, end_s)
        n = len(times)
        hashes = five_tuple_hash_batch(
            np.full(n, prober.client_ip, np.uint64),
            np.full(n, vip, np.uint64),
            src_ports,
            np.full(n, 7, np.uint64),         # echo port
            np.full(n, PROTO_ICMP, np.uint64),
            ROUTE_HASH_SALT,
        )
        batched.append((label, vip, times, hashes))
    n_steps = max((len(t) for _, _, t, _ in batched), default=0)
    for step in range(n_steps):
        for label, vip, times, hashes in batched:
            if step < len(times):
                probe_once(label, vip, float(times[step]),
                           int(hashes[step]))
        if recorder is not None and step % _RECORDER_TICK_EVERY == 0:
            recorder.tick()
    if recorder is not None:
        recorder.tick()
    return series


# ---------------------------------------------------------------------------
# Figure 11: HMux capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HMuxCapacityConfig:
    """The Figure 11 experiment: 11 VIPs (10 loaded, 1 probed), three
    phases — 600K pps on 3 SMuxes, 1.2M pps on 3 SMuxes, 1.2M pps on one
    HMux."""

    n_smuxes: int = 3
    phase_seconds: float = 100.0
    low_rate_pps: float = 600_000.0
    high_rate_pps: float = 1_200_000.0
    packet_bytes: int = 512
    hmux_link_gbps: float = 10.0
    probe_interval_s: float = 0.003
    seed: int = 0


def run_hmux_capacity(
    config: HMuxCapacityConfig = HMuxCapacityConfig(), *, recorder=None,
) -> ScenarioResult:
    """Reproduce Figure 11: per-probe latency over the three phases."""
    t1 = config.phase_seconds
    t2 = 2 * config.phase_seconds
    t3 = 3 * config.phase_seconds
    per_smux_low = config.low_rate_pps / config.n_smuxes
    per_smux_high = config.high_rate_pps / config.n_smuxes

    route_table = VipRouteTable()
    fleet = _MuxFleet()
    vip = VIP_POOL.network + 11  # the unloaded, probed VIP

    for i in range(config.n_smuxes):
        ref = MuxRef.smux(i)
        fleet.add(ref, smux_station([
            LoadPhase(0.0, t1, per_smux_low),
            LoadPhase(t1, t2, per_smux_high),
        ]))
        for aggregate in SMUX_AGGREGATES:
            route_table.announce(aggregate, ref)
    hmux_ref = MuxRef.hmux(0)
    fleet.add(hmux_ref, hmux_station(
        [LoadPhase(t2, t3, config.high_rate_pps)],
        link_gbps=config.hmux_link_gbps,
        packet_bytes=config.packet_bytes,
    ))

    # At t2 all VIPs move to the HMux: its /32 wins by LPM from then on.
    control = _TimedControl([
        (t2, lambda: route_table.announce(Prefix.host(vip), hmux_ref)),
    ])
    series = _run_probes(
        [("unloaded-vip", vip)], route_table, fleet, control,
        start_s=0.0, end_s=t3,
        interval_s=config.probe_interval_s, seed=config.seed,
        recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_overload_s": t1, "t_hmux_s": t2},
    )


# ---------------------------------------------------------------------------
# Figure 12: availability during HMux failure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FailoverConfig:
    """The Figure 12 experiment: 7 VIPs on HMuxes, 3 on SMuxes; one
    switch is failed 100 ms in; probes every 3 ms."""

    fail_at_s: float = 0.100
    duration_s: float = 0.220
    background_pps: float = 60_000.0
    probe_interval_s: float = 0.003
    timings: BgpTimings = BgpTimings()
    seed: int = 0


def run_failover(
    config: FailoverConfig = FailoverConfig(), *, recorder=None,
) -> ScenarioResult:
    """Reproduce Figure 12: VIP1 on SMux, VIP2 on a healthy HMux, VIP3 on
    the HMux that dies at ``fail_at_s``."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = config.duration_s
    vip1 = VIP_POOL.network + 1
    vip2 = VIP_POOL.network + 2
    vip3 = VIP_POOL.network + 3

    smux_ref = MuxRef.smux(0)
    fleet.add(smux_ref, smux_station(
        [LoadPhase(0.0, end, config.background_pps)],
    ))
    for aggregate in SMUX_AGGREGATES:
        route_table.announce(aggregate, smux_ref)

    healthy_ref = MuxRef.hmux(1)
    failing_ref = MuxRef.hmux(2)
    for ref in (healthy_ref, failing_ref):
        fleet.add(ref, hmux_station(
            [LoadPhase(0.0, end, config.background_pps)],
        ))
    route_table.announce(Prefix.host(vip2), healthy_ref)
    route_table.announce(Prefix.host(vip3), failing_ref)

    # The switch dies instantly; the routes only converge away after
    # detection + withdrawal propagation (~38 ms).
    recover_at = config.fail_at_s + config.timings.failover_s
    fleet.kill(failing_ref, config.fail_at_s)
    control = _TimedControl([
        (recover_at, lambda: route_table.withdraw_all(failing_ref)),
    ])

    series = _run_probes(
        [
            ("vip1-smux", vip1),
            ("vip2-healthy-hmux", vip2),
            ("vip3-failed-hmux", vip3),
        ],
        route_table, fleet, control,
        start_s=0.0, end_s=end,
        interval_s=config.probe_interval_s, seed=config.seed,
        recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_fail_s": config.fail_at_s, "t_recover_s": recover_at},
    )


# ---------------------------------------------------------------------------
# Figure 13: availability during VIP migration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MigrationConfig:
    """The Figure 13 experiment: three concurrent migrations — VIP1
    HMux->SMux, VIP2 SMux->HMux, VIP3 HMux->HMux through SMux."""

    t1_s: float = 0.200
    duration_s: float = 1.500
    background_pps: float = 60_000.0
    probe_interval_s: float = 0.003
    timings: BgpTimings = BgpTimings()
    seed: int = 0


def run_migration(
    config: MigrationConfig = MigrationConfig(), *, recorder=None,
) -> ScenarioResult:
    """Reproduce Figure 13: make-before-break migration keeps every VIP
    answering probes throughout; only the serving mux (and hence the
    latency band) changes."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = config.duration_s
    control_model = ControlPlaneModel(config.timings, seed=config.seed)
    vip1 = VIP_POOL.network + 1
    vip2 = VIP_POOL.network + 2
    vip3 = VIP_POOL.network + 3

    smux_ref = MuxRef.smux(0)
    fleet.add(smux_ref, smux_station(
        [LoadPhase(0.0, end, config.background_pps)],
    ))
    for aggregate in SMUX_AGGREGATES:
        route_table.announce(aggregate, smux_ref)
    hmux_a = MuxRef.hmux(1)
    hmux_b = MuxRef.hmux(2)
    for ref in (hmux_a, hmux_b):
        fleet.add(ref, hmux_station(
            [LoadPhase(0.0, end, config.background_pps)],
        ))
    # Initial placement: VIP1 and VIP3 on HMux A; VIP2 on SMuxes only.
    route_table.announce(Prefix.host(vip1), hmux_a)
    route_table.announce(Prefix.host(vip3), hmux_a)

    # T1: the controller commands VIP1 and VIP3 off their HMux; the
    # withdrawals take effect after the FIB-dominated migration delay.
    t2 = config.t1_s + control_model.migration_delay_s()
    # T2: VIP2 and VIP3 are announced at their new HMuxes.
    t3 = t2 + control_model.migration_delay_s()
    control = _TimedControl([
        (t2, lambda: route_table.withdraw(Prefix.host(vip1), hmux_a)),
        (t2, lambda: route_table.withdraw(Prefix.host(vip3), hmux_a)),
        (t3, lambda: route_table.announce(Prefix.host(vip2), hmux_b)),
        (t3, lambda: route_table.announce(Prefix.host(vip3), hmux_b)),
    ])
    series = _run_probes(
        [
            ("vip1-hmux-to-smux", vip1),
            ("vip2-smux-to-hmux", vip2),
            ("vip3-hmux-to-hmux", vip3),
        ],
        route_table, fleet, control,
        start_s=0.0, end_s=end,
        interval_s=config.probe_interval_s, seed=config.seed,
        recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t1_s": config.t1_s, "t2_s": t2, "t3_s": t3},
    )


# ---------------------------------------------------------------------------
# S5.1: SMux failure (no paper figure, but a stated guarantee)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmuxFailureConfig:
    """"SMux failure has no impact on VIPs assigned to HMux, and has
    only a small impact on VIPs that are assigned only to SMuxes" —
    switches detect it via BGP and ECMP re-spreads to the survivors."""

    n_smuxes: int = 3
    fail_at_s: float = 0.100
    duration_s: float = 0.250
    background_pps: float = 60_000.0
    probe_interval_s: float = 0.003
    timings: BgpTimings = BgpTimings()
    seed: int = 0


def run_smux_failure(
    config: SmuxFailureConfig = SmuxFailureConfig(), *, recorder=None,
) -> ScenarioResult:
    """One SMux of the fleet dies; a VIP served by SMuxes sees at most a
    convergence blip on the flows hashed to the dead instance, and a VIP
    on an HMux sees nothing."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = config.duration_s
    vip_smux = VIP_POOL.network + 1
    vip_hmux = VIP_POOL.network + 2

    refs = [MuxRef.smux(i) for i in range(config.n_smuxes)]
    for ref in refs:
        fleet.add(ref, smux_station(
            [LoadPhase(0.0, end, config.background_pps)],
        ))
        for aggregate in SMUX_AGGREGATES:
            route_table.announce(aggregate, ref)
    hmux_ref = MuxRef.hmux(1)
    fleet.add(hmux_ref, hmux_station(
        [LoadPhase(0.0, end, config.background_pps)],
    ))
    route_table.announce(Prefix.host(vip_hmux), hmux_ref)

    dead = refs[0]
    recover_at = config.fail_at_s + config.timings.failover_s
    fleet.kill(dead, config.fail_at_s)
    control = _TimedControl([
        (recover_at, lambda: route_table.withdraw_all(dead)),
    ])
    series = _run_probes(
        [("vip-on-smux", vip_smux), ("vip-on-hmux", vip_hmux)],
        route_table, fleet, control,
        start_s=0.0, end_s=end,
        interval_s=config.probe_interval_s, seed=config.seed,
        recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_fail_s": config.fail_at_s, "t_recover_s": recover_at},
    )
