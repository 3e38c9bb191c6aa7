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

#: The testbed's ping cadence: every scenario probes each VIP every 3 ms.
PROBE_INTERVAL_S = 0.003
#: Background load on every mux of the Figure 12/13 and SMux-failure runs.
BACKGROUND_PPS = 60_000.0
#: When the Figure 12 and SMux-failure runs kill their mux.
FAIL_AT_S = 0.100


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
    seed: int,
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
        prober = PingProbe(vip, PROBE_INTERVAL_S, seed=seed ^ (vip << 1))
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

#: The Figure 11 testbed: 3 SMuxes, then one 10G HMux, under a 600K and
#: a 1.2M pps load of 512-byte packets.
CAPACITY_N_SMUXES = 3
CAPACITY_LOW_RATE_PPS = 600_000.0
CAPACITY_HIGH_RATE_PPS = 1_200_000.0
CAPACITY_PACKET_BYTES = 512
CAPACITY_HMUX_LINK_GBPS = 10.0


@dataclass(frozen=True)
class HMuxCapacityConfig:
    """The Figure 11 experiment: 11 VIPs (10 loaded, 1 probed), three
    phases — 600K pps on 3 SMuxes, 1.2M pps on 3 SMuxes, 1.2M pps on one
    HMux."""

    phase_seconds: float = 100.0
    seed: int = 0


def run_hmux_capacity(
    config: HMuxCapacityConfig = HMuxCapacityConfig(), *, recorder=None,
) -> ScenarioResult:
    """Reproduce Figure 11: per-probe latency over the three phases."""
    t1 = config.phase_seconds
    t2 = 2 * config.phase_seconds
    t3 = 3 * config.phase_seconds
    per_smux_low = CAPACITY_LOW_RATE_PPS / CAPACITY_N_SMUXES
    per_smux_high = CAPACITY_HIGH_RATE_PPS / CAPACITY_N_SMUXES

    route_table = VipRouteTable()
    fleet = _MuxFleet()
    vip = VIP_POOL.network + 11  # the unloaded, probed VIP

    for i in range(CAPACITY_N_SMUXES):
        ref = MuxRef.smux(i)
        fleet.add(ref, smux_station([
            LoadPhase(0.0, t1, per_smux_low),
            LoadPhase(t1, t2, per_smux_high),
        ]))
        for aggregate in SMUX_AGGREGATES:
            route_table.announce(aggregate, ref)
    hmux_ref = MuxRef.hmux(0)
    fleet.add(hmux_ref, hmux_station(
        [LoadPhase(t2, t3, CAPACITY_HIGH_RATE_PPS)],
        link_gbps=CAPACITY_HMUX_LINK_GBPS,
        packet_bytes=CAPACITY_PACKET_BYTES,
    ))

    # At t2 all VIPs move to the HMux: its /32 wins by LPM from then on.
    control = _TimedControl([
        (t2, lambda: route_table.announce(Prefix.host(vip), hmux_ref)),
    ])
    series = _run_probes(
        [("unloaded-vip", vip)], route_table, fleet, control,
        start_s=0.0, end_s=t3, seed=config.seed, recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_overload_s": t1, "t_hmux_s": t2},
    )


# ---------------------------------------------------------------------------
# Figure 12: availability during HMux failure
# ---------------------------------------------------------------------------

#: How long the Figure 12 run probes.
FAILOVER_DURATION_S = 0.220


def run_failover(seed: int = 0, *, recorder=None) -> ScenarioResult:
    """Reproduce Figure 12 (7 VIPs on HMuxes, 3 on SMuxes): VIP1 on SMux,
    VIP2 on a healthy HMux, VIP3 on the HMux that dies at
    :data:`FAIL_AT_S`."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = FAILOVER_DURATION_S
    vip1 = VIP_POOL.network + 1
    vip2 = VIP_POOL.network + 2
    vip3 = VIP_POOL.network + 3

    smux_ref = MuxRef.smux(0)
    fleet.add(smux_ref, smux_station(
        [LoadPhase(0.0, end, BACKGROUND_PPS)],
    ))
    for aggregate in SMUX_AGGREGATES:
        route_table.announce(aggregate, smux_ref)

    healthy_ref = MuxRef.hmux(1)
    failing_ref = MuxRef.hmux(2)
    for ref in (healthy_ref, failing_ref):
        fleet.add(ref, hmux_station(
            [LoadPhase(0.0, end, BACKGROUND_PPS)],
        ))
    route_table.announce(Prefix.host(vip2), healthy_ref)
    route_table.announce(Prefix.host(vip3), failing_ref)

    # The switch dies instantly; the routes only converge away after
    # detection + withdrawal propagation (~38 ms).
    recover_at = FAIL_AT_S + BgpTimings().failover_s
    fleet.kill(failing_ref, FAIL_AT_S)
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
        start_s=0.0, end_s=end, seed=seed, recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_fail_s": FAIL_AT_S, "t_recover_s": recover_at},
    )


# ---------------------------------------------------------------------------
# Figure 13: availability during VIP migration
# ---------------------------------------------------------------------------

#: When the Figure 13 controller commands its migrations, and how long
#: the run probes.
MIGRATION_T1_S = 0.200
MIGRATION_DURATION_S = 1.500


def run_migration(seed: int = 0, *, recorder=None) -> ScenarioResult:
    """Reproduce Figure 13, three concurrent migrations — VIP1
    HMux->SMux, VIP2 SMux->HMux, VIP3 HMux->HMux through SMux:
    make-before-break migration keeps every VIP answering probes
    throughout; only the serving mux (and hence the latency band)
    changes."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = MIGRATION_DURATION_S
    control_model = ControlPlaneModel(BgpTimings(), seed=seed)
    vip1 = VIP_POOL.network + 1
    vip2 = VIP_POOL.network + 2
    vip3 = VIP_POOL.network + 3

    smux_ref = MuxRef.smux(0)
    fleet.add(smux_ref, smux_station(
        [LoadPhase(0.0, end, BACKGROUND_PPS)],
    ))
    for aggregate in SMUX_AGGREGATES:
        route_table.announce(aggregate, smux_ref)
    hmux_a = MuxRef.hmux(1)
    hmux_b = MuxRef.hmux(2)
    for ref in (hmux_a, hmux_b):
        fleet.add(ref, hmux_station(
            [LoadPhase(0.0, end, BACKGROUND_PPS)],
        ))
    # Initial placement: VIP1 and VIP3 on HMux A; VIP2 on SMuxes only.
    route_table.announce(Prefix.host(vip1), hmux_a)
    route_table.announce(Prefix.host(vip3), hmux_a)

    # T1: the controller commands VIP1 and VIP3 off their HMux; the
    # withdrawals take effect after the FIB-dominated migration delay.
    t2 = MIGRATION_T1_S + control_model.migration_delay_s()
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
        start_s=0.0, end_s=end, seed=seed, recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t1_s": MIGRATION_T1_S, "t2_s": t2, "t3_s": t3},
    )


# ---------------------------------------------------------------------------
# S5.1: SMux failure (no paper figure, but a stated guarantee)
# ---------------------------------------------------------------------------

#: The SMux-failure run: a fleet of 3 SMuxes, probed for 250 ms.
SMUX_FAILURE_N_SMUXES = 3
SMUX_FAILURE_DURATION_S = 0.250


def run_smux_failure(seed: int = 0, *, recorder=None) -> ScenarioResult:
    """"SMux failure has no impact on VIPs assigned to HMux, and has
    only a small impact on VIPs that are assigned only to SMuxes" —
    switches detect it via BGP and ECMP re-spreads to the survivors.
    One SMux of the fleet dies; a VIP served by SMuxes sees at most a
    convergence blip on the flows hashed to the dead instance, and a VIP
    on an HMux sees nothing."""
    route_table = VipRouteTable()
    fleet = _MuxFleet()
    end = SMUX_FAILURE_DURATION_S
    vip_smux = VIP_POOL.network + 1
    vip_hmux = VIP_POOL.network + 2

    refs = [MuxRef.smux(i) for i in range(SMUX_FAILURE_N_SMUXES)]
    for ref in refs:
        fleet.add(ref, smux_station(
            [LoadPhase(0.0, end, BACKGROUND_PPS)],
        ))
        for aggregate in SMUX_AGGREGATES:
            route_table.announce(aggregate, ref)
    hmux_ref = MuxRef.hmux(1)
    fleet.add(hmux_ref, hmux_station(
        [LoadPhase(0.0, end, BACKGROUND_PPS)],
    ))
    route_table.announce(Prefix.host(vip_hmux), hmux_ref)

    dead = refs[0]
    recover_at = FAIL_AT_S + BgpTimings().failover_s
    fleet.kill(dead, FAIL_AT_S)
    control = _TimedControl([
        (recover_at, lambda: route_table.withdraw_all(dead)),
    ])
    series = _run_probes(
        [("vip-on-smux", vip_smux), ("vip-on-hmux", vip_hmux)],
        route_table, fleet, control,
        start_s=0.0, end_s=end, seed=seed, recorder=recorder,
    )
    return ScenarioResult(
        series=series,
        notes={"t_fail_s": FAIL_AT_S, "t_recover_s": recover_at},
    )
