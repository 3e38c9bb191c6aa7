"""Differential harness: the batched dataplane vs the scalar muxes.

Every test here follows the twin-mux pattern: two mux instances receive
*identical* programming, one processes packets through the scalar
``process`` path and the other through the batch engine, and the results
must be byte-identical — same actions, same output packets, same
selected targets, same counters, same connection tables.  Randomized
inputs come from a fixed-seed generator (the deterministic bulk sweep,
>1000 packets) and from Hypothesis (randomized topologies, VIP
populations, and failure states).
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.engine import ChaosConfig, apply_event, build_controller
from repro.chaos.events import EventGenerator
from repro.core.controller import DuetController, SimulatedCrash
from repro.dataplane import (
    ACTION_ENCAPSULATED,
    ACTION_NO_MATCH,
    BatchHMux,
    BatchSMux,
    FlowBatch,
    HMux,
    HMuxAction,
    HMuxResult,
    HostAgentError,
    SMux,
    five_tuple_hash,
)
from repro.dataplane.batch import FORWARD_OK, HOST_REFUSED, MUX_DROP, NO_ROUTE
from repro.dataplane.packet import (
    FiveTuple,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
)
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    harvest_dataplane,
)
from repro.net.addressing import format_ip
from repro.net.bgp import ROUTE_HASH_SALT, MuxKind, MuxRef, RouteResolutionError
from repro.net.topology import FatTreeParams, SwitchTableSpec, Topology
from repro.obs.tracing import PacketTap
from repro.workload.distributions import DipCountModel
from repro.workload.vips import (
    CLIENT_POOL,
    HOST_POOL,
    Dip,
    Vip,
    generate_population,
)

SWITCH_IP = 0x0A00_0001
SMUX_IP = 0x0A00_0101

#: Base addresses for generated VIPs / DIPs / TIPs (disjoint ranges so a
#: generated dst_ip never collides with a DIP address).
VIP_BASE = 0x64_0000_00
DIP_BASE = 0x0A_0001_00
TIP_BASE = 0x0A_00FF_00

#: Large-enough tables that programming never hits capacity errors.
BIG_TABLES = SwitchTableSpec(
    host_table=4096, ecmp_table=16384, tunnel_table=16384,
)

# Programming ops are (method name, args) pairs applied verbatim to both
# twins, so any drift between them is a test bug, not a mux bug.
Op = Tuple[str, tuple]


def make_twin_hmuxes(ops: Sequence[Op], seed: int = 0) -> Tuple[HMux, HMux]:
    twins = (
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=seed),
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=seed),
    )
    for mux in twins:
        for method, args in ops:
            getattr(mux, method)(*args)
    return twins


def make_twin_smuxes(ops: Sequence[Op], seed: int = 0) -> Tuple[SMux, SMux]:
    twins = (
        SMux(0, SMUX_IP, hash_seed=seed),
        SMux(1, SMUX_IP, hash_seed=seed),
    )
    for mux in twins:
        for method, args in ops:
            getattr(mux, method)(*args)
    return twins


def assert_hmux_equivalent(
    scalar: HMux, batched: HMux, packets: Sequence[Packet],
    engine: Optional[BatchHMux] = None,
) -> None:
    """Process ``packets`` scalar on one twin, batched on the other, and
    demand identical results and identical counter evolution."""
    expected = [scalar.process(p) for p in packets]
    engine = engine if engine is not None else BatchHMux(batched)
    got = engine.process(FlowBatch.from_packets(packets))
    assert len(got.action) == len(got.target) == len(expected)
    for i, want in enumerate(expected):
        have = lift_hmux_row(got, packets[i], i)
        assert have.action is want.action, f"row {i}: {have} != {want}"
        assert have.packet == want.packet, f"row {i}: {have} != {want}"
        assert have.selected_ip == want.selected_ip, f"row {i}"
    assert scalar.counters == batched.counters


def lift_hmux_row(got, packet: Packet, i: int) -> HMuxResult:
    """The scalar result row ``i`` of a batch HMux pass stands for."""
    code, target = int(got.action[i]), int(got.target[i])
    if code == ACTION_NO_MATCH:
        assert target == -1
        return HMuxResult(HMuxAction.NO_MATCH, packet)
    if code == ACTION_ENCAPSULATED:
        out = packet.encapsulate(SWITCH_IP, target)
        return HMuxResult(HMuxAction.ENCAPSULATED, out, target)
    out = packet.decapsulate().encapsulate(SWITCH_IP, target)
    return HMuxResult(HMuxAction.REENCAPSULATED, out, target)


def assert_smux_equivalent(
    scalar: SMux, batched: SMux, packets: Sequence[Packet],
    engine: Optional[BatchSMux] = None,
) -> None:
    expected = [scalar.process(p) for p in packets]
    engine = engine if engine is not None else BatchSMux(batched)
    got = engine.process(FlowBatch.from_packets(packets)).dip.tolist()
    assert [
        None if dip < 0 else packet.encapsulate(SMUX_IP, dip)
        for packet, dip in zip(packets, got)
    ] == expected
    assert scalar.counters == batched.counters
    assert dict(
        (f, scalar.pinned_dip(f)) for f in scalar.connections()
    ) == dict(
        (f, batched.pinned_dip(f)) for f in batched.connections()
    )


# ---------------------------------------------------------------------------
# Deterministic bulk sweep: >1000 randomized packets over a rich layout
# ---------------------------------------------------------------------------

def build_rich_hmux_twins() -> Tuple[HMux, HMux]:
    """Twins with a layout exercising every pipeline feature at once:
    plain VIPs, a WCMP VIP, virtualized-cluster repetition, TIPs,
    port-based ACL rules (one shadowing a host-table VIP), and resilient
    DIP removals on several of them."""
    twins = (
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=7),
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=7),
    )
    for mux in twins:
        for k in range(10):
            dips = [DIP_BASE + 16 * k + j for j in range(2 + (k % 8))]
            mux.program_vip(VIP_BASE + k, dips)
        mux.program_vip(
            VIP_BASE + 10,
            [DIP_BASE + 0xA0, DIP_BASE + 0xA1, DIP_BASE + 0xA2],
            [3.0, 2.0, 1.0],
        )
        mux.program_vip(
            VIP_BASE + 11,
            [DIP_BASE + 0xB0, DIP_BASE + 0xB0, DIP_BASE + 0xB1],
        )
        mux.program_vip(
            TIP_BASE + 0, [DIP_BASE + 0xC0 + j for j in range(4)],
            is_tip=True,
        )
        mux.program_vip(
            TIP_BASE + 1, [DIP_BASE + 0xD0 + j for j in range(6)],
            is_tip=True,
        )
        # Port rules; VIP_BASE+1:8080 shadows the host-table VIP.
        mux.program_vip_port(
            VIP_BASE + 1, 8080, [DIP_BASE + 0xE0, DIP_BASE + 0xE1],
        )
        mux.program_vip_port(
            VIP_BASE + 20, 443, [DIP_BASE + 0xE8 + j for j in range(3)],
        )
        # Resilient removals: evolved layouts on plain, WCMP and TIP VIPs.
        mux.remove_dip(VIP_BASE + 3, DIP_BASE + 16 * 3 + 1)
        mux.remove_dip(VIP_BASE + 7, DIP_BASE + 16 * 7 + 0)
        mux.remove_dip(VIP_BASE + 7, DIP_BASE + 16 * 7 + 4)
        mux.remove_dip(VIP_BASE + 10, DIP_BASE + 0xA1)
        mux.remove_dip(TIP_BASE + 0, DIP_BASE + 0xC2)
    return twins


def random_packet_mix(rng: random.Random, n: int) -> List[Packet]:
    """A mixed batch covering every pipeline branch."""
    packets: List[Packet] = []
    for _ in range(n):
        flow = FiveTuple(
            src_ip=rng.randrange(1 << 32),
            dst_ip=VIP_BASE + rng.randrange(24),  # hits + unknown VIPs
            src_port=rng.randrange(1024, 65536),
            dst_port=rng.choice([80, 443, 8080, 8081]),
            protocol=rng.choice([PROTO_TCP, PROTO_UDP]),
        )
        packet = Packet(flow, size_bytes=rng.randrange(64, 1501))
        roll = rng.random()
        if roll < 0.15:
            # Encapsulated toward a TIP (sometimes an unknown one).
            packet = packet.encapsulate(
                rng.randrange(1 << 32), TIP_BASE + rng.randrange(3),
            )
        elif roll < 0.20:
            # Encapsulated toward a non-TIP address: no-match branch.
            packet = packet.encapsulate(
                rng.randrange(1 << 32), DIP_BASE + rng.randrange(256),
            )
        elif roll < 0.23:
            # Deep encapsulation: the scalar-fallback branch.
            packet = packet.encapsulate(
                rng.randrange(1 << 32), TIP_BASE + rng.randrange(2),
            ).encapsulate(rng.randrange(1 << 32), TIP_BASE + rng.randrange(2))
        packets.append(packet)
    return packets


def test_hmux_bulk_differential() -> None:
    """The headline sweep: 4096 randomized packets through the rich
    layout — every branch (plain/WCMP/virtualized VIP, TIP re-encap,
    ACL shadowing, deep-encap fallback, evolved layouts) byte-identical
    to scalar."""
    scalar, batched = build_rich_hmux_twins()
    rng = random.Random(0xD0E7)
    assert_hmux_equivalent(scalar, batched, random_packet_mix(rng, 4096))


def test_hmux_differential_across_reprogramming() -> None:
    """One engine instance across interleaved traffic and programming:
    the layout caches must invalidate on every mutation."""
    scalar, batched = build_rich_hmux_twins()
    engine = BatchHMux(batched)
    rng = random.Random(0xBEEF)
    for round_no in range(6):
        assert_hmux_equivalent(
            scalar, batched, random_packet_mix(rng, 256), engine=engine,
        )
        # Mutate both twins identically between rounds (pick the victim
        # once — the twins' DIP lists are identical here).
        victim_vip = VIP_BASE + (round_no % 3)
        dips = scalar.dips_of(victim_vip)
        if len(dips) > 1:
            victim_dip = dips[rng.randrange(len(dips))]
            for mux in (scalar, batched):
                mux.remove_dip(victim_vip, victim_dip)
        if round_no == 2:
            for mux in (scalar, batched):
                mux.remove_vip(VIP_BASE + 9)
                mux.program_vip(
                    VIP_BASE + 30, [DIP_BASE + 0xF0, DIP_BASE + 0xF1],
                )
        if round_no == 4:
            for mux in (scalar, batched):
                mux.remove_vip_port(VIP_BASE + 1, 8080)


def test_hmux_reset_clears_batch_state() -> None:
    scalar, batched = build_rich_hmux_twins()
    engine = BatchHMux(batched)
    rng = random.Random(1)
    assert_hmux_equivalent(scalar, batched, random_packet_mix(rng, 64),
                           engine=engine)
    for mux in (scalar, batched):
        mux.reset()
    assert_hmux_equivalent(scalar, batched, random_packet_mix(rng, 64),
                           engine=engine)


def test_empty_batch() -> None:
    scalar, batched = build_rich_hmux_twins()
    assert_hmux_equivalent(scalar, batched, [])


# ---------------------------------------------------------------------------
# SMux differential
# ---------------------------------------------------------------------------

def build_rich_smux_twins() -> Tuple[SMux, SMux]:
    ops: List[Op] = []
    for k in range(8):
        dips = [DIP_BASE + 16 * k + j for j in range(1 + (k % 6))]
        ops.append(("set_vip", (VIP_BASE + k, dips)))
    ops.append(("set_vip", (VIP_BASE + 8,
                            [DIP_BASE + 0xA0, DIP_BASE + 0xA1,
                             DIP_BASE + 0xA2], [2.0, 1.0, 1.0])))
    ops.append(("set_vip_port", (VIP_BASE + 1, 8080,
                                 [DIP_BASE + 0xE0, DIP_BASE + 0xE1])))
    ops.append(("set_vip_port", (VIP_BASE + 9, 443,
                                 [DIP_BASE + 0xE8])))
    return make_twin_smuxes(ops, seed=7)


def smux_packet_mix(rng: random.Random, n: int) -> List[Packet]:
    packets = []
    for _ in range(n):
        flow = FiveTuple(
            src_ip=rng.randrange(1 << 24),  # small space -> flow repeats
            dst_ip=VIP_BASE + rng.randrange(12),
            src_port=rng.randrange(1024, 1024 + 64),
            dst_port=rng.choice([80, 443, 8080]),
            protocol=PROTO_TCP,
        )
        packets.append(Packet(flow, size_bytes=rng.randrange(64, 1501)))
    return packets


def test_smux_bulk_differential() -> None:
    """2048 packets from a deliberately small flow space, so many rows
    are repeat flows: pins must be created once and honoured after."""
    scalar, batched = build_rich_smux_twins()
    rng = random.Random(0x5EED)
    engine = BatchSMux(batched)
    for _ in range(2):
        assert_smux_equivalent(
            scalar, batched, smux_packet_mix(rng, 1024), engine=engine,
        )


def test_smux_differential_across_map_changes() -> None:
    """Map churn between batches: shrinking a pool drops exactly the
    pins on withdrawn DIPs, in both planes alike."""
    scalar, batched = build_rich_smux_twins()
    engine = BatchSMux(batched)
    rng = random.Random(0xCAFE)
    assert_smux_equivalent(scalar, batched, smux_packet_mix(rng, 512),
                           engine=engine)
    for mux in (scalar, batched):
        mux.set_vip(VIP_BASE + 2, [DIP_BASE + 32])       # shrink pool
        mux.set_vip(VIP_BASE + 5, [DIP_BASE + 0xF4,     # replace pool
                                   DIP_BASE + 0xF5])
        mux.remove_vip(VIP_BASE + 7)
        mux.remove_vip_port(VIP_BASE + 1, 8080)
    assert_smux_equivalent(scalar, batched, smux_packet_mix(rng, 512),
                           engine=engine)


def test_smux_expiry_invalidates_pin_cache() -> None:
    scalar, batched = build_rich_smux_twins()
    engine = BatchSMux(batched)
    rng = random.Random(3)
    packets = smux_packet_mix(rng, 128)
    assert_smux_equivalent(scalar, batched, packets, engine=engine)
    for flow in list(scalar.connections())[:10]:
        assert scalar.expire_connection(flow)
        assert batched.expire_connection(flow)
    assert_smux_equivalent(scalar, batched, packets, engine=engine)


# ---------------------------------------------------------------------------
# Hypothesis: randomized layouts, failure states and traffic
# ---------------------------------------------------------------------------

@st.composite
def hmux_scenario(draw):
    """A random layout + removal schedule + packet stream."""
    n_vips = draw(st.integers(1, 6))
    layouts = []
    for k in range(n_vips):
        n_dips = draw(st.integers(1, 8))
        weighted = draw(st.booleans())
        weights = (
            [float(draw(st.integers(1, 4))) for _ in range(n_dips)]
            if weighted else None
        )
        is_tip = draw(st.booleans()) if n_dips > 1 else False
        layouts.append((k, n_dips, weights, is_tip))
    # Removal schedule: (vip index, dip offset) — applied when legal.
    removals = draw(st.lists(
        st.tuples(st.integers(0, n_vips - 1), st.integers(0, 7)),
        max_size=6,
    ))
    flows = draw(st.lists(
        st.tuples(
            st.integers(0, (1 << 32) - 1),      # src ip
            st.integers(0, n_vips + 1),          # vip index (may miss)
            st.integers(1024, 65535),            # src port
            st.booleans(),                       # encapsulate toward vip?
        ),
        min_size=1, max_size=64,
    ))
    seed = draw(st.integers(0, 2 ** 16))
    return layouts, removals, flows, seed


@given(hmux_scenario())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_hmux_differential_property(scenario) -> None:
    layouts, removals, flows, seed = scenario
    twins = (
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=seed),
        HMux(SWITCH_IP, tables=BIG_TABLES, hash_seed=seed),
    )
    for mux in twins:
        for k, n_dips, weights, is_tip in layouts:
            mux.program_vip(
                VIP_BASE + k,
                [DIP_BASE + 16 * k + j for j in range(n_dips)],
                weights, is_tip=is_tip,
            )
        for vip_index, dip_offset in removals:
            vip = VIP_BASE + vip_index
            dips = mux.dips_of(vip)
            if len(dips) > 1:
                mux.remove_dip(vip, dips[dip_offset % len(dips)])
    packets = []
    for src_ip, vip_index, src_port, encap in flows:
        packet = Packet(FiveTuple(
            src_ip=src_ip, dst_ip=VIP_BASE + vip_index,
            src_port=src_port, dst_port=80, protocol=PROTO_TCP,
        ))
        if encap:
            packet = packet.encapsulate(src_ip, VIP_BASE + vip_index)
        packets.append(packet)
    assert_hmux_equivalent(*twins, packets)


@st.composite
def smux_scenario(draw):
    n_vips = draw(st.integers(1, 5))
    pools = []
    for k in range(n_vips):
        n_dips = draw(st.integers(1, 6))
        pools.append((k, n_dips))
    shrinks = draw(st.lists(st.integers(0, n_vips - 1), max_size=3))
    flows = draw(st.lists(
        st.tuples(
            st.integers(0, 255),                 # src ip (tiny: repeats)
            st.integers(0, n_vips),              # vip index (may miss)
            st.integers(1024, 1031),             # src port (tiny)
        ),
        min_size=1, max_size=80,
    ))
    seed = draw(st.integers(0, 2 ** 16))
    return pools, shrinks, flows, seed


@given(smux_scenario())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_smux_differential_property(scenario) -> None:
    pools, shrinks, flows, seed = scenario
    twins = (
        SMux(0, SMUX_IP, hash_seed=seed),
        SMux(1, SMUX_IP, hash_seed=seed),
    )
    for mux in twins:
        for k, n_dips in pools:
            mux.set_vip(
                VIP_BASE + k,
                [DIP_BASE + 16 * k + j for j in range(n_dips)],
            )
    packets = [
        Packet(FiveTuple(
            src_ip=src, dst_ip=VIP_BASE + vip_index,
            src_port=sport, dst_port=80, protocol=PROTO_TCP,
        ))
        for src, vip_index, sport in flows
    ]
    scalar, batched = twins
    engine = BatchSMux(batched)
    assert_smux_equivalent(scalar, batched, packets, engine=engine)
    for mux in twins:
        for k in shrinks:
            mux.set_vip(VIP_BASE + k, [DIP_BASE + 16 * k])
    assert_smux_equivalent(scalar, batched, packets, engine=engine)


# ---------------------------------------------------------------------------
# The stateful batch path stays in numpy
# ---------------------------------------------------------------------------

def test_stateful_batch_never_leaves_numpy(monkeypatch) -> None:
    """Tier-1 cannot time the engine, so it forbids the slow path
    instead: with every way of lifting a row out of a batch disabled, a
    pinning batch (new, established and repeated flows), an evicting
    ``set_vip`` and a second batch must still go through."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the stateful batch path left numpy")

    smux = SMux(0, SMUX_IP, hash_seed=7)
    pools = {
        VIP_BASE + k: [DIP_BASE + 16 * k + j for j in range(4)]
        for k in range(8)
    }
    for vip, dips in pools.items():
        smux.set_vip(vip, dips)
    smux.set_vip_port(VIP_BASE + 1, 8080, [DIP_BASE + 0xE0, DIP_BASE + 0xE1])
    engine = BatchSMux(smux)
    rng = np.random.default_rng(11)

    def batch(src_ip: np.ndarray) -> FlowBatch:
        return FlowBatch.from_fields(
            src_ip, VIP_BASE + src_ip % 9,              # VIP_BASE+8: no VIP
            1024 + src_ip % 50, np.where(src_ip % 3, 80, 8080),
            np.full(len(src_ip), PROTO_TCP),
        )

    for name in ("flow_at", "packet_at"):
        monkeypatch.setattr(FlowBatch, name, forbidden)
    monkeypatch.setattr(FiveTuple, "__init__", forbidden)

    established = rng.integers(0, 1 << 32, 1024, dtype=np.uint64)
    first = engine.process(batch(established)).dip
    fresh = rng.integers(0, 1 << 32, 2048, dtype=np.uint64)
    rows = np.concatenate([established, fresh, fresh[:1024]])
    assert len(rows) == 4096
    mixed = batch(rows)
    served = mixed.dst_ip != VIP_BASE + 8
    second = engine.process(mixed).dip
    assert np.array_equal(second[:1024], first)
    assert np.array_equal(second[3072:], second[1024:2048])     # repeats
    assert np.array_equal(second >= 0, served)
    distinct = len(np.unique(rows[served]))
    assert smux.connection_count() == smux.counters.connections == distinct

    # Withdraw two of VIP_BASE+2's four DIPs: exactly their pins go.
    vip, keep = VIP_BASE + 2, pools[VIP_BASE + 2][:2]
    hit = mixed.dst_ip == vip
    withdrawn = hit & ~np.isin(second, keep)
    assert withdrawn.any() and (hit & ~withdrawn).any()
    smux.set_vip(vip, keep)
    assert smux.connection_count() == distinct - len(np.unique(rows[withdrawn]))
    third = engine.process(mixed).dip
    assert np.array_equal(third[~withdrawn], second[~withdrawn])
    assert np.isin(third[withdrawn], keep).all()
    assert smux.connection_count() == distinct


# ---------------------------------------------------------------------------
# Controller level: affinity across DIP churn, migration, failover, crash
# ---------------------------------------------------------------------------

class _Twin:
    """A small journaled controller whose SMux traffic goes through
    ``BatchSMux`` engines (``batched``) or scalar ``SMux.process``."""

    def __init__(self, batched: bool) -> None:
        self.batched = batched
        self.controller = build_controller(
            ChaosConfig(seed=7, n_vips=8, n_smuxes=2)
        )
        self.controller.attach_journal(WriteAheadJournal(), snapshot_interval=64)
        self.engines: Dict[int, BatchSMux] = {}

    def forward(self, packets: Sequence[Packet]) -> List[int]:
        """The DIP each packet is encapsulated to, resolved the way the
        fabric would (``DuetController.forward`` minus the host agent)."""
        controller = self.controller
        dips: List[int] = [-1] * len(packets)
        via_smux: Dict[int, List[int]] = {}
        for i, packet in enumerate(packets):
            mux = controller.route_table.resolve(
                packet.flow.dst_ip,
                five_tuple_hash(packet.flow, controller.hash_seed ^ 0xECC),
            )
            if mux.kind is MuxKind.HMUX:
                hmux = controller.switch_agents[mux.ident].hmux
                dips[i] = hmux.process(packet).selected_ip
            else:
                via_smux.setdefault(mux.ident, []).append(i)
        for smux in controller.smuxes:
            rows = via_smux.get(smux.smux_id, [])
            if not self.batched:
                for i in rows:
                    dips[i] = smux.process(packets[i]).outer[0].dst_ip
                continue
            engine = self.engines.setdefault(smux.smux_id, BatchSMux(smux))
            assert engine.smux is smux      # warm restore keeps the object
            got = engine.process(
                FlowBatch.from_packets([packets[i] for i in rows])
            )
            for i, dip in zip(rows, got.dip.tolist()):
                dips[i] = dip
        return dips

    def crash_and_restore(self, op: Callable[[DuetController], None]) -> None:
        """Die inside ``op`` (an ``add_dip``, journaled but not yet
        applied), then warm-restart from the journal and reconcile."""
        self.controller.set_crash_hook(lambda label: label == "add_dip:update")
        with pytest.raises(SimulatedCrash):
            op(self.controller)
        self.controller = DuetController.restore(
            self.controller.journal,
            dataplane=harvest_dataplane(self.controller),
            topology=self.controller.topology,
        )
        AntiEntropyReconciler(self.controller).converge()

    def pins(self) -> Dict[int, Dict[FiveTuple, int]]:
        return {
            smux.smux_id: {f: smux.pinned_dip(f) for f in smux.connections()}
            for smux in self.controller.smuxes
        }


def test_controller_affinity_differential() -> None:
    """ROADMAP: the batch path is "differential-equal to today's scalar
    SMux across DIP churn, migration and crash-restart".  Two twins take
    the same control ops; after each, the same flows go through
    ``BatchSMux`` on one and ``SMux.process`` on the other."""
    scalar, batched = _Twin(batched=False), _Twin(batched=True)
    reference = scalar.controller
    hosted: Dict[int, List[int]] = {}
    for addr, record in sorted(reference.records().items()):
        if len(record.dips) >= 3:
            hosted.setdefault(record.assigned_switch, []).append(addr)
    # The switch that fails hosts two of the VIPs under test, so their
    # pool changes and the migration act on live SMux connection state.
    victim = max(hosted, key=lambda switch: len(hosted[switch]))
    shrunk, moved = hosted.pop(victim)[:2]
    grown = min(min(addrs) for addrs in hosted.values())
    elsewhere = next(
        i for i in sorted(reference.switch_agents)
        if i not in (victim, reference.vip_location(grown))
    )
    server = reference.record(grown).dips[0].server_id
    top = max(d.addr for r in reference.records().values() for d in r.dips)

    def new_dip(offset: int) -> Dip:
        return Dip(
            addr=top + offset, server_id=server,
            tor=reference.topology.server_tor(server),
        )

    steps: List[Tuple[str, Callable[[_Twin], None]]] = [
        ("add_dip", lambda t: t.controller.add_dip(grown, new_dip(1))),
        ("remove_dip", lambda t: t.controller.remove_dip(
            shrunk, t.controller.record(shrunk).dips[0].addr)),
        ("fail_switch", lambda t: t.controller.fail_switch(victim)),
        ("remove_dip on the backstop", lambda t: t.controller.remove_dip(
            shrunk, t.controller.record(shrunk).dips[0].addr)),
        ("add_dip on the backstop",
         lambda t: t.controller.add_dip(shrunk, new_dip(2))),
        ("migrate_vip", lambda t: t.controller.migrate_vip(moved, elsewhere)),
        ("recover_switch", lambda t: t.controller.recover_switch(victim)),
        ("crash in add_dip + restore", lambda t: t.crash_and_restore(
            lambda c: c.add_dip(shrunk, new_dip(3)))),
        ("remove_dip after restore", lambda t: t.controller.remove_dip(
            shrunk, t.controller.record(shrunk).dips[0].addr)),
    ]

    rng = random.Random(0xAFF1)
    vips = sorted(reference.records())
    packets = [
        Packet(FiveTuple(
            CLIENT_POOL.network + rng.randrange(1 << 12), rng.choice(vips),
            rng.randrange(1024, 1024 + 16), 80, PROTO_TCP,
        ))
        for _ in range(600)
    ]
    assert scalar.forward(packets) == batched.forward(packets)
    for name, step in steps:
        before = scalar.pins()
        for twin in (scalar, batched):
            step(twin)
        # Connection state outlives the op wherever its DIP does
        # (S3.3, S5.2) ...
        pools = {
            addr: {d.addr for d in record.dips}
            for addr, record in scalar.controller.records().items()
        }
        after = scalar.pins()
        for smux_id, held in before.items():
            for flow, dip in held.items():
                if dip in pools[flow.dst_ip]:
                    assert after[smux_id].get(flow) == dip, (name, flow)
        # ... and the batch engine serves and leaves exactly the state
        # the scalar path does.
        assert scalar.forward(packets) == batched.forward(packets), name
        assert scalar.pins() == batched.pins(), name
        for a, b in zip(scalar.controller.smuxes, batched.controller.smuxes):
            assert a.counters == b.counters, name
    assert any(scalar.pins().values())


# ---------------------------------------------------------------------------
# The product path: DuetController.forward_batch vs the scalar composition
# ---------------------------------------------------------------------------

def scalar_forward(
    controller: DuetController, packet: Packet, hops: Optional[list] = None,
) -> Tuple[Optional[MuxRef], int, int]:
    """The fabric one packet at a time, composed from the scalar parts:
    the LPM + ECMP route, ``HMux.process`` / ``SMux.process``, then
    ``HostAgent.receive``.  Returns (mux, DIP or -1, status); appends to
    ``hops`` what a tapped ``forward_batch`` records for the row."""
    hops = [] if hops is None else hops
    flow = packet.flow
    flow_hash = five_tuple_hash(flow, controller.hash_seed ^ ROUTE_HASH_SALT)
    try:
        mux = controller.route_table.resolve(flow.dst_ip, flow_hash)
    except RouteResolutionError:
        return None, -1, NO_ROUTE
    hops.append({"hop": "route.resolve", "mux": str(mux)})
    if mux.kind is MuxKind.HMUX:
        out = controller.switch_agents[mux.ident].hmux.process(packet).packet
        out = out if out.is_encapsulated else None
    else:
        smux = next(
            (s for s in controller.smuxes if s.smux_id == mux.ident), None,
        )
        out = None if smux is None else smux.process(packet)
    if out is None:
        return mux, -1, MUX_DROP
    target = out.outer[0].dst_ip
    hops.append({"hop": f"{mux.kind.value}.encap", "mux": str(mux),
                 "target": format_ip(target)})
    if controller.virtualized:
        server = target - HOST_POOL.network if HOST_POOL.contains(target) else None
    else:
        server = controller._dip_to_server.get(target)
    if server not in controller.host_agents:
        return mux, -1, MUX_DROP
    try:
        dip = controller.host_agents[server].receive(out).flow.dst_ip
    except HostAgentError:
        return mux, -1, HOST_REFUSED
    hops.append({"hop": "host.decap", "server": server})
    return mux, dip, FORWARD_OK


def device_state(controller: DuetController) -> dict:
    """Everything forwarding writes: mux counters, SMux pins and
    connection versions, host meters."""
    return {
        "hmux": {
            i: asdict(agent.hmux.counters)
            for i, agent in controller.switch_agents.items()
        },
        "smux": {
            s.smux_id: (
                asdict(s.counters), s.conn_version,
                {f: s.pinned_dip(f) for f in s.connections()},
            )
            for s in controller.smuxes
        },
        "host": {
            server: {v: (m.packets, m.bytes) for v, m in agent.meters.items()}
            for server, agent in controller.host_agents.items()
        },
    }


def add_port_vip(controller: DuetController) -> None:
    """A VIP with two port pools (Figure 8) on four fresh DIPs."""
    records = controller.records()
    top = max(d.addr for r in records.values() for d in r.dips)
    dips = tuple(
        Dip(addr=top + 1 + i, server_id=i,
            tor=controller.topology.server_tor(i))
        for i in range(4)
    )
    controller.add_vip(Vip(
        vip_id=1 + max(r.vip.vip_id for r in records.values()),
        addr=1 + max(records), dips=dips, traffic_bps=1e8,
        ingress_racks=(), internet_fraction=1.0,
        port_pools=((80, (dips[0].addr, dips[1].addr)),
                    (21, (dips[2].addr, dips[3].addr))),
    ))


def open_snat_leases(controller: DuetController) -> List[FiveTuple]:
    """SNAT one VIP and open an outbound lease per DIP; returns the
    return-traffic flows those leases expect (S5.2)."""
    vip = min(controller.records())
    controller.enable_snat(vip)
    flows = []
    for k, dip in enumerate(controller.record(vip).dips):
        lease = controller.host_agents[dip.server_id].open_outbound(
            dip.addr, CLIENT_POOL.network + 0x900 + k, 443, PROTO_TCP,
        )
        flows.append(FiveTuple(
            lease.remote_ip, vip, lease.remote_port, lease.vip_port, PROTO_TCP,
        ))
    return flows


def traffic(controller: DuetController, rng: random.Random,
            extra: Sequence[FiveTuple] = ()) -> List[Packet]:
    """Client flows to every VIP on three ports, from a small source
    space (so flows repeat across steps and meet their SMux pins), plus
    a blackholed address and ``extra``."""
    flows = [
        FiveTuple(CLIENT_POOL.network + rng.randrange(64), vip,
                  rng.randrange(1024, 1040), port, PROTO_TCP)
        for vip in sorted(controller.records()) for port in (80, 21, 443)
    ]
    # No route at all; no VIP behind the SMux aggregates.
    for dst in (0x7F000001, max(controller.records()) + 0x40):
        flows.append(FiveTuple(CLIENT_POOL.network, dst, 1024, 80, PROTO_TCP))
    return [Packet(flow) for flow in [*flows, *extra]]


def assert_forward_batch_matches(
    scalar: DuetController, batched: DuetController, packets: List[Packet],
) -> None:
    """One batch on ``batched``, the scalar composition on ``scalar``:
    per-row mux, DIP and status, tap hops, and every device effect."""
    tap = batched.tap
    seen = tap.seen if tap is not None else 0
    hops: List[list] = [[] for _ in packets]
    expected = [scalar_forward(scalar, p, h) for p, h in zip(packets, hops)]
    got = batched.forward_batch(FlowBatch.from_packets(packets))
    for i, (mux, dip, status) in enumerate(expected):
        row = (got.mux[i], int(got.dip[i]), int(got.status[i]))
        assert row == (mux, dip, status), (i, packets[i].flow)
        assert (i in got.errors) == (status != FORWARD_OK)
    assert device_state(scalar) == device_state(batched)
    if tap is not None:
        sampled = {r.index: r.hops for r in tap.records()}
        for i, want in enumerate(hops):
            if (seen + i) % tap.sample_every == 0:
                assert sampled[seen + i] == want, i


@pytest.mark.parametrize("virtualized", [False, True])
def test_forward_batch_differential(virtualized: bool) -> None:
    """Twins take the same chaos events (failed switches and links,
    degraded VIPs under programming faults, DIP flaps, SNAT, SMux
    churn); after each, the same traffic goes through ``forward_batch``
    on one and the scalar muxes and host agents on the other."""
    for seed in range(20 if not virtualized else 4):
        if virtualized:
            twins = [_virtualized_controller(seed) for _ in range(2)]
        else:
            config = ChaosConfig(seed=seed, n_vips=10,
                                 fail_prob=0.3 if seed % 2 else 0.0)
            twins = [build_controller(config) for _ in range(2)]
        scalar, batched = twins
        snat: List[FiveTuple] = []
        if not virtualized:
            for twin in twins:
                add_port_vip(twin)
                twin.rebalance()
                snat = open_snat_leases(twin)
        batched.attach_tap(PacketTap(sample_every=3, capacity=1 << 20))
        generator = EventGenerator(batched, seed=seed)
        rng = random.Random(seed)
        for step in range(12):
            event = generator.next_event()
            if step == 6:
                # A /32 from a switch that never programmed the VIP.
                event = generator.sabotage_event()
            for twin in twins:
                apply_event(twin, event)
            if step == 11:
                # Stale routes to an SMux the controller does not hold.
                for twin in twins:
                    table, ref = twin.route_table, MuxRef.smux(99)
                    for prefix in table.announced_by(MuxRef.smux(
                        twin.smuxes[0].smux_id
                    )):
                        table.announce(prefix, ref)
            assert_forward_batch_matches(
                scalar, batched, traffic(batched, rng, snat),
            )


def _virtualized_controller(seed: int) -> DuetController:
    topology = Topology(FatTreeParams(
        n_containers=2, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=6,
    ))
    population = generate_population(
        topology, n_vips=10, total_traffic_bps=8e9,
        dip_model=DipCountModel(median_large=8.0, max_dips=14), seed=seed,
    )
    controller = DuetController(
        topology, population, n_smuxes=2, virtualized=True, hash_seed=seed,
    )
    controller.run_initial_assignment()
    return controller


@st.composite
def batch_orders(draw):
    """A chaos seed, distinct flows, a permutation and a split point."""
    seed = draw(st.integers(0, 40))
    keys = draw(st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 31),
                  st.sampled_from([80, 21, 443])),
        unique=True, min_size=1, max_size=48,
    ))
    order = draw(st.permutations(range(len(keys))))
    split = draw(st.integers(0, len(keys)))
    return seed, keys, order, split


@given(batch_orders())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_forward_batch_is_order_independent(scenario) -> None:
    """Distinct flows do not interact: permuting a batch, or splitting
    it in two, gives every row the same mux, DIP, status and pre-batch
    pin, and leaves the devices in the same state."""
    seed, keys, order, split = scenario
    worlds = []
    for _ in range(3):
        controller = build_controller(ChaosConfig(seed=seed, n_vips=10))
        vips = sorted(controller.records())
        # Half the VIPs fall back to the SMuxes, so pins matter ...
        for switch in sorted({controller.vip_location(v) for v in vips[::2]}):
            controller.fail_switch(switch)
        # ... and some flows are pinned before the batch.
        warm = [Packet(FiveTuple(CLIENT_POOL.network + s, vips[v], 2000, p, 6))
                for v, s, p in keys[::3]]
        controller.forward_batch(FlowBatch.from_packets(warm))
        worlds.append(controller)
    packets = [
        Packet(FiveTuple(CLIENT_POOL.network + s, vips[v], 2000, p, 6))
        for v, s, p in keys
    ]

    def rows(result, index):
        return {
            i: (result.mux[k], int(result.dip[k]), int(result.status[k]),
                int(result.pin[k]))
            for k, i in enumerate(index)
        }

    whole = rows(worlds[0].forward_batch(FlowBatch.from_packets(packets)),
                 range(len(packets)))
    permuted = rows(worlds[1].forward_batch(
        FlowBatch.from_packets([packets[i] for i in order])), order)
    halves = {}
    for part in (range(split), range(split, len(packets))):
        halves.update(rows(worlds[2].forward_batch(
            FlowBatch.from_packets([packets[i] for i in part])), part))
    assert whole == permuted == halves
    assert device_state(worlds[0]) == device_state(worlds[1]) \
        == device_state(worlds[2])
