"""Tests for repro.dataplane.smux: the software Mux."""

import pytest

from repro.dataplane.hmux import HMux
from repro.dataplane.packet import make_tcp_packet
from repro.dataplane.smux import (
    SMUX_CAPACITY_BPS,
    SMUX_CAPACITY_PPS,
    SMux,
    SMuxError,
)
from repro.net.addressing import parse_ip

SMUX_IP = parse_ip("30.0.0.1")
VIP = parse_ip("10.0.0.1")
DIPS = [parse_ip(f"100.0.0.{i}") for i in range(1, 5)]
CLIENT = parse_ip("8.0.0.1")


@pytest.fixture()
def smux():
    mux = SMux(0, SMUX_IP)
    mux.set_vip(VIP, DIPS)
    return mux


def packet(i=0, vip=VIP):
    return make_tcp_packet(CLIENT + i, vip, 1000 + i, 80)


class TestCapacityConstants:
    def test_paper_values(self):
        assert SMUX_CAPACITY_PPS == 300_000
        assert SMUX_CAPACITY_BPS == pytest.approx(3.6e9)


class TestVipManagement:
    def test_set_and_process(self, smux):
        out = smux.process(packet())
        assert out is not None
        assert out.outer[0].dst_ip in DIPS
        assert out.outer[0].src_ip == SMUX_IP

    def test_unknown_vip_dropped(self, smux):
        assert smux.process(packet(vip=parse_ip("10.0.0.9"))) is None
        assert smux.counters.drops_no_vip == 1

    def test_empty_dips_rejected(self, smux):
        with pytest.raises(SMuxError):
            smux.set_vip(VIP, [])

    def test_remove_vip(self, smux):
        smux.remove_vip(VIP)
        assert not smux.has_vip(VIP)
        assert smux.process(packet()) is None

    def test_remove_unknown(self, smux):
        with pytest.raises(SMuxError):
            smux.remove_vip(parse_ip("10.0.0.9"))

    def test_weights_validation(self, smux):
        with pytest.raises(SMuxError):
            smux.set_vip(VIP, DIPS, weights=[1.0])

    def test_vips_listing(self, smux):
        assert smux.vips() == [VIP]
        assert smux.dips_of(VIP) == DIPS


class TestConnectionState:
    def test_flow_pinned(self, smux):
        first = smux.process(packet(3)).outer[0].dst_ip
        for _ in range(5):
            assert smux.process(packet(3)).outer[0].dst_ip == first
        assert smux.connection_count() == 1

    def test_dip_addition_preserves_connections(self, smux):
        """Ananta semantics (S5.2): connection state protects existing
        flows across DIP additions — which hardware cannot do."""
        pinned = {i: smux.process(packet(i)).outer[0].dst_ip for i in range(100)}
        smux.set_vip(VIP, DIPS + [parse_ip("100.0.0.99")])
        for i, dip in pinned.items():
            assert smux.process(packet(i)).outer[0].dst_ip == dip

    def test_dip_removal_drops_its_connections(self, smux):
        pinned = {i: smux.process(packet(i)).outer[0].dst_ip for i in range(100)}
        survivors = DIPS[1:]
        smux.set_vip(VIP, survivors)
        for i, dip in pinned.items():
            now = smux.process(packet(i)).outer[0].dst_ip
            if dip in survivors:
                assert now == dip
            else:
                assert now in survivors

    def test_vip_removal_clears_connections(self, smux):
        smux.process(packet())
        smux.remove_vip(VIP)
        assert smux.connection_count() == 0

    def test_expire_connection(self, smux):
        # A connection ends when its DIP leaves the pool.
        p = packet(1)
        dip = smux.process(p).outer[0].dst_ip
        smux.set_vip(VIP, [d for d in DIPS if d != dip])
        assert smux.pinned_dip(p.flow) is None
        assert smux.connection_count() == 0

    def test_pinned_dip_query(self, smux):
        p = packet(2)
        assert smux.pinned_dip(p.flow) is None
        out = smux.process(p)
        assert smux.pinned_dip(p.flow) == out.outer[0].dst_ip


class TestHashConsistency:
    """"All HMuxes and SMuxes use the same hash function to select DIPs
    for a given VIP" (S3.3.1): migrating a VIP between planes must not
    remap flows."""

    def test_smux_matches_hmux_selection(self):
        seed = 7
        hmux = HMux(parse_ip("172.16.0.1"), hash_seed=seed)
        smux = SMux(0, SMUX_IP, hash_seed=seed)
        hmux.program_vip(VIP, DIPS)
        smux.set_vip(VIP, DIPS)
        for i in range(200):
            p = packet(i)
            assert (
                hmux.process(p).selected_ip
                == smux.process(p).outer[0].dst_ip
            )

    def test_weighted_selection_matches(self):
        hmux = HMux(parse_ip("172.16.0.1"))
        smux = SMux(0, SMUX_IP)
        weights = [2.0, 1.0, 1.0]
        hmux.program_vip(VIP, DIPS[:3], weights=weights, n_slots=4)
        smux.set_vip(VIP, DIPS[:3], weights=weights)
        agree = sum(
            1 for i in range(300)
            if hmux.process(packet(i)).selected_ip
            == smux.process(packet(i)).outer[0].dst_ip
        )
        # WCMP expansion is identical (4 slots), so they agree exactly.
        assert agree == 300


class TestCounters:
    def test_packet_and_byte_counters(self, smux):
        for i in range(4):
            smux.process(packet(i))
        assert smux.counters.packets == 4
        assert smux.counters.bytes == 4 * 1500
        assert smux.counters.connections == 4

    def test_per_vip_packets(self, smux):
        vip2 = parse_ip("10.0.0.2")
        smux.set_vip(vip2, DIPS)
        for i in range(5):
            smux.process(packet(i))
        for i in range(3):
            smux.process(packet(i, vip=vip2))
        assert smux.counters.per_vip_packets == {VIP: 5, vip2: 3}

    def test_per_vip_packets_skips_drops(self, smux):
        smux.process(packet(vip=parse_ip("10.0.0.9")))
        assert smux.counters.per_vip_packets == {}

    def test_per_vip_packets_batch_matches_scalar(self, smux):
        from repro.dataplane.batch import BatchSMux, FlowBatch

        twin = SMux(1, SMUX_IP)
        twin.set_vip(VIP, DIPS)
        vip2 = parse_ip("10.0.0.2")
        smux.set_vip(vip2, DIPS)
        twin.set_vip(vip2, DIPS)
        packets = [packet(i, vip=VIP if i % 3 else vip2) for i in range(24)]
        for p in packets:
            smux.process(p)
        BatchSMux(twin).process(FlowBatch.from_packets(packets))
        assert twin.counters.per_vip_packets == smux.counters.per_vip_packets
        assert all(
            type(k) is int and type(v) is int
            for k, v in twin.counters.per_vip_packets.items()
        )
