"""Tests for repro.dataplane.packet: encap/decap and rewrites."""

import pytest
from hypothesis import given, strategies as st

from repro.dataplane.packet import (
    DEFAULT_PACKET_BYTES,
    FiveTuple,
    IPV4_HEADER_BYTES,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketError,
    bps_to_pps,
    make_tcp_packet,
    pps_to_bps,
)
from repro.net.addressing import parse_ip

CLIENT = parse_ip("8.0.0.1")
VIP = parse_ip("10.0.0.1")
DIP = parse_ip("100.0.0.1")
MUX = parse_ip("172.16.0.1")


class TestFiveTuple:
    def test_reversed(self):
        flow = FiveTuple(CLIENT, VIP, 1234, 80, PROTO_TCP)
        rev = flow.reversed()
        assert rev.src_ip == VIP and rev.dst_ip == CLIENT
        assert rev.src_port == 80 and rev.dst_port == 1234
        assert rev.reversed() == flow

    def test_port_validation(self):
        with pytest.raises(PacketError):
            FiveTuple(CLIENT, VIP, 70000, 80, PROTO_TCP)
        with pytest.raises(PacketError):
            FiveTuple(CLIENT, VIP, 80, -1, PROTO_TCP)

    def test_protocol_validation(self):
        with pytest.raises(PacketError):
            FiveTuple(CLIENT, VIP, 80, 80, 300)

    def test_str_contains_addresses(self):
        text = str(FiveTuple(CLIENT, VIP, 1234, 80, PROTO_TCP))
        assert "8.0.0.1" in text and "10.0.0.1" in text


class TestEncapDecap:
    def test_bare_packet_routable_dst_is_inner(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80)
        assert packet.routable_dst == VIP
        assert not packet.is_encapsulated

    def test_encapsulate_sets_outer(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80).encapsulate(MUX, DIP)
        assert packet.routable_dst == DIP
        assert packet.outer[0].src_ip == MUX
        assert packet.encap_depth == 1

    def test_decapsulate_roundtrip(self):
        original = make_tcp_packet(CLIENT, VIP, 1234, 80)
        assert original.encapsulate(MUX, DIP).decapsulate() == original

    def test_double_encap_order(self):
        tip = parse_ip("172.16.0.9")
        packet = (
            make_tcp_packet(CLIENT, VIP, 1234, 80)
            .encapsulate(MUX, tip)      # first level
            .encapsulate(MUX, DIP)      # outermost
        )
        assert packet.routable_dst == DIP
        assert packet.decapsulate().routable_dst == tip

    def test_decapsulate_bare_raises(self):
        with pytest.raises(PacketError):
            make_tcp_packet(CLIENT, VIP, 1234, 80).decapsulate()

    def test_wire_bytes_counts_headers(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80)
        assert packet.wire_bytes == DEFAULT_PACKET_BYTES
        encapped = packet.encapsulate(MUX, DIP)
        assert encapped.wire_bytes == DEFAULT_PACKET_BYTES + IPV4_HEADER_BYTES

    def test_size_validation(self):
        with pytest.raises(PacketError):
            Packet(FiveTuple(CLIENT, VIP, 1, 2, PROTO_TCP), size_bytes=0)

    def test_packets_are_immutable(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80)
        encapped = packet.encapsulate(MUX, DIP)
        assert packet.encap_depth == 0
        assert encapped is not packet

    @given(st.integers(min_value=0, max_value=5))
    def test_encap_depth_matches_operations(self, depth):
        packet = Packet(FiveTuple(CLIENT, VIP, 1, 2, PROTO_UDP))
        for i in range(depth):
            packet = packet.encapsulate(MUX, DIP + i)
        assert packet.encap_depth == depth
        for _ in range(depth):
            packet = packet.decapsulate()
        assert packet.encap_depth == 0


class TestRewrites:
    def test_rewrite_dst(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80).rewrite_dst(DIP)
        assert packet.flow.dst_ip == DIP
        assert packet.flow.dst_port == 80

    def test_rewrite_dst_with_port(self):
        packet = make_tcp_packet(CLIENT, VIP, 1234, 80).rewrite_dst(DIP, 8080)
        assert packet.flow.dst_port == 8080

    def test_rewrite_src_dsr(self):
        reply = make_tcp_packet(DIP, CLIENT, 80, 1234).rewrite_src(VIP)
        assert reply.flow.src_ip == VIP
        assert reply.flow.src_port == 80

    def test_rewrite_preserves_other_fields(self):
        packet = Packet(FiveTuple(CLIENT, VIP, 5, 6, PROTO_UDP), size_bytes=99)
        out = packet.rewrite_dst(DIP)
        assert out.size_bytes == 99
        assert out.flow.protocol == PROTO_UDP


class TestRateConversions:
    def test_paper_smux_capacity(self):
        # "300K packets/sec ... translates to 3.6 Gbps for 1,500-byte
        # packets" (S2.2).
        assert pps_to_bps(300_000) == pytest.approx(3.6e9)

    def test_roundtrip(self):
        assert bps_to_pps(pps_to_bps(12345.0)) == pytest.approx(12345.0)

    def test_packet_size_matters(self):
        assert pps_to_bps(1000, 64) < pps_to_bps(1000, 1500)
