"""Tests for repro.dataplane.hmux: the switch load-balancing pipeline."""

import pytest

from repro.dataplane.hmux import (
    HMux,
    HMuxAction,
    HMuxError,
    UnsupportedOperation,
)
from repro.dataplane.packet import make_tcp_packet
from repro.dataplane.tables import TableFullError
from repro.net.addressing import parse_ip
from repro.net.topology import SwitchTableSpec

SWITCH_IP = parse_ip("172.16.0.1")
VIP = parse_ip("10.0.0.1")
VIP2 = parse_ip("10.0.0.2")
DIPS = [parse_ip(f"100.0.0.{i}") for i in range(1, 5)]
CLIENT = parse_ip("8.0.0.1")


@pytest.fixture()
def hmux():
    return HMux(SWITCH_IP)


def packet(i=0, vip=VIP, port=80):
    return make_tcp_packet(CLIENT + i, vip, 1000 + i, port)


class TestEvolvedLayout:
    """`has_evolved_layout` tracks whether a VIP's ECMP group absorbed
    resilient DIP removals since its last fresh program — the signal
    the chaos flow-affinity tracker uses to mark non-transferable
    provenance."""

    def test_fresh_program_is_not_evolved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        assert not hmux.has_evolved_layout(VIP)

    def test_remove_dip_marks_evolved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        assert hmux.has_evolved_layout(VIP)

    def test_fresh_reprogram_clears_evolved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        hmux.remove_vip(VIP)
        hmux.program_vip(VIP, DIPS[1:])
        assert not hmux.has_evolved_layout(VIP)

    def test_remove_vip_clears_evolved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        hmux.remove_vip(VIP)
        assert not hmux.has_evolved_layout(VIP)

    def test_reset_clears_evolved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        hmux.reset()
        assert not hmux.has_evolved_layout(VIP)

    def test_tracked_per_vip(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.program_vip(VIP2, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        assert hmux.has_evolved_layout(VIP)
        assert not hmux.has_evolved_layout(VIP2)


class TestProgramming:
    def test_program_and_process(self, hmux):
        hmux.program_vip(VIP, DIPS)
        result = hmux.process(packet())
        assert result.action is HMuxAction.ENCAPSULATED
        assert result.selected_ip in DIPS
        assert result.packet.routable_dst == result.selected_ip
        assert result.packet.outer[0].src_ip == SWITCH_IP

    def test_inner_packet_preserved(self, hmux):
        hmux.program_vip(VIP, DIPS)
        original = packet()
        result = hmux.process(original)
        assert result.packet.decapsulate() == original

    def test_duplicate_vip_rejected(self, hmux):
        hmux.program_vip(VIP, DIPS)
        with pytest.raises(HMuxError):
            hmux.program_vip(VIP, DIPS)

    def test_empty_dips_rejected(self, hmux):
        with pytest.raises(HMuxError):
            hmux.program_vip(VIP, [])

    def test_no_match_passthrough(self, hmux):
        hmux.program_vip(VIP, DIPS)
        result = hmux.process(packet(vip=VIP2))
        assert result.action is HMuxAction.NO_MATCH
        assert not result.packet.is_encapsulated

    def test_remove_vip_frees_everything(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_vip(VIP)
        assert len(hmux.tunnel_table) == 0
        assert hmux.ecmp_table.used_entries == 0
        assert len(hmux.host_table) == 0
        assert hmux.process(packet()).action is HMuxAction.NO_MATCH

    def test_remove_unknown_vip(self, hmux):
        with pytest.raises(HMuxError):
            hmux.remove_vip(VIP)

    def test_table_accounting(self, hmux):
        hmux.program_vip(VIP, DIPS)
        assert len(hmux.tunnel_table) == len(DIPS)
        assert hmux.ecmp_table.used_entries == len(DIPS)
        assert len(hmux.host_table) == 1

    def test_vips_and_dips_introspection(self, hmux):
        hmux.program_vip(VIP, DIPS)
        assert hmux.vips() == [VIP]
        assert sorted(hmux.dips_of(VIP)) == sorted(DIPS)

    def test_n_slots_smaller_than_dips_rejected(self, hmux):
        with pytest.raises(HMuxError):
            hmux.program_vip(VIP, DIPS, n_slots=2)


class TestCapacityAndRollback:
    def test_tunnel_capacity_enforced(self):
        hmux = HMux(SWITCH_IP, SwitchTableSpec(tunnel_table=4))
        hmux.program_vip(VIP, DIPS)  # exactly 4
        with pytest.raises(TableFullError):
            hmux.program_vip(VIP2, [parse_ip("100.0.1.1")])

    def test_failed_program_leaves_no_residue(self):
        hmux = HMux(SWITCH_IP, SwitchTableSpec(tunnel_table=4))
        with pytest.raises(TableFullError):
            hmux.program_vip(VIP, DIPS + [parse_ip("100.0.1.1")])
        assert len(hmux.tunnel_table) == 0
        assert hmux.ecmp_table.used_entries == 0
        assert len(hmux.host_table) == 0

    def test_ecmp_exhaustion_rolls_back_tunnel(self):
        hmux = HMux(SWITCH_IP, SwitchTableSpec(ecmp_table=2, tunnel_table=512))
        with pytest.raises(TableFullError):
            hmux.program_vip(VIP, DIPS)  # needs 4 ECMP entries
        assert len(hmux.tunnel_table) == 0

    def test_host_table_exhaustion_rolls_back(self):
        hmux = HMux(SWITCH_IP, SwitchTableSpec(host_table=1))
        hmux.program_vip(VIP, DIPS[:1])
        with pytest.raises(TableFullError):
            hmux.program_vip(VIP2, DIPS[1:2])
        assert len(hmux.tunnel_table) == 1
        assert hmux.ecmp_table.used_entries == 1


class TestSelection:
    def test_flow_affinity(self, hmux):
        hmux.program_vip(VIP, DIPS)
        first = hmux.process(packet(7)).selected_ip
        for _ in range(5):
            assert hmux.process(packet(7)).selected_ip == first

    def test_flows_spread_over_dips(self, hmux):
        hmux.program_vip(VIP, DIPS, n_slots=64)
        chosen = {hmux.process(packet(i)).selected_ip for i in range(200)}
        assert chosen == set(DIPS)

    def test_wcmp_weighting(self, hmux):
        hmux.program_vip(VIP, DIPS[:2], weights=[3.0, 1.0], n_slots=64)
        hits = {DIPS[0]: 0, DIPS[1]: 0}
        for i in range(1000):
            hits[hmux.process(packet(i)).selected_ip] += 1
        assert hits[DIPS[0]] > hits[DIPS[1]] * 1.8


class TestDipRemoval:
    def test_remove_dip_resilient(self, hmux):
        hmux.program_vip(VIP, DIPS, n_slots=64)
        before = {i: hmux.process(packet(i)).selected_ip for i in range(300)}
        hmux.remove_dip(VIP, DIPS[2])
        for i, dip in before.items():
            if dip != DIPS[2]:
                assert hmux.process(packet(i)).selected_ip == dip
            else:
                assert hmux.process(packet(i)).selected_ip != DIPS[2]

    def test_remove_dip_frees_tunnel_entry(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[0])
        assert len(hmux.tunnel_table) == len(DIPS) - 1
        assert DIPS[0] not in hmux.dips_of(VIP)

    def test_remove_unknown_dip(self, hmux):
        hmux.program_vip(VIP, DIPS)
        with pytest.raises(HMuxError):
            hmux.remove_dip(VIP, parse_ip("100.9.9.9"))

    def test_remove_vip_after_dip_removal(self, hmux):
        hmux.program_vip(VIP, DIPS)
        hmux.remove_dip(VIP, DIPS[1])
        hmux.remove_vip(VIP)
        assert len(hmux.tunnel_table) == 0

    def test_add_dip_unsupported(self, hmux):
        """The S5.2 invariant: the hardware path cannot add a DIP."""
        hmux.program_vip(VIP, DIPS[:2])
        with pytest.raises(UnsupportedOperation):
            hmux.add_dip(VIP, DIPS[2])


class TestTipIndirection:
    """Large-fanout support (Figure 7): decap at the TIP switch and
    re-encapsulate toward the final DIP."""

    def test_tip_reencapsulates(self):
        front = HMux(SWITCH_IP)
        tip_switch = HMux(parse_ip("172.16.0.2"))
        tip = parse_ip("10.1.0.1")
        front.program_vip(VIP, [tip])
        tip_switch.program_vip(tip, DIPS, is_tip=True)

        original = packet()
        hop1 = front.process(original)
        assert hop1.selected_ip == tip
        hop2 = tip_switch.process(hop1.packet)
        assert hop2.action is HMuxAction.REENCAPSULATED
        assert hop2.selected_ip in DIPS
        assert hop2.packet.decapsulate() == original

    def test_tip_not_matched_for_bare_packets(self):
        tip_switch = HMux(SWITCH_IP)
        tip = parse_ip("10.1.0.1")
        tip_switch.program_vip(tip, DIPS, is_tip=True)
        result = tip_switch.process(packet(vip=tip))
        assert result.action is HMuxAction.NO_MATCH

    def test_foreign_encapsulated_packet_passthrough(self, hmux):
        hmux.program_vip(VIP, DIPS)
        encapped = packet().encapsulate(SWITCH_IP, DIPS[0])
        result = hmux.process(encapped)
        assert result.action is HMuxAction.NO_MATCH

    def test_large_fanout_via_partitions(self):
        """262,144 DIPs per VIP = 512 TIPs x 512 DIPs (S5.2)."""
        front = HMux(SWITCH_IP, SwitchTableSpec(tunnel_table=512))
        tips = [parse_ip("10.1.0.0") + i for i in range(512)]
        front.program_vip(VIP, tips)
        assert len(front.tunnel_table) == 512


class TestPortBasedRules:
    def test_port_rules_split_by_port(self, hmux):
        http_dips = DIPS[:2]
        ftp_dips = DIPS[2:]
        hmux.program_vip_port(VIP, 80, http_dips)
        hmux.program_vip_port(VIP, 21, ftp_dips)
        assert hmux.process(packet(port=80)).selected_ip in http_dips
        assert hmux.process(packet(port=21)).selected_ip in ftp_dips

    def test_acl_matches_before_host_table(self, hmux):
        hmux.program_vip(VIP, DIPS[:2])
        hmux.program_vip_port(VIP, 8080, DIPS[2:])
        assert hmux.process(packet(port=8080)).selected_ip in DIPS[2:]
        assert hmux.process(packet(port=80)).selected_ip in DIPS[:2]

    def test_unmatched_port_falls_through(self, hmux):
        hmux.program_vip_port(VIP, 80, DIPS[:2])
        result = hmux.process(packet(port=443))
        assert result.action is HMuxAction.NO_MATCH

    def test_remove_port_rule(self, hmux):
        hmux.program_vip_port(VIP, 80, DIPS[:2])
        hmux.remove_vip_port(VIP, 80)
        assert hmux.process(packet(port=80)).action is HMuxAction.NO_MATCH
        assert len(hmux.tunnel_table) == 0

    def test_duplicate_port_rule_rejected(self, hmux):
        hmux.program_vip_port(VIP, 80, DIPS[:2])
        with pytest.raises(HMuxError):
            hmux.program_vip_port(VIP, 80, DIPS[2:])


class TestVirtualizedClusters:
    """Figure 6: tunnel entries hold host IPs, repeated per VM."""

    def test_repeated_hips_allowed(self, hmux):
        hip1 = parse_ip("20.0.0.1")
        hip2 = parse_ip("20.0.0.2")
        hmux.program_vip(VIP, [hip1, hip1, hip2])
        assert len(hmux.tunnel_table) == 3
        targets = {hmux.process(packet(i)).selected_ip for i in range(100)}
        assert targets <= {hip1, hip2}

    def test_weighting_by_repetition(self, hmux):
        hip1 = parse_ip("20.0.0.1")
        hip2 = parse_ip("20.0.0.2")
        hmux.program_vip(VIP, [hip1, hip1, hip2], n_slots=63)
        hits = {hip1: 0, hip2: 0}
        for i in range(900):
            hits[hmux.process(packet(i)).selected_ip] += 1
        assert hits[hip1] > hits[hip2]


class TestCounters:
    def test_packet_counters(self, hmux):
        hmux.program_vip(VIP, DIPS)
        for i in range(5):
            hmux.process(packet(i))
        assert hmux.counters.packets == 5
        assert hmux.counters.per_vip_packets[VIP] == 5

    def test_no_match_counter(self, hmux):
        hmux.process(packet())
        assert hmux.counters.no_match == 1
