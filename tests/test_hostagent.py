"""Tests for repro.dataplane.hostagent: decap, DSR, VM selection, SNAT."""

import pytest

from repro.dataplane.hashing import five_tuple_hash
from repro.dataplane.hostagent import (
    HostAgent,
    HostAgentError,
    SnatConfig,
    SnatPortExhausted,
)
from repro.dataplane.packet import FiveTuple, PROTO_TCP, make_tcp_packet
from repro.net.addressing import parse_ip

HOST_IP = parse_ip("20.0.0.1")
VIP = parse_ip("10.0.0.1")
DIP = parse_ip("100.0.0.1")
DIP2 = parse_ip("100.0.0.2")
CLIENT = parse_ip("8.0.0.1")
MUX = parse_ip("172.16.0.1")


@pytest.fixture()
def agent():
    a = HostAgent(HOST_IP)
    a.register_dip(DIP, VIP)
    return a


def encapped(i=0, target=DIP):
    return make_tcp_packet(CLIENT + i, VIP, 1000 + i, 80).encapsulate(MUX, target)


class TestRegistration:
    def test_register_and_list(self, agent):
        assert agent.registrations() == {VIP: [DIP]}

    def test_duplicate_rejected(self, agent):
        with pytest.raises(HostAgentError):
            agent.register_dip(DIP, VIP)

    def test_unregister(self, agent):
        agent.unregister_dip(DIP)
        assert agent.registrations() == {}

    def test_unregister_unknown(self, agent):
        with pytest.raises(HostAgentError):
            agent.unregister_dip(DIP2)


class TestInboundPath:
    def test_decap_and_rewrite(self, agent):
        delivered = agent.receive(encapped())
        assert not delivered.is_encapsulated
        assert delivered.flow.dst_ip == DIP
        assert delivered.flow.src_ip == CLIENT

    def test_double_encap_stripped(self, agent):
        """Virtualized clusters / TIP: multiple outer headers (Figures
        6-7) are all removed at the host."""
        packet = encapped().encapsulate(MUX, HOST_IP)
        delivered = agent.receive(packet)
        assert not delivered.is_encapsulated
        assert delivered.flow.dst_ip == DIP

    def test_bare_packet_rejected(self, agent):
        with pytest.raises(Exception):
            agent.receive(make_tcp_packet(CLIENT, VIP, 1, 2))

    def test_vm_selection_by_hash(self, agent):
        """"If a host has multiple DIPs ... the HA selects the DIP by
        hashing the 5-tuple" (S5.2)."""
        agent.register_dip(DIP2, VIP)
        chosen = {
            agent.receive(encapped(i, target=HOST_IP)).flow.dst_ip for i in range(100)
        }
        assert chosen == {DIP, DIP2}

    def test_vm_selection_deterministic(self, agent):
        agent.register_dip(DIP2, VIP)
        a = agent.receive(encapped(7, target=HOST_IP)).flow.dst_ip
        b = agent.receive(encapped(7, target=HOST_IP)).flow.dst_ip
        assert a == b

    def test_unhealthy_dip_skipped(self, agent):
        agent.register_dip(DIP2, VIP)
        agent.set_health(DIP, healthy=False)
        for i in range(20):
            assert agent.receive(encapped(i, target=HOST_IP)).flow.dst_ip == DIP2

    def test_physical_target_delivered_exactly(self, agent):
        """When the mux encapsulated to a DIP address, the HA must
        deliver to that DIP — not re-hash among local DIPs (re-hashing
        would break the mux's resilient-hash guarantees)."""
        agent.register_dip(DIP2, VIP)
        for i in range(30):
            assert agent.receive(encapped(i, target=DIP2)).flow.dst_ip == DIP2

    def test_unhealthy_physical_target_rejected(self, agent):
        agent.set_health(DIP, healthy=False)
        with pytest.raises(HostAgentError):
            agent.receive(encapped(target=DIP))

    def test_no_healthy_dip_raises(self, agent):
        agent.set_health(DIP, healthy=False)
        with pytest.raises(HostAgentError):
            agent.receive(encapped())


class TestOutboundDsr:
    def test_src_rewritten_to_vip(self, agent):
        reply = make_tcp_packet(DIP, CLIENT, 80, 1234)
        out = agent.send(reply)
        assert out.flow.src_ip == VIP
        assert out.flow.dst_ip == CLIENT

    def test_unknown_dip_rejected(self, agent):
        with pytest.raises(HostAgentError):
            agent.send(make_tcp_packet(DIP2, CLIENT, 80, 1234))


class TestHealth:
    def test_health_report(self, agent):
        agent.register_dip(DIP2, VIP)
        agent.set_health(DIP2, healthy=False)
        report = agent.health_report()
        assert report == {DIP: True, DIP2: False}

    def test_set_health_unknown(self, agent):
        with pytest.raises(HostAgentError):
            agent.set_health(DIP2, healthy=True)

    def test_recovery(self, agent):
        agent.set_health(DIP, healthy=False)
        agent.set_health(DIP, healthy=True)
        assert agent.health_report()[DIP]


class TestSnat:
    N_SLOTS = 8
    MY_SLOTS = (2, 5)

    def configure(self, agent):
        agent.configure_snat(DIP, SnatConfig(
            vip=VIP,
            n_slots=self.N_SLOTS,
            my_slots=self.MY_SLOTS,
            port_range=(1024, 4096),
        ))

    def test_lease_port_hashes_to_my_slot(self, agent):
        """The SNAT trick (S5.2): the chosen port makes the *return*
        five-tuple hash onto an ECMP slot pointing back at this DIP."""
        self.configure(agent)
        lease = agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)
        return_flow = FiveTuple(CLIENT, VIP, 443, lease.vip_port, PROTO_TCP)
        assert five_tuple_hash(return_flow) % self.N_SLOTS in self.MY_SLOTS

    def test_leases_use_distinct_ports(self, agent):
        self.configure(agent)
        ports = {
            agent.open_outbound(DIP, CLIENT, 443 + i, PROTO_TCP).vip_port
            for i in range(10)
        }
        assert len(ports) == 10

    def test_return_traffic_matched_to_lease(self, agent):
        self.configure(agent)
        lease = agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)
        # Return packet arrives encapsulated toward the DIP, inner dst VIP.
        inbound = make_tcp_packet(
            CLIENT, VIP, 443, lease.vip_port
        ).encapsulate(MUX, DIP)
        delivered = agent.receive(inbound)
        assert delivered.flow.dst_ip == DIP
        # The lease is checked first: its return traffic still reaches
        # the DIP while the health feed marks the tunnel target down.
        agent.set_health(DIP, False)
        assert agent.receive(inbound).flow.dst_ip == DIP
        with pytest.raises(HostAgentError):
            agent.receive(make_tcp_packet(CLIENT, VIP, 444, 80).encapsulate(
                MUX, DIP,
            ))

    def test_outbound_translation(self, agent):
        self.configure(agent)
        lease = agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)
        outbound = make_tcp_packet(DIP, CLIENT, 9999, 443)
        translated = agent.snat_translate_outbound(outbound)
        assert translated.flow.src_ip == VIP
        assert translated.flow.src_port == lease.vip_port

    def test_translation_without_lease_rejected(self, agent):
        self.configure(agent)
        with pytest.raises(HostAgentError):
            agent.snat_translate_outbound(make_tcp_packet(DIP, CLIENT, 1, 2))

    def test_close_releases_port(self, agent):
        self.configure(agent)
        lease = agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)
        agent.close_outbound(lease)
        with pytest.raises(HostAgentError):
            agent.close_outbound(lease)

    def test_port_exhaustion(self, agent):
        agent.configure_snat(DIP, SnatConfig(
            vip=VIP, n_slots=1 << 14, my_slots=(0,),
            port_range=(1024, 1040),
        ))
        with pytest.raises(SnatPortExhausted):
            # 17 candidate ports vs 16384 slots: essentially always fails.
            agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)

    def test_snat_requires_registration(self, agent):
        with pytest.raises(HostAgentError):
            agent.configure_snat(DIP2, SnatConfig(
                vip=VIP, n_slots=4, my_slots=(0,), port_range=(1024, 2048),
            ))

    def test_open_without_config(self, agent):
        with pytest.raises(HostAgentError):
            agent.open_outbound(DIP, CLIENT, 443, PROTO_TCP)

    def test_bad_config_validation(self):
        with pytest.raises(HostAgentError):
            SnatConfig(vip=VIP, n_slots=4, my_slots=(9,), port_range=(1, 2))
        with pytest.raises(HostAgentError):
            SnatConfig(vip=VIP, n_slots=4, my_slots=(), port_range=(1, 2))
        with pytest.raises(HostAgentError):
            SnatConfig(vip=VIP, n_slots=4, my_slots=(0,), port_range=(9, 1))


class TestMetering:
    def test_traffic_report(self, agent):
        for i in range(3):
            agent.receive(encapped(i))
        report = agent.traffic_report()
        packets, size = report[VIP]
        assert packets == 3
        assert size == 3 * 1520  # wire bytes: 1500 payload + 20B outer header
