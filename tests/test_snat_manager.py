"""Tests for repro.core.snat: port-range management and slot inversion."""

import pytest

from repro.core.snat import (
    PortRange,
    SnatError,
    SnatPortManager,
    slots_of_dip,
)
from repro.dataplane.hashing import ResilientHashTable
from repro.dataplane.hmux import HMux
from repro.dataplane.packet import make_tcp_packet
from repro.net.addressing import parse_ip

VIP = parse_ip("10.0.0.1")
DIPS = [parse_ip(f"100.0.0.{i}") for i in range(1, 6)]


class TestPortRange:
    def test_size(self):
        assert PortRange(1024, 2047).size == 1024

    def test_validation(self):
        with pytest.raises(SnatError):
            PortRange(10, 5)
        with pytest.raises(SnatError):
            PortRange(0, 70_000)

    def test_as_tuple(self):
        assert PortRange(1, 2).as_tuple() == (1, 2)


class TestSnatPortManager:
    def test_allocations_disjoint(self):
        manager = SnatPortManager(VIP, range_size=1000)
        for dip in DIPS:
            manager.allocate(dip)
        assert manager.validate_disjoint()

    def test_reallocation_to_same_dip_disjoint(self):
        """"If an HA runs out of available ports, it receives another
        set from the Duet controller" (S5.2)."""
        manager = SnatPortManager(VIP, range_size=1000)
        first = manager.allocate(DIPS[0])
        second = manager.allocate(DIPS[0])
        assert second.lo > first.hi
        assert manager.ranges_of(DIPS[0]) == [first, second]

    def test_holder_lookup(self):
        manager = SnatPortManager(VIP, range_size=100)
        r = manager.allocate(DIPS[1])
        def holders(port):
            return [
                dip for dip in DIPS
                if any(h.lo <= port <= h.hi for h in manager.ranges_of(dip))
            ]

        assert holders(r.lo) == [DIPS[1]]
        assert holders(r.hi + 1) == []

    def test_exhaustion(self):
        manager = SnatPortManager(VIP, range_size=30_000, floor=1024)
        manager.allocate(DIPS[0])
        manager.allocate(DIPS[1])
        manager.allocate(DIPS[2])  # truncated final range
        with pytest.raises(SnatError):
            manager.allocate(DIPS[3])

    def test_release_dip(self):
        manager = SnatPortManager(VIP, range_size=100)
        manager.allocate(DIPS[0])
        assert manager.release_dip(DIPS[0]) == 1
        assert manager.ranges_of(DIPS[0]) == []

    def test_validation(self):
        with pytest.raises(SnatError):
            SnatPortManager(VIP, range_size=0)
        with pytest.raises(SnatError):
            SnatPortManager(VIP, floor=5000, ceil=1000)


class TestSlotsOfDip:
    def test_slots_partition(self):
        all_slots = set()
        for dip in DIPS:
            slots = slots_of_dip(DIPS, dip)
            assert slots  # everyone owns at least one slot
            assert all_slots.isdisjoint(slots)
            all_slots.update(slots)
        assert all_slots == set(range(len(DIPS)))

    def test_matches_hmux_behavior(self):
        """The inverted slots must agree with what the HMux actually
        does: packets hashing to my slots reach my DIP."""
        hmux = HMux(parse_ip("172.16.0.1"))
        hmux.program_vip(VIP, DIPS)
        from repro.dataplane.hashing import five_tuple_hash

        target = DIPS[2]
        my_slots = set(slots_of_dip(DIPS, target))
        for i in range(200):
            packet = make_tcp_packet(
                parse_ip("8.0.0.1") + i, VIP, 2000 + i, 80
            )
            slot = five_tuple_hash(packet.flow) % len(DIPS)
            selected = hmux.process(packet).selected_ip
            assert (slot in my_slots) == (selected == target)

    def test_unknown_dip_rejected(self):
        with pytest.raises(SnatError):
            slots_of_dip(DIPS, parse_ip("1.2.3.4"))


class TestControllerSnatIntegration:
    def test_enable_snat_end_to_end(self, tiny_topology, fresh_tiny_population):
        from repro.core.controller import DuetController
        from repro.dataplane.packet import PROTO_TCP

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        controller.run_initial_assignment()
        vip = next(v for v in fresh_tiny_population if v.n_dips >= 2)
        controller.enable_snat(vip.addr)

        dip = vip.dips[0]
        agent = controller.host_agents[dip.server_id]
        remote = parse_ip("8.8.8.8")
        lease = agent.open_outbound(dip.addr, remote, 443, PROTO_TCP)
        # Return traffic through the actual HMux (if assigned) reaches
        # the right host.
        switch = controller.vip_location(vip.addr)
        if switch is not None:
            hmux = controller.switch_agents[switch].hmux
            back = make_tcp_packet(remote, vip.addr, 443, lease.vip_port)
            assert hmux.process(back).selected_ip == dip.addr

    def test_grant_more_ports(self, tiny_topology, fresh_tiny_population):
        from repro.core.controller import ControllerError, DuetController

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        vip = fresh_tiny_population.vips[0]
        with pytest.raises(ControllerError):
            controller.grant_snat_range(vip.addr, vip.dips[0].addr)
        controller.enable_snat(vip.addr)
        extra = controller.grant_snat_range(vip.addr, vip.dips[0].addr)
        assert extra.size > 0


class TestControllerMonitoring:
    def test_measured_demands_follow_traffic(
        self, tiny_topology, fresh_tiny_population
    ):
        from repro.core.controller import DuetController
        from repro.workload.vips import CLIENT_POOL

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        controller.run_initial_assignment()
        hot = fresh_tiny_population.vips[0]
        for i in range(50):
            controller.forward(make_tcp_packet(
                CLIENT_POOL.network + i, hot.addr, 3000 + i, 80
            ))
        demands = controller.measured_demands(window_s=1.0)
        by_id = {d.vip_id: d for d in demands}
        measured = by_id[hot.vip_id].traffic_bps
        assert measured == pytest.approx(50 * 1520 * 8, rel=0.01)
        # Unobserved VIPs keep their configured volume.
        cold = fresh_tiny_population.vips[-1]
        assert by_id[cold.vip_id].traffic_bps == pytest.approx(
            cold.traffic_bps
        )

    def test_window_validation(self, tiny_topology, fresh_tiny_population):
        from repro.core.controller import ControllerError, DuetController

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        with pytest.raises(ControllerError):
            controller.measured_demands(0.0)

    def test_reap_failed_dips(self, tiny_topology, fresh_tiny_population):
        from repro.core.controller import DuetController

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        controller.run_initial_assignment()
        vip = next(v for v in fresh_tiny_population if v.n_dips >= 3)
        victim = vip.dips[0]
        agent = controller.host_agents[victim.server_id]
        agent.set_health(victim.addr, healthy=False)
        reaped = controller.reap_failed_dips()
        assert victim.addr in reaped
        assert victim.addr not in [
            d.addr for d in controller.record(vip.addr).dips
        ]

    def test_reap_never_removes_last_dip(
        self, tiny_topology, fresh_tiny_population
    ):
        from repro.core.controller import DuetController

        controller = DuetController(
            tiny_topology, fresh_tiny_population, n_smuxes=2
        )
        singles = [v for v in fresh_tiny_population if v.n_dips == 1]
        if not singles:
            pytest.skip("no single-DIP VIP in this population")
        vip = singles[0]
        dip = vip.dips[0]
        controller.host_agents[dip.server_id].set_health(
            dip.addr, healthy=False
        )
        reaped = controller.reap_failed_dips()
        assert dip.addr not in reaped
