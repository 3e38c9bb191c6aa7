"""Tests for port-based services (Figure 8) through the whole stack,
plus the latency-first ordering (S9) and controller.rebalance (S4.2)."""

from collections import Counter

import pytest

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.controller import ControllerError, DuetController
from repro.dataplane.packet import make_tcp_packet
from repro.dataplane.smux import SMux, SMuxError
from repro.durability import WriteAheadJournal
from repro.net.bgp import MuxKind
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import (
    CLIENT_POOL,
    Dip,
    Vip,
    VipPopulation,
    generate_population,
)


@pytest.fixture(scope="module")
def topology():
    return Topology(FatTreeParams(
        n_containers=2, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=6,
    ))


def make_port_vip(topology, vip_id=0, addr=0x0A000001):
    dips = tuple(
        Dip(addr=0x64000001 + i, server_id=i, tor=topology.server_tor(i))
        for i in range(4)
    )
    return Vip(
        vip_id=vip_id,
        addr=addr,
        dips=dips,
        traffic_bps=1e9,
        ingress_racks=((topology.tors()[0], 0.7),),
        internet_fraction=0.3,
        port_pools=(
            (80, (dips[0].addr, dips[1].addr)),
            (21, (dips[2].addr, dips[3].addr)),
        ),
    )


def client_packet(vip_addr, i=0, port=80):
    return make_tcp_packet(CLIENT_POOL.network + i, vip_addr, 6000 + i, port)


class TestVipValidation:
    def test_pool_must_reference_dips(self, topology):
        dips = (Dip(addr=0x64000001, server_id=0,
                    tor=topology.server_tor(0)),)
        with pytest.raises(ValueError):
            Vip(
                vip_id=0, addr=0x0A000001, dips=dips, traffic_bps=1.0,
                ingress_racks=(), internet_fraction=1.0,
                port_pools=((80, (0x7F000001,)),),
            )

    def test_empty_pool_rejected(self, topology):
        dips = (Dip(addr=0x64000001, server_id=0,
                    tor=topology.server_tor(0)),)
        with pytest.raises(ValueError):
            Vip(
                vip_id=0, addr=0x0A000001, dips=dips, traffic_bps=1.0,
                ingress_racks=(), internet_fraction=1.0,
                port_pools=((80, ()),),
            )

    def test_invalid_port_rejected(self, topology):
        dips = (Dip(addr=0x64000001, server_id=0,
                    tor=topology.server_tor(0)),)
        with pytest.raises(ValueError):
            Vip(
                vip_id=0, addr=0x0A000001, dips=dips, traffic_bps=1.0,
                ingress_racks=(), internet_fraction=1.0,
                port_pools=((99999, (0x64000001,)),),
            )


class TestSMuxPortRules:
    def test_port_mapping_matches_first(self):
        smux = SMux(0, 0x1E000001)
        smux.set_vip(0x0A000001, [1, 2, 3, 4])
        smux.set_vip_port(0x0A000001, 80, [1, 2])
        out = smux.process(make_tcp_packet(9, 0x0A000001, 5000, 80))
        assert out.outer[0].dst_ip in (1, 2)
        out = smux.process(make_tcp_packet(9, 0x0A000001, 5000, 443))
        assert out.outer[0].dst_ip in (1, 2, 3, 4)

    def test_remove_port_rule_falls_back(self):
        smux = SMux(0, 0x1E000001)
        smux.set_vip(0x0A000001, [3, 4])
        smux.set_vip_port(0x0A000001, 80, [3])
        smux.remove_vip_port(0x0A000001, 80)
        outs = {
            smux.process(
                make_tcp_packet(9 + i, 0x0A000001, 5000 + i, 80)
            ).outer[0].dst_ip
            for i in range(40)
        }
        assert outs == {3, 4}

    def test_remove_vip_clears_port_rules(self):
        smux = SMux(0, 0x1E000001)
        smux.set_vip(0x0A000001, [3])
        smux.set_vip_port(0x0A000001, 80, [3])
        smux.remove_vip(0x0A000001)
        with pytest.raises(SMuxError):
            smux.remove_vip_port(0x0A000001, 80)

    def test_validation(self):
        smux = SMux(0, 0x1E000001)
        with pytest.raises(SMuxError):
            smux.set_vip_port(1, 80, [])
        with pytest.raises(SMuxError):
            smux.remove_vip_port(1, 80)


class TestControllerPortServices:
    def _controller(self, topology):
        vip = make_port_vip(topology)
        population = VipPopulation(topology, [vip])
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        return controller, vip

    def test_port_split_via_hmux(self, topology):
        controller, vip = self._controller(topology)
        assert controller.vip_location(vip.addr) is not None
        http_pool = set(vip.port_pools[0][1])
        ftp_pool = set(vip.port_pools[1][1])
        for i in range(40):
            delivered, mux = controller.forward(
                client_packet(vip.addr, i, port=80)
            )
            assert mux.kind is MuxKind.HMUX
            assert delivered.flow.dst_ip in http_pool
            delivered, _ = controller.forward(
                client_packet(vip.addr, i, port=21)
            )
            assert delivered.flow.dst_ip in ftp_pool

    def test_unlisted_port_uses_whole_pool(self, topology):
        controller, vip = self._controller(topology)
        hits = {
            controller.forward(
                client_packet(vip.addr, i, port=443)
            )[0].flow.dst_ip
            for i in range(120)
        }
        assert len(hits) > 2  # spreads beyond any single port pool

    def test_port_split_survives_failover(self, topology):
        controller, vip = self._controller(topology)
        controller.fail_switch(controller.vip_location(vip.addr))
        http_pool = set(vip.port_pools[0][1])
        for i in range(30):
            delivered, mux = controller.forward(
                client_packet(vip.addr, i, port=80)
            )
            assert mux.kind is MuxKind.SMUX
            assert delivered.flow.dst_ip in http_pool

    def test_removed_dip_leaves_its_port_pool(self, topology):
        controller, vip = self._controller(topology)
        removed = vip.port_pools[0][1][0]
        controller.remove_dip(vip.addr, removed)
        survivor = vip.port_pools[0][1][1]
        for i in range(40):
            delivered, _ = controller.forward(
                client_packet(vip.addr, i, port=80)
            )
            assert delivered.flow.dst_ip == survivor
        switch = controller.vip_location(vip.addr)
        hmux = controller.switch_agents[switch].hmux
        assert hmux.dips_of(vip.addr, 80) == [survivor]
        for smux in controller.smuxes:
            port_pools = dict(zip(*smux.slot_layouts()[1]))
            assert set(port_pools[(vip.addr, 80)].tolist()) == {survivor}

    def test_removal_keeps_surviving_port_flows_in_place(self, topology):
        """The port pool shrinks by resilient removal: a port-21 flow
        whose DIP survives keeps it."""
        controller, vip = self._controller(topology)
        ftp = [client_packet(vip.addr, i, port=21) for i in range(40)]
        before = [controller.forward(p)[0].flow.dst_ip for p in ftp]
        removed = vip.port_pools[1][1][0]
        controller.remove_dip(vip.addr, removed)
        after = [controller.forward(p)[0].flow.dst_ip for p in ftp]
        assert removed in before and removed not in after
        assert all(a == b for a, b in zip(after, before) if b != removed)

    def test_last_dip_of_a_port_pool_is_refused(self, topology):
        controller, vip = self._controller(topology)
        controller.attach_journal(WriteAheadJournal())
        first, second = vip.port_pools[0][1]
        controller.remove_dip(vip.addr, first)
        appended = controller.journal.ops_appended
        with pytest.raises(ControllerError, match=":80"):
            controller.remove_dip(vip.addr, second)
        assert controller.journal.ops_appended == appended
        assert second in controller.record(vip.addr).dip_addrs()
        # The health reaper skips it too.
        server = controller.record(vip.addr).dip(second).server_id
        controller.host_agents[server].set_health(second, False)
        assert controller.reap_failed_dips() == []

    def test_virtualized_with_ports_rejected(self, topology):
        vip = make_port_vip(topology)
        population = VipPopulation(topology, [vip])
        with pytest.raises(ControllerError):
            DuetController(
                topology, population, n_smuxes=2, virtualized=True,
            )


class TestLatencyFirstOrdering:
    def test_sensitive_vips_win_scarce_slots(self, topology):
        population = generate_population(
            topology, n_vips=20, total_traffic_bps=8e9,
            latency_sensitive_fraction=0.3, seed=5,
        )
        demands = population.demands()
        sensitive = {d.vip_id for d in demands if d.latency_sensitive}
        assert sensitive  # the fraction fired
        config = AssignmentConfig(
            vip_order="latency-first",
            host_table_budget=len(sensitive),  # scarce: only they fit
            stop_on_first_failure=False,
        )
        assignment = GreedyAssigner(topology, config).assign(demands)
        assert set(assignment.vip_to_switch) == sensitive

    def test_flag_survives_scaling(self, topology):
        population = generate_population(
            topology, n_vips=10, total_traffic_bps=1e9,
            latency_sensitive_fraction=1.0, seed=1,
        )
        demand = population.demands()[0]
        assert demand.latency_sensitive
        assert demand.scaled(2.0).latency_sensitive

    def test_fraction_validation(self, topology):
        with pytest.raises(ValueError):
            generate_population(
                topology, 5, 1e9, latency_sensitive_fraction=-0.1,
            )


class TestRebalance:
    def test_rebalance_applies_and_is_two_phase(self, topology):
        population = generate_population(
            topology, n_vips=15, total_traffic_bps=8e9, seed=6,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        scaled = [v.demand().scaled(1.4) for v in population]
        plan = controller.rebalance(scaled)
        assert plan.validate_two_phase()
        for vip in population:
            delivered, _ = controller.forward(client_packet(vip.addr))
            assert delivered.flow.dst_ip in {d.addr for d in vip.dips}

    def test_rebalance_avoids_failed_switches(self, topology):
        population = generate_population(
            topology, n_vips=15, total_traffic_bps=8e9, seed=7,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        # A survivable failure: two loaded switches, never the core layer
        # (killing every core partitions the fabric entirely).
        cores = set(topology.cores())
        victims = [
            s for s in sorted(set(controller.assignment.vip_to_switch.values()))
            if s not in cores
        ][:2]
        assert victims
        for switch in victims:
            controller.fail_switch(switch)
        controller.rebalance()
        # VIPs are re-hosted, but never on a failed switch.
        assert controller.assignment is not None
        for switch in controller.assignment.vip_to_switch.values():
            assert switch not in victims
        assert any(
            r.assigned_switch is not None
            for r in controller.records().values()
        )

    def test_rebalance_with_measured_demands(self, topology):
        population = generate_population(
            topology, n_vips=10, total_traffic_bps=5e9, seed=8,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        for i in range(30):
            controller.forward(client_packet(population.vips[0].addr, i))
        demands = controller.measured_demands(window_s=10.0)
        plan = controller.rebalance(demands)
        assert plan.validate_two_phase()
