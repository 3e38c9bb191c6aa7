"""End-to-end tests for virtualized clusters (Figure 6) and WCMP
heterogeneity (S5.2) through the full controller stack."""

from collections import Counter

import pytest

from repro.core.controller import DuetController
from repro.dataplane.packet import make_tcp_packet
from repro.net.bgp import MuxKind
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import (
    CLIENT_POOL,
    HOST_POOL,
    Dip,
    generate_population,
    host_address,
)


@pytest.fixture(scope="module")
def topology():
    return Topology(FatTreeParams(
        n_containers=2, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=6,
    ))


@pytest.fixture()
def virtual_controller(topology):
    population = generate_population(
        topology, n_vips=15, total_traffic_bps=8e9,
        dip_model=DipCountModel(median_large=8.0, max_dips=14),
        seed=77,
    )
    controller = DuetController(
        topology, population, n_smuxes=2, virtualized=True,
    )
    controller.run_initial_assignment()
    return controller


def client_packet(vip_addr, i=0):
    return make_tcp_packet(CLIENT_POOL.network + i, vip_addr, 7000 + i, 80)


class TestDipWeights:
    def test_generator_marks_heterogeneous_pools(self, topology):
        population = generate_population(
            topology, n_vips=30, total_traffic_bps=5e9,
            heterogeneous_fraction=1.0, seed=1,
        )
        mixed = [v for v in population if len({d.weight for d in v.dips}) > 1]
        assert len(mixed) >= 0.8 * sum(1 for v in population if v.n_dips >= 2)

    def test_homogeneous_by_default(self, topology):
        population = generate_population(
            topology, n_vips=10, total_traffic_bps=5e9, seed=1,
        )
        assert all(len({d.weight for d in v.dips}) == 1 for v in population)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Dip(addr=1, server_id=0, tor=0, weight=0.0)

    def test_fraction_validation(self, topology):
        with pytest.raises(ValueError):
            generate_population(
                topology, 5, 1e9, heterogeneous_fraction=1.5,
            )


class TestWcmpEndToEnd:
    def test_weighted_split_through_controller(self, topology):
        population = generate_population(
            topology, n_vips=10, total_traffic_bps=5e9,
            dip_model=DipCountModel(
                median_small=4.0, median_large=4.0, sigma=0.0,
                min_dips=4, max_dips=4,
            ),
            heterogeneous_fraction=1.0,
            seed=3,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        vip = population.vips[0]
        weights = {d.addr: d.weight for d in vip.dips}
        assert len(set(weights.values())) == 2  # actually heterogeneous
        hits = Counter(
            controller.forward(client_packet(vip.addr, i))[0].flow.dst_ip
            for i in range(1200)
        )
        heavy = sum(hits[d] for d, w in weights.items() if w == 2.0)
        light = sum(hits[d] for d, w in weights.items() if w == 1.0)
        assert heavy > light * 1.4  # 2:1 weights, 2 DIPs each side

    def test_weighted_vip_survives_failover(self, topology):
        population = generate_population(
            topology, n_vips=8, total_traffic_bps=4e9,
            dip_model=DipCountModel(
                median_small=3.0, median_large=3.0, sigma=0.0,
                min_dips=3, max_dips=3,
            ),
            heterogeneous_fraction=1.0,
            seed=4,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        controller.run_initial_assignment()
        vip = next(
            v for v in population
            if controller.vip_location(v.addr) is not None
        )
        packets = [client_packet(vip.addr, i) for i in range(40)]
        before = [controller.forward(p)[0].flow.dst_ip for p in packets]
        controller.fail_switch(controller.vip_location(vip.addr))
        after = [controller.forward(p)[0].flow.dst_ip for p in packets]
        assert before == after  # weighted layouts agree across planes


class TestVirtualizedClusters:
    def test_encap_targets_are_host_ips(self, virtual_controller):
        vip = next(
            v for v in virtual_controller.population
            if virtual_controller.vip_location(v.addr) is not None
        )
        switch = virtual_controller.vip_location(vip.addr)
        hmux = virtual_controller.switch_agents[switch].hmux
        for target in hmux.dips_of(vip.addr):
            assert HOST_POOL.contains(target)

    def test_delivery_reaches_a_vip_dip(self, virtual_controller):
        for vip in virtual_controller.population:
            delivered, _mux = virtual_controller.forward(
                client_packet(vip.addr)
            )
            assert delivered.flow.dst_ip in {d.addr for d in vip.dips}
            assert not delivered.is_encapsulated

    def test_flow_affinity(self, virtual_controller):
        vip = virtual_controller.population.vips[0]
        first, _ = virtual_controller.forward(client_packet(vip.addr, 5))
        for _ in range(5):
            again, _ = virtual_controller.forward(client_packet(vip.addr, 5))
            assert again.flow.dst_ip == first.flow.dst_ip

    def test_colocated_vms_share_host_entries(self, topology):
        """A host with two VMs of one VIP appears twice in the tunnel
        table (Figure 6's HIP 20.0.0.1 example)."""
        from repro.workload.vips import Vip, VipPopulation

        server = 0
        vip = Vip(
            vip_id=0,
            addr=0x0A000001,
            dips=(
                Dip(addr=0x64000001, server_id=server,
                    tor=topology.server_tor(server)),
                Dip(addr=0x64000002, server_id=server,
                    tor=topology.server_tor(server)),
                Dip(addr=0x64000003, server_id=1,
                    tor=topology.server_tor(1)),
            ),
            traffic_bps=1e9,
            ingress_racks=((topology.tors()[0], 0.7),),
            internet_fraction=0.3,
        )
        population = VipPopulation(topology, [vip])
        controller = DuetController(
            topology, population, n_smuxes=2, virtualized=True,
        )
        controller.run_initial_assignment()
        switch = controller.vip_location(vip.addr)
        assert switch is not None
        targets = controller.switch_agents[switch].hmux.dips_of(vip.addr)
        assert sorted(targets) == sorted([
            host_address(server), host_address(server), host_address(1),
        ])
        # Both colocated VMs receive traffic (HA hash, Figure 6).
        hit = {
            controller.forward(client_packet(vip.addr, i))[0].flow.dst_ip
            for i in range(300)
        }
        assert {0x64000001, 0x64000002} <= hit

    def test_failover_consistency_virtualized(self, virtual_controller):
        """HMux -> SMux failover keeps flows on the same VM even in
        virtualized mode (both planes target the same host, the HA hash
        is shared)."""
        vip = next(
            v for v in virtual_controller.population
            if virtual_controller.vip_location(v.addr) is not None
        )
        packets = [client_packet(vip.addr, i) for i in range(40)]
        before = [
            virtual_controller.forward(p)[0].flow.dst_ip for p in packets
        ]
        virtual_controller.fail_switch(
            virtual_controller.vip_location(vip.addr)
        )
        for p, dip in zip(packets, before):
            delivered, mux = virtual_controller.forward(p)
            assert mux.kind is MuxKind.SMUX
            assert delivered.flow.dst_ip == dip

    def test_remove_dip_virtualized(self, virtual_controller):
        vip = next(
            v for v in virtual_controller.population
            if v.n_dips >= 3
            and virtual_controller.vip_location(v.addr) is not None
        )
        victim = vip.dips[0]
        virtual_controller.remove_dip(vip.addr, victim.addr)
        record = virtual_controller.record(vip.addr)
        assert victim.addr not in [d.addr for d in record.dips]
        delivered, _ = virtual_controller.forward(client_packet(vip.addr))
        assert delivered.flow.dst_ip in {d.addr for d in record.dips}
