"""Integration tests: the whole Duet story end-to-end.

These exercise the full stack — topology, workload, assignment,
controller with materialized HMuxes/SMuxes/host agents, BGP-style route
resolution, failures and migration — the way a deployment would.
"""

import pytest

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.controller import DuetController
from repro.core.migration import StickyMigrator
from repro.core.provisioning import ananta_smux_count, duet_provisioning
from repro.dataplane.packet import make_tcp_packet
from repro.net.bgp import MuxKind
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload import trace
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.vips import CLIENT_POOL, generate_population


@pytest.fixture(scope="module")
def deployment():
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=30, total_traffic_bps=18e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=21,
    )
    controller = DuetController(topology, population, n_smuxes=3)
    controller.run_initial_assignment()
    return topology, population, controller


def client_packet(vip_addr, i=0):
    return make_tcp_packet(CLIENT_POOL.network + i, vip_addr, 2000 + i, 80)


class TestFullStory:
    def test_most_traffic_on_hmux(self, deployment):
        """Duet's goal: maximize VIP traffic handled by HMux (S3.3.1)."""
        _, population, controller = deployment
        assert controller.assignment.hmux_traffic_fraction() > 0.9

    def test_every_vip_reachable(self, deployment):
        _, population, controller = deployment
        for vip in population:
            delivered, _ = controller.forward(client_packet(vip.addr))
            assert delivered.flow.dst_ip in {d.addr for d in vip.dips}

    def test_traffic_splits_across_dips(self, deployment):
        _, population, controller = deployment
        vip = max(population, key=lambda v: v.n_dips)
        hit = {
            controller.forward(client_packet(vip.addr, i))[0].flow.dst_ip
            for i in range(300)
        }
        assert len(hit) > vip.n_dips / 2

    def test_provisioning_beats_ananta(self, deployment):
        topology, population, controller = deployment
        duet = duet_provisioning(controller.assignment, topology)
        ananta = ananta_smux_count(population.total_traffic_bps)
        assert duet.n_smuxes < ananta

    def test_failure_story(self, deployment):
        """Fail every switch hosting VIPs; all traffic lands on SMuxes
        with unchanged DIP selection; then the network keeps serving."""
        topology, population, controller = deployment
        probe_vip = next(
            v for v in population
            if controller.vip_location(v.addr) is not None
        )
        pins = {
            i: controller.forward(client_packet(probe_vip.addr, i))[0].flow.dst_ip
            for i in range(40)
        }
        for switch in sorted(set(
            s for s in controller.assignment.vip_to_switch.values()
        )):
            controller.fail_switch(switch)
        for vip in population:
            delivered, mux = controller.forward(client_packet(vip.addr))
            assert mux.kind is MuxKind.SMUX
        for i, dip in pins.items():
            assert (
                controller.forward(client_packet(probe_vip.addr, i))[0].flow.dst_ip
                == dip
            )


class TestTraceReplayIntegration:
    def test_sticky_over_trace_keeps_serving(self):
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=3,
            aggs_per_container=2, n_cores=2, servers_per_tor=8,
        ))
        population = generate_population(
            topology, n_vips=20, total_traffic_bps=10e9,
            dip_model=DipCountModel(median_large=5.0, max_dips=10),
            seed=31,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        migrator = StickyMigrator(topology)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trace, "CHURN_FRACTION", 0.0)
            epochs = TraceGenerator(
                population, TraceConfig(n_epochs=4), seed=2
            ).epochs()
        current = None
        for epoch in epochs:
            current, plan = migrator.reassign(current, list(epoch.demands))
            controller.apply_assignment(current)
            # After every epoch, every VIP still delivers end to end.
            for vip in population:
                delivered, _ = controller.forward(client_packet(vip.addr))
                assert delivered.flow.dst_ip in {d.addr for d in vip.dips}

    def test_hmux_tables_match_assignment(self):
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=3,
            aggs_per_container=2, n_cores=2, servers_per_tor=8,
        ))
        population = generate_population(
            topology, n_vips=15, total_traffic_bps=8e9,
            dip_model=DipCountModel(median_large=5.0, max_dips=10),
            seed=8,
        )
        controller = DuetController(topology, population, n_smuxes=2)
        assignment = controller.run_initial_assignment()
        for vip in population:
            switch = assignment.vip_to_switch.get(vip.vip_id)
            if switch is None:
                continue
            hmux = controller.switch_agents[switch].hmux
            assert hmux.has_vip(vip.addr)
            assert sorted(hmux.dips_of(vip.addr)) == sorted(
                d.addr for d in vip.dips
            )


class TestScaleSanity:
    def test_medium_world_assignment(self):
        """A bigger build: everything still holds together."""
        topology = Topology(FatTreeParams(
            n_containers=4, tors_per_container=5,
            aggs_per_container=2, n_cores=4, servers_per_tor=16,
        ))
        population = generate_population(
            topology, n_vips=150,
            total_traffic_bps=topology.params.n_servers * 300e6,
            dip_model=DipCountModel(median_large=20.0, max_dips=60),
            seed=17,
        )
        assignment = GreedyAssigner(topology).assign(population.demands())
        assert assignment.hmux_traffic_fraction() > 0.9
        assert assignment.mru <= 1.0
