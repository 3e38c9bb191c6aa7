"""Property-based tests for the cross-module invariants in DESIGN.md."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.assignment import AssignmentConfig, GreedyAssigner
from repro.core.migration import StickyMigrator, diff_assignments
from repro.dataplane.hmux import HMux
from repro.dataplane.packet import FiveTuple, PROTO_TCP, Packet
from repro.dataplane.smux import SMux
from repro.net.addressing import Prefix
from repro.net.bgp import MuxKind, MuxRef, VipRouteTable
from repro.net.routing import EcmpRouter
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import generate_population

VIP = 0x0A000001


def make_flow(seed: int) -> FiveTuple:
    rng = random.Random(seed)
    return FiveTuple(
        src_ip=rng.randrange(1 << 32),
        dst_ip=VIP,
        src_port=rng.randrange(1 << 16),
        dst_port=80,
        protocol=PROTO_TCP,
    )


class TestHashConsistencyProperty:
    """Invariant: HMux and SMux pick the same DIP for the same flow."""

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_planes_agree(self, n_dips, flow_seed, hash_seed):
        dips = [0x64000001 + i for i in range(n_dips)]
        hmux = HMux(0xAC100001, hash_seed=hash_seed)
        smux = SMux(0, 0x1E000001, hash_seed=hash_seed)
        hmux.program_vip(VIP, dips)
        smux.set_vip(VIP, dips)
        packet = Packet(make_flow(flow_seed))
        assert (
            hmux.process(packet).selected_ip
            == smux.process(packet).outer[0].dst_ip
        )


class TestEncapRoundtripProperty:
    @given(st.integers(min_value=0, max_value=10_000),
           st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                    min_size=1, max_size=4))
    @settings(max_examples=50)
    def test_roundtrip(self, flow_seed, targets):
        packet = Packet(make_flow(flow_seed))
        wrapped = packet
        for target in targets:
            wrapped = wrapped.encapsulate(0xAC100001, target)
        for _ in targets:
            wrapped = wrapped.decapsulate()
        assert wrapped == packet


class TestLpmProperty:
    """Invariant: the /32 always beats aggregates; withdrawing it falls
    back without losing the VIP."""

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=8, max_value=24))
    @settings(max_examples=40)
    def test_slash32_preference(self, offset, agg_length):
        from repro.net.addressing import prefix_mask

        vip = (0x0A << 24) + offset
        aggregate = Prefix(vip & prefix_mask(agg_length), agg_length)
        table = VipRouteTable()
        table.announce(aggregate, MuxRef.smux(0))
        table.announce(Prefix.host(vip), MuxRef.hmux(1))
        assert table.resolve(vip).kind is MuxKind.HMUX
        table.withdraw(Prefix.host(vip), MuxRef.hmux(1))
        assert table.resolve(vip).kind is MuxKind.SMUX


class TestPathFractionProperty:
    """Invariant: path fractions conserve flow at every node."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_conservation(self, seed):
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=3,
            aggs_per_container=2, n_cores=2,
        ))
        router = EcmpRouter(topology)
        rng = random.Random(seed)
        src = rng.randrange(topology.n_switches)
        dst = rng.randrange(topology.n_switches)
        fractions = router.path_fractions(src, dst)
        if src == dst:
            assert fractions == {}
            return
        flows_in = {n: 0.0 for n in range(topology.n_switches)}
        flows_out = {n: 0.0 for n in range(topology.n_switches)}
        for link, fraction in fractions.items():
            flows_out[topology.links[link].src] += fraction
            flows_in[topology.links[link].dst] += fraction
        assert flows_out[src] == pytest.approx(1.0)
        assert flows_in[dst] == pytest.approx(1.0)
        for node in range(topology.n_switches):
            if node in (src, dst):
                continue
            assert flows_in[node] == pytest.approx(flows_out[node])


class TestAssignmentCapacityProperty:
    """Invariant: no accepted assignment exceeds any resource."""

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=8, deadline=None)
    def test_capacities_respected(self, seed):
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=3,
            aggs_per_container=2, n_cores=2, servers_per_tor=8,
        ))
        population = generate_population(
            topology, n_vips=25,
            total_traffic_bps=15e9,
            dip_model=DipCountModel(median_large=6.0, max_dips=12),
            seed=seed,
        )
        assignment = GreedyAssigner(topology).assign(population.demands())
        # Links: utilization of effective capacity stays within 1.
        assert assignment.mru <= 1.0 + 1e-9
        # Switch memory: total DIPs per switch within the tunnel table.
        capacity = topology.params.tables.dip_capacity
        for s in range(topology.n_switches):
            assert sum(
                assignment.demands[v].n_dips
                for v in assignment.vips_on_switch(s)
            ) <= capacity
        # Host table: global /32 budget.
        assert assignment.n_assigned <= topology.params.tables.host_table


class TestMigrationPlanProperty:
    """Invariants: plans are two-phase (deadlock-free) and every VIP is
    served at every step (no blackhole), given the SMux backstop."""

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=8, deadline=None)
    def test_two_phase_and_serving(self, seed):
        topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=3,
            aggs_per_container=2, n_cores=2, servers_per_tor=8,
        ))
        population = generate_population(
            topology, n_vips=20, total_traffic_bps=10e9,
            dip_model=DipCountModel(median_large=5.0, max_dips=10),
            seed=seed,
        )
        demands = population.demands()
        migrator = StickyMigrator(topology)
        old, _ = migrator.reassign(None, demands)
        rng = random.Random(seed)
        perturbed = [
            d.scaled(0.5 + rng.random()) for d in demands
        ]
        new, plan = migrator.reassign(old, perturbed)
        assert plan.validate_two_phase()

        # Replay the plan against a route table with the SMux aggregate
        # as backstop: every VIP resolves at every step.
        from repro.workload.vips import SMUX_AGGREGATES

        table = VipRouteTable()
        for aggregate in SMUX_AGGREGATES:
            table.announce(aggregate, MuxRef.smux(0))
        addr_of = {d.vip_id: d.addr for d in demands}
        for vip_id, switch in old.vip_to_switch.items():
            table.announce(Prefix.host(addr_of[vip_id]), MuxRef.hmux(switch))
        for step in plan.steps:
            prefix = Prefix.host(addr_of[step.vip_id])
            ref = MuxRef.hmux(step.switch_index)
            from repro.core.migration import StepKind

            if step.kind is StepKind.WITHDRAW:
                table.withdraw(prefix, ref)
            else:
                table.announce(prefix, ref)
            for d in demands:
                assert table.next_hops(d.addr)
        # Final state matches the new assignment.
        for vip_id, switch in new.vip_to_switch.items():
            resolved = table.resolve(addr_of[vip_id])
            assert resolved == MuxRef.hmux(switch)


class TestResilientRemovalEndToEnd:
    """Invariant: DIP removal on a programmed HMux never remaps other
    DIPs' flows, across random table sizes."""

    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_remove_one(self, n_dips, seed):
        dips = [0x64000001 + i for i in range(n_dips)]
        hmux = HMux(0xAC100001)
        hmux.program_vip(VIP, dips, n_slots=max(n_dips, 32))
        packets = [Packet(make_flow(seed + i)) for i in range(80)]
        before = [hmux.process(p).selected_ip for p in packets]
        victim = dips[seed % n_dips]
        hmux.remove_dip(VIP, victim)
        for p, dip in zip(packets, before):
            now = hmux.process(p).selected_ip
            if dip != victim:
                assert now == dip
            else:
                assert now != victim
