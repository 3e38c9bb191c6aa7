"""Tests for repro.core.controller: the full Duet control loop."""

import pytest

from repro.core.assignment import AssignmentConfig
from repro.core.controller import ControllerError, DuetController
from repro.dataplane.packet import make_tcp_packet
from repro.net.bgp import MuxKind
from repro.workload.vips import CLIENT_POOL, Dip, Vip, generate_population
from repro.workload.distributions import DipCountModel


@pytest.fixture()
def controller(tiny_topology, fresh_tiny_population):
    c = DuetController(tiny_topology, fresh_tiny_population, n_smuxes=2)
    c.run_initial_assignment()
    return c


def client_packet(vip_addr, i=0):
    return make_tcp_packet(CLIENT_POOL.network + i, vip_addr, 1000 + i, 80)


def hmux_vip_count(controller):
    """VIPs served by an HMux right now."""
    return sum(
        r.assigned_switch is not None for r in controller.records().values()
    )


class TestBootstrap:
    def test_all_vips_resolvable_before_assignment(
        self, tiny_topology, fresh_tiny_population
    ):
        c = DuetController(tiny_topology, fresh_tiny_population, n_smuxes=2)
        for vip in fresh_tiny_population:
            assert c.route_table.resolve(vip.addr).kind is MuxKind.SMUX

    def test_initial_assignment_moves_vips_to_hmux(self, controller):
        assert controller.assignment is not None
        assert hmux_vip_count(controller) == controller.assignment.n_assigned
        assert controller.assignment.n_assigned > 0

    def test_smuxes_know_every_vip(self, controller):
        for smux in controller.smuxes:
            assert len(smux.vips()) == len(controller.population)

    def test_needs_at_least_one_smux(self, tiny_topology, fresh_tiny_population):
        with pytest.raises(ControllerError):
            DuetController(tiny_topology, fresh_tiny_population, n_smuxes=0)


class TestForwarding:
    def test_hmux_path_end_to_end(self, controller):
        vip = next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )
        delivered, mux = controller.forward(client_packet(vip.addr))
        assert mux.kind is MuxKind.HMUX
        assert delivered.flow.dst_ip in {d.addr for d in vip.dips}
        assert not delivered.is_encapsulated

    def test_flow_affinity_end_to_end(self, controller):
        vip = controller.population.vips[0]
        first, _ = controller.forward(client_packet(vip.addr, 7))
        for _ in range(5):
            again, _ = controller.forward(client_packet(vip.addr, 7))
            assert again.flow.dst_ip == first.flow.dst_ip

    def test_unknown_vip_is_blackhole(self, controller):
        from repro.net.bgp import RouteResolutionError

        with pytest.raises((RouteResolutionError, ControllerError)):
            controller.forward(client_packet(0x7F000001))

    def test_route_to_a_mux_the_controller_lacks_is_a_controller_error(self):
        """A stale route naming an SMux the controller no longer holds,
        or an encap target it cannot map to a server, is a failed
        forward the probers can catch — not a bare StopIteration or
        KeyError."""
        from repro.chaos.engine import ChaosConfig, build_controller
        from repro.net.bgp import MuxRef

        controller = build_controller(ChaosConfig(seed=0))
        table = controller.route_table
        for smux in controller.smuxes:
            ref = MuxRef.smux(smux.smux_id)
            for prefix in table.announced_by(ref):
                table.announce(prefix, MuxRef.smux(99))
                table.withdraw(prefix, ref)
        vip = min(controller.records())
        controller.fail_switch(controller.vip_location(vip))
        for i in range(40):
            with pytest.raises(ControllerError, match="SMux 99"):
                controller.forward(client_packet(vip, i))

        controller = build_controller(ChaosConfig(seed=0))
        controller._dip_to_server.clear()
        with pytest.raises(ControllerError, match="encap target"):
            controller.forward(client_packet(vip))


class TestHashConsistencyAcrossPlanes:
    def test_same_dip_after_failover(self, controller):
        """S3.3.1: when the HMux dies and the SMux takes over, existing
        flows map to the same DIPs."""
        vip = next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )
        switch = controller.vip_location(vip.addr)
        packets = [client_packet(vip.addr, i) for i in range(50)]
        before = [controller.forward(p)[0].flow.dst_ip for p in packets]
        controller.fail_switch(switch)
        after = []
        for p in packets:
            delivered, mux = controller.forward(p)
            assert mux.kind is MuxKind.SMUX
            after.append(delivered.flow.dst_ip)
        assert before == after


class TestFailures:
    def test_fail_switch_falls_back_to_smux(self, controller):
        vip = next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )
        switch = controller.vip_location(vip.addr)
        affected = controller.fail_switch(switch)
        assert vip.addr in affected
        assert controller.vip_location(vip.addr) is None
        assert controller.route_table.resolve(vip.addr).kind is MuxKind.SMUX

    def test_fail_switch_idempotent(self, controller):
        switch = next(iter(controller.assignment.vip_to_switch.values()))
        controller.fail_switch(switch)
        assert controller.fail_switch(switch) == []

    def test_fail_smux_keeps_service(self, controller):
        controller.fail_smux(0)
        vip = controller.population.vips[0]
        delivered, _ = controller.forward(client_packet(vip.addr))
        assert not delivered.is_encapsulated

    def test_cannot_fail_last_smux(self, controller):
        controller.fail_smux(0)
        with pytest.raises(ControllerError):
            controller.fail_smux(1)

    def test_fail_unknown_smux(self, controller):
        with pytest.raises(ControllerError):
            controller.fail_smux(99)


class TestVipLifecycle:
    def test_add_vip_starts_on_smux(self, controller, tiny_topology):
        new = Vip(
            vip_id=999,
            addr=0x0A0F0001,
            dips=(Dip(addr=0x640F0001, server_id=0,
                      tor=tiny_topology.server_tor(0)),),
            traffic_bps=1e6,
            ingress_racks=((tiny_topology.tors()[0], 0.7),),
            internet_fraction=0.3,
        )
        controller.add_vip(new)
        assert controller.vip_location(new.addr) is None
        assert controller.route_table.resolve(new.addr).kind is MuxKind.SMUX
        delivered, _ = controller.forward(client_packet(new.addr))
        assert delivered.flow.dst_ip == 0x640F0001

    def test_add_duplicate_vip_rejected(self, controller):
        with pytest.raises(ControllerError):
            controller.add_vip(controller.population.vips[0])

    def test_remove_vip(self, controller):
        vip = controller.population.vips[0]
        controller.remove_vip(vip.addr)
        with pytest.raises(ControllerError):
            controller.record(vip.addr)
        for smux in controller.smuxes:
            assert not smux.has_vip(vip.addr)

    def test_remove_unknown_vip(self, controller):
        with pytest.raises(ControllerError):
            controller.remove_vip(0x7F000001)


class TestDipLifecycle:
    def _hmux_vip(self, controller):
        return next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )

    def test_add_dip_bounce(self, controller, tiny_topology):
        """S5.2: DIP addition bounces the VIP through SMux and back."""
        vip = self._hmux_vip(controller)
        switch = controller.vip_location(vip.addr)
        new_dip = Dip(addr=0x64FF0001, server_id=1,
                      tor=tiny_topology.server_tor(1))
        controller.add_dip(vip.addr, new_dip)
        # Back on the same HMux, with the new DIP in both planes.
        assert controller.vip_location(vip.addr) == switch
        agent = controller.switch_agents[switch]
        assert new_dip.addr in agent.hmux.dips_of(vip.addr)
        for smux in controller.smuxes:
            assert new_dip.addr in smux.dips_of(vip.addr)

    def test_add_dip_to_smux_only_vip(self, controller, tiny_topology):
        smux_vips = [
            v for v in controller.population
            if controller.vip_location(v.addr) is None
        ]
        if not smux_vips:
            pytest.skip("everything fit on HMuxes")
        vip = smux_vips[0]
        new_dip = Dip(addr=0x64FF0002, server_id=2,
                      tor=tiny_topology.server_tor(2))
        controller.add_dip(vip.addr, new_dip)
        assert controller.vip_location(vip.addr) is None

    def test_remove_dip(self, controller):
        vip = self._hmux_vip(controller)
        if vip.n_dips < 2:
            pytest.skip("need at least two DIPs")
        victim = vip.dips[0]
        controller.remove_dip(vip.addr, victim.addr)
        switch = controller.vip_location(vip.addr)
        assert victim.addr not in controller.switch_agents[switch].hmux.dips_of(vip.addr)
        for smux in controller.smuxes:
            assert victim.addr not in smux.dips_of(vip.addr)

    def test_remove_dip_resilient_for_others(self, controller):
        vip = self._hmux_vip(controller)
        if vip.n_dips < 3:
            pytest.skip("need several DIPs")
        packets = [client_packet(vip.addr, i) for i in range(60)]
        before = [controller.forward(p)[0].flow.dst_ip for p in packets]
        victim = vip.dips[0].addr
        controller.remove_dip(vip.addr, victim)
        for p, dip in zip(packets, before):
            now = controller.forward(p)[0].flow.dst_ip
            if dip != victim:
                assert now == dip

    def test_cannot_remove_last_dip(self, controller):
        vip = self._hmux_vip(controller)
        for dip in list(vip.dips)[:-1]:
            try:
                controller.remove_dip(vip.addr, dip.addr)
            except ControllerError:
                pass
        record = controller.record(vip.addr)
        with pytest.raises(ControllerError):
            controller.remove_dip(vip.addr, record.dips[0].addr)

    def test_remove_foreign_dip_rejected(self, controller):
        vip = self._hmux_vip(controller)
        with pytest.raises(ControllerError):
            controller.remove_dip(vip.addr, 0x7F000001)

    def test_dip_failure_alias(self, controller):
        vip = self._hmux_vip(controller)
        if vip.n_dips < 2:
            pytest.skip("need at least two DIPs")
        controller.dip_failure(vip.addr, vip.dips[0].addr)
        assert len(controller.record(vip.addr).dips) == vip.n_dips - 1


class TestSwitchRecoveryLifecycle:
    def _hmux_vip(self, controller):
        return next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )

    def test_fail_switch_wipes_hmux_state(self, controller):
        """S5.1: ASIC state is lost with the switch — a failed agent
        must hold no table entries and no announcements."""
        vip = self._hmux_vip(controller)
        switch = controller.vip_location(vip.addr)
        agent = controller.switch_agents[switch]
        assert agent.hmux.vips()
        controller.fail_switch(switch)
        assert agent.hmux.vips() == []
        assert len(agent.hmux.host_table) == 0
        assert len(agent.hmux.tunnel_table) == 0
        assert agent.hmux.ecmp_table.used_entries == 0
        assert not controller.route_table.announced_by(agent.mux_ref)

    def test_recover_starts_empty_and_rebalance_rehomes(self, controller):
        vip = self._hmux_vip(controller)
        switch = controller.vip_location(vip.addr)
        controller.fail_switch(switch)
        after_fail = hmux_vip_count(controller)
        controller.recover_switch(switch)
        assert switch not in controller.failed_switches
        assert controller.switch_agents[switch].hmux.vips() == []
        # Recovery is invisible to traffic; only the sticky rebalance
        # moves VIPs back onto HMux capacity.
        assert hmux_vip_count(controller) == after_fail
        # No traffic has flowed, so measured demands are zero; hand the
        # rebalance the configured demands instead.
        controller.rebalance([v.demand() for v in controller.population])
        assert hmux_vip_count(controller) > after_fail

    def test_recover_unfailed_switch_rejected(self, controller):
        with pytest.raises(ControllerError):
            controller.recover_switch(0)

    def test_recover_isolated_switch_rejected(self, controller, tiny_topology):
        """A switch cut off from every core stays failed until the
        links return (isolation == failure, S5.1)."""
        tor = tiny_topology.tors()[0]
        cut = [l.index for l in tiny_topology.links if l.src == tor]
        promoted = set()
        for link in cut:
            promoted.update(controller.cut_link(link))
        assert tor in promoted
        with pytest.raises(ControllerError):
            controller.recover_switch(tor)
        for link in cut:
            controller.restore_link(link)
        controller.recover_switch(tor)
        assert tor not in controller.failed_switches


class TestSMuxScaleOut:
    def test_add_smux_covers_every_vip(self, controller):
        from repro.net.bgp import MuxRef

        new = controller.add_smux()
        assert len(new.vips()) == len(controller.population)
        assert MuxRef.smux(new.smux_id) in controller.live_mux_refs()

    def test_smux_ids_never_reused(self, controller):
        controller.fail_smux(0)
        new = controller.add_smux()
        assert new.smux_id == 2
        assert {s.smux_id for s in controller.smuxes} == {1, 2}

    def test_fail_to_last_survivor_then_scale_back(self, controller):
        """Drain the SMux fleet to one instance, then stand a new one
        up: service continues throughout and the newcomer takes
        traffic."""
        vip = next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )
        controller.fail_switch(controller.vip_location(vip.addr))
        controller.fail_smux(0)
        delivered, mux = controller.forward(client_packet(vip.addr, 3))
        assert mux.kind is MuxKind.SMUX
        assert delivered.flow.dst_ip in {d.addr for d in vip.dips}
        new = controller.add_smux()
        controller.fail_smux(1)
        delivered, mux = controller.forward(client_packet(vip.addr, 3))
        assert mux.ident == new.smux_id
        assert delivered.flow.dst_ip in {d.addr for d in vip.dips}


class TestFailureEdgeCases:
    def test_remove_vip_whose_host_switch_failed(self, controller):
        from repro.net.addressing import Prefix

        vip = next(
            v for v in controller.population
            if controller.vip_location(v.addr) is not None
        )
        controller.fail_switch(controller.vip_location(vip.addr))
        controller.remove_vip(vip.addr)
        with pytest.raises(ControllerError):
            controller.record(vip.addr)
        for smux in controller.smuxes:
            assert not smux.has_vip(vip.addr)
        assert not controller.route_table.announcers(Prefix.host(vip.addr))

    def test_reap_races_manual_remove(self, controller):
        """The health feed marks a DIP dead, but an operator removes it
        before the reaper runs: the reaper must not double-remove."""
        vip = next(
            v for v in controller.population
            if len(controller.record(v.addr).dips) >= 2
        )
        victim = controller.record(vip.addr).dips[0]
        controller.host_agents[victim.server_id].set_health(
            victim.addr, False
        )
        controller.remove_dip(vip.addr, victim.addr)
        reaped = controller.reap_failed_dips()
        assert victim.addr not in reaped
        assert victim.addr not in controller.record(vip.addr).dip_addrs()

    def test_reap_removes_flapped_dip(self, controller):
        vip = next(
            v for v in controller.population
            if len(controller.record(v.addr).dips) >= 2
        )
        victim = controller.record(vip.addr).dips[0]
        controller.host_agents[victim.server_id].set_health(
            victim.addr, False
        )
        assert victim.addr in controller.reap_failed_dips()
        assert victim.addr not in controller.record(vip.addr).dip_addrs()
        assert controller.reap_failed_dips() == []


class TestPlanExecutionGuard:
    def test_plan_step_targeting_failed_switch_is_skipped(
        self, controller, tiny_topology
    ):
        """A switch that dies between planning and execution must not
        crash the updater: its steps are skipped and the VIPs stay on
        the SMux backstop."""
        from repro.core.assignment import GreedyAssigner

        new = GreedyAssigner(
            tiny_topology, AssignmentConfig(seed=7)
        ).assign([v.demand() for v in controller.population])
        target = next(iter(new.vip_to_switch.values()))
        controller.fail_switch(target)
        controller.apply_assignment(new)
        assert controller.programming_stats.skipped_dead_switch >= 1
        for vip in controller.population:
            if new.vip_to_switch.get(vip.vip_id) == target:
                assert controller.vip_location(vip.addr) is None
                assert controller.route_table.resolve(
                    vip.addr
                ).kind is MuxKind.SMUX


class TestReassignment:
    def test_apply_assignment_migrates(self, controller, tiny_topology):
        from repro.core.assignment import GreedyAssigner

        demands = [
            v.demand().scaled(1.2) for v in controller.population
        ]
        new = GreedyAssigner(
            tiny_topology, AssignmentConfig(seed=77)
        ).assign(demands)
        plan = controller.apply_assignment(new)
        assert plan.validate_two_phase()
        # Controller state reflects the new assignment.
        for vip in controller.population:
            expected = new.vip_to_switch.get(vip.vip_id)
            assert controller.vip_location(vip.addr) == expected
