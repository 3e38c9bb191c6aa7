"""Stateful (model-based) fuzzing of the Duet controller.

Hypothesis drives random sequences of control-plane operations — VIP
add/remove, DIP add/remove, switch failures, SNAT enablement — against a
live controller, checking the paper's global invariants after every
step:

* every registered VIP resolves to *some* mux (no blackholes: the SMux
  aggregate is always there),
* a forwarded packet is always delivered to a DIP of the VIP it
  targeted,
* switch table occupancy never exceeds capacity,
* established flows never remap except when their own DIP disappears.
* every device holds exactly what the controller intends (the
  anti-entropy diff is empty), and the intent itself is consistent: no
  record on a failed switch, degraded VIPs unplaced, SNAT only for live
  VIPs, the population a view of the records.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.controller import ControllerError, DuetController
from repro.dataplane.packet import make_tcp_packet
from repro.durability.reconcile import AntiEntropyReconciler
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import CLIENT_POOL, Dip, generate_population


class DuetControllerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.topology = Topology(FatTreeParams(
            n_containers=2, tors_per_container=2,
            aggs_per_container=2, n_cores=2, servers_per_tor=6,
        ))
        self.population = generate_population(
            self.topology, n_vips=8, total_traffic_bps=4e9,
            dip_model=DipCountModel(median_large=4.0, max_dips=6),
            seed=99,
        )
        self.controller = DuetController(
            self.topology, self.population, n_smuxes=2,
        )
        self.controller.run_initial_assignment()
        self.failed_switches: set = set()
        self.pinned: dict = {}  # flow index -> (vip_addr, dip_addr)
        self.next_dip_addr = 0x6F000001
        self.next_server = 0

    # -- helpers ---------------------------------------------------------

    def _live_vips(self):
        return list(self.controller.population)

    def _packet(self, vip_addr: int, index: int):
        return make_tcp_packet(
            CLIENT_POOL.network + index, vip_addr, 9000 + index, 80,
        )

    # -- rules -----------------------------------------------------------

    @rule(index=st.integers(min_value=0, max_value=200))
    def forward_packet(self, index):
        vips = self._live_vips()
        if not vips:
            return
        vip = vips[index % len(vips)]
        delivered, _mux = self.controller.forward(
            self._packet(vip.addr, index)
        )
        dips = {d.addr for d in self.controller.record(vip.addr).dips}
        assert delivered.flow.dst_ip in dips

    @rule(index=st.integers(min_value=0, max_value=50))
    def pin_and_check_flow(self, index):
        """A previously seen flow keeps its DIP while its serving mux and
        DIP set are stable.

        The strict claim holds only when the flow stays on the same mux
        and no DIP was added since the pin: a DIP addition rebuilds the
        tables (resilient hashing cannot absorb additions, S5.2), and a
        mux change can land the flow on a fresh layout that never saw
        the resilient-removal history protecting it (the chaos tracker
        in repro.chaos.invariants models the full matrix).
        """
        vips = self._live_vips()
        if not vips:
            return
        vip = vips[index % len(vips)]
        delivered, mux = self.controller.forward(
            self._packet(vip.addr, index)
        )
        key = (vip.addr, index)
        dips_now = frozenset(
            d.addr for d in self.controller.record(vip.addr).dips
        )
        if key in self.pinned:
            dip, pin_mux, pin_dips = self.pinned[key]
            if mux == pin_mux and dip in dips_now and not dips_now - pin_dips:
                assert delivered.flow.dst_ip == dip
        self.pinned[key] = (delivered.flow.dst_ip, mux, dips_now)

    @rule(which=st.integers(min_value=0, max_value=100))
    def fail_a_switch(self, which):
        alive = [
            s.index for s in self.topology.switches
            if s.index not in self.failed_switches
        ]
        if len(alive) <= 4:
            return  # keep some fabric alive
        switch = alive[which % len(alive)]
        self.controller.fail_switch(switch)
        self.failed_switches.add(switch)

    @rule(which=st.integers(min_value=0, max_value=50))
    def add_a_dip(self, which):
        vips = self._live_vips()
        if not vips:
            return
        vip = vips[which % len(vips)]
        server = self.next_server % self.topology.params.n_servers
        self.next_server += 3
        dip = Dip(
            addr=self.next_dip_addr,
            server_id=server,
            tor=self.topology.server_tor(server),
        )
        self.next_dip_addr += 1
        self.controller.add_dip(vip.addr, dip)
        # Stale pins whose DIPs got remapped by the SMux-bounce are fine;
        # the connection table in SMuxes protects only live SMux flows.
        for key in [k for k in self.pinned if k[0] == vip.addr]:
            del self.pinned[key]

    @rule(which=st.integers(min_value=0, max_value=50))
    def remove_a_dip(self, which):
        vips = [
            v for v in self._live_vips()
            if len(self.controller.record(v.addr).dips) >= 2
        ]
        if not vips:
            return
        vip = vips[which % len(vips)]
        record = self.controller.record(vip.addr)
        victim = record.dips[which % len(record.dips)]
        self.controller.remove_dip(vip.addr, victim.addr)
        for key, dip in list(self.pinned.items()):
            if key[0] == vip.addr and dip == victim.addr:
                del self.pinned[key]

    @rule(which=st.integers(min_value=0, max_value=20))
    def remove_a_vip(self, which):
        vips = self._live_vips()
        if len(vips) <= 2:
            return
        vip = vips[which % len(vips)]
        self.controller.remove_vip(vip.addr)
        for key in [k for k in self.pinned if k[0] == vip.addr]:
            del self.pinned[key]

    @rule(which=st.integers(min_value=0, max_value=20))
    def enable_snat_somewhere(self, which):
        vips = self._live_vips()
        if not vips:
            return
        vip = vips[which % len(vips)]
        try:
            self.controller.enable_snat(vip.addr)
        except Exception:
            pass  # port space can run out under repeated enabling

    # -- invariants -------------------------------------------------------

    @invariant()
    def every_vip_resolves(self):
        for vip in self._live_vips():
            assert self.controller.route_table.next_hops(vip.addr)

    @invariant()
    def table_capacities_respected(self):
        for agent in self.controller.switch_agents.values():
            hmux = agent.hmux
            assert len(hmux.tunnel_table) <= hmux.tunnel_table.capacity
            assert hmux.ecmp_table.used_entries <= hmux.ecmp_table.capacity
            assert len(hmux.host_table) <= hmux.host_table.capacity

    @invariant()
    def records_consistent_with_route_table(self):
        from repro.net.addressing import Prefix
        from repro.net.bgp import MuxRef

        for vip in self._live_vips():
            record = self.controller.record(vip.addr)
            if record.assigned_switch is not None:
                announcers = self.controller.route_table.announcers(
                    Prefix.host(vip.addr)
                )
                assert MuxRef.hmux(record.assigned_switch) in announcers

    @invariant()
    def dataplane_matches_intent(self):
        assert AntiEntropyReconciler(self.controller).diff() == []

    @invariant()
    def intent_is_self_consistent(self):
        """What the anti-entropy diff cannot see, the intent's own
        transitions guarantee."""
        intent = self.controller.intent
        for addr, record in intent.records.items():
            assert record.assigned_switch not in intent.failed_switches
            if addr in intent.degraded:
                assert record.assigned_switch is None
        assert set(intent.snat) <= set(intent.records)
        assert [v.addr for v in self.controller.population] == list(
            self.controller.records()
        )


DuetControllerMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=30, deadline=None,
)
TestDuetControllerStateful = DuetControllerMachine.TestCase
