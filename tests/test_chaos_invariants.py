"""Tests for repro.chaos.invariants: the checker catches planted
corruption, and the flow-affinity tracker separates legitimate remaps
from broken affinity."""

import pytest

from repro.chaos import (
    ChaosConfig,
    FlowAffinityTracker,
    InvariantChecker,
    Violation,
    build_controller,
)
from repro.core.controller import DuetController
from repro.durability.journal import WriteAheadJournal
from repro.net.addressing import Prefix, format_ip
from repro.net.bgp import MuxRef
from repro.workload.vips import generate_population


@pytest.fixture()
def controller():
    return build_controller(ChaosConfig(seed=0, n_vips=16))


@pytest.fixture()
def checker(controller):
    return InvariantChecker(controller)


def hmux_vip(controller):
    return next(
        a for a, r in sorted(controller.records().items())
        if r.assigned_switch is not None
    )


def smux_only_vip(controller):
    for a, r in sorted(controller.records().items()):
        if r.assigned_switch is None:
            return a
    # Everything fit on HMuxes: manufacture an SMux-only VIP by killing
    # and recovering its host switch (displaced VIPs stay on the SMux
    # backstop until the next rebalance).
    addr, record = next(iter(sorted(controller.records().items())))
    switch = record.assigned_switch
    controller.fail_switch(switch)
    controller.recover_switch(switch)
    return addr


class TestChecker:
    def test_healthy_controller_is_clean(self, checker):
        assert checker.check() == []

    def test_stays_clean_through_benign_lifecycle(self, controller, checker):
        vip = hmux_vip(controller)
        switch = controller.vip_location(vip)
        controller.fail_switch(switch)
        assert checker.check() == []
        controller.recover_switch(switch)
        controller.rebalance()
        assert checker.check() == []

    def test_detects_route_to_dead_mux(self, controller, checker):
        vip = hmux_vip(controller)
        switch = controller.vip_location(vip)
        controller.fail_switch(switch)
        # Plant a route pointing back at the dead switch, bypassing the
        # controller (a lost BGP withdrawal).
        controller.route_table.announce(
            Prefix.host(vip), MuxRef.hmux(switch)
        )
        violations = checker.check()
        assert "route-liveness" in {v.invariant for v in violations}
        assert Violation(
            "intent-matches-dataplane",
            f"failed switch {switch} holds residual state",
        ) in violations

    def test_detects_rogue_host_route(self, controller, checker):
        """A live switch announcing a /32 it never programmed hijacks
        the VIP (the CLI's --sabotage-at scenario)."""
        vip = smux_only_vip(controller)
        rogue = next(
            i for i in sorted(controller.switch_agents)
            if not controller.switch_agents[i].hmux.has_vip(vip)
        )
        controller.route_table.announce(Prefix.host(vip), MuxRef.hmux(rogue))
        violations = checker.check()
        assert Violation(
            "intent-matches-dataplane",
            f"mux {MuxRef.hmux(rogue)} VIP {format_ip(vip)} announces "
            "a stray /32",
        ) in violations
        assert "reachability" in {v.invariant for v in violations}

    def test_detects_population_record_divergence(self, controller):
        """The population is a view of the records, so the two cannot
        diverge: it follows add_vip, remove_vip and a restore, and the
        population the controller was built from is never written."""
        bootstrap = generate_population(
            controller.topology, n_vips=16, total_traffic_bps=4e9, seed=0,
        )
        before = list(bootstrap)
        fresh = DuetController(controller.topology, bootstrap)
        journal = WriteAheadJournal()
        fresh.attach_journal(journal)

        def addrs(c):
            return [v.addr for v in c.population]

        vip = before[0]
        fresh.remove_vip(vip.addr)
        assert addrs(fresh) == list(fresh.records())
        fresh.add_vip(vip)
        assert addrs(fresh) == list(fresh.records())
        assert addrs(fresh)[-1] == vip.addr
        assert list(bootstrap) == before
        # Restored from the journal's snapshot plus the two logged ops.
        assert addrs(DuetController.restore(journal)) == addrs(fresh)

    def test_detects_residual_state_on_failed_switch(
        self, controller, checker
    ):
        vip = hmux_vip(controller)
        switch = controller.vip_location(vip)
        record = controller.record(vip)
        controller.fail_switch(switch)
        # Re-program the dead ASIC behind the controller's back.
        controller.switch_agents[switch].hmux.program_vip(
            vip, record.dip_addrs()
        )
        assert Violation(
            "intent-matches-dataplane",
            f"failed switch {switch} holds residual state",
        ) in checker.check()

    def test_violation_formatting(self, controller, checker):
        vip = hmux_vip(controller)
        switch = controller.vip_location(vip)
        controller.fail_switch(switch)
        controller.route_table.announce(
            Prefix.host(vip), MuxRef.hmux(switch)
        )
        text = [str(v) for v in checker.check()]
        assert any(t.startswith("[route-liveness]") for t in text)


class TestFlowAffinityTracker:
    @pytest.fixture()
    def tracker(self, controller):
        t = FlowAffinityTracker(controller, seed=0)
        t.prime()
        return t

    def test_clean_after_prime(self, tracker):
        assert tracker.check() == []

    def test_survives_unrelated_switch_failure(self, controller, tracker):
        """Hash consistency across planes (S3.3.1): a VIP falling from
        its HMux to the SMuxes keeps every established flow on its DIP,
        so the tracker reports nothing."""
        vip = hmux_vip(controller)
        controller.fail_switch(controller.vip_location(vip))
        assert tracker.check() == []

    def test_survives_smux_churn(self, controller, tracker):
        controller.add_smux()
        assert tracker.check() == []
        controller.fail_smux(0)
        assert tracker.check() == []

    def test_own_dip_removal_reprimes(self, controller, tracker):
        """Removing a flow's own DIP legitimately remaps exactly that
        flow; the tracker re-establishes instead of flagging."""
        victim_flow, vip = next(
            (f, v) for f, v in tracker._vip_of.items()
            if f in tracker._expected
            and len(controller.record(v).dips) >= 2
        )
        old_dip = tracker._expected[victim_flow].dip
        controller.remove_dip(vip, old_dip)
        assert tracker.check() == []
        new_dip = tracker._expected[victim_flow].dip
        assert new_dip != old_dip
        assert new_dip in set(controller.record(vip).dip_addrs())

    def test_evolved_layout_does_not_false_positive(
        self, controller, tracker
    ):
        """The sequence that motivated provenance tracking: a resilient
        DIP removal evolves the HMux layout in place, then the switch
        dies and the SMux serves from a *fresh* layout over the same
        shrunk set.  Flows may land elsewhere — that is not an affinity
        break."""
        vip = next(
            a for a, r in sorted(controller.records().items())
            if r.assigned_switch is not None and len(r.dips) >= 3
        )
        record = controller.record(vip)
        tracked = {
            e.dip for f, e in tracker._expected.items()
            if tracker._vip_of[f] == vip
        }
        victim = next(
            d.addr for d in record.dips if d.addr not in tracked
        )
        controller.remove_dip(vip, victim)
        assert tracker.check() == []
        controller.fail_switch(controller.vip_location(vip))
        assert tracker.check() == []

    def test_detects_broken_forwarding(self, controller, tracker):
        """A hijacked /32 blackholes established flows: the tracker
        must flag it (this is what the sabotage event plants)."""
        vip = smux_only_vip(controller)
        rogue = next(
            i for i in sorted(controller.switch_agents)
            if not controller.switch_agents[i].hmux.has_vip(vip)
        )
        controller.route_table.announce(Prefix.host(vip), MuxRef.hmux(rogue))
        violations = tracker.check()
        assert violations
        assert all(v.invariant == "flow-affinity" for v in violations)

    def test_removed_vip_is_dropped(self, controller, tracker):
        vip = smux_only_vip(controller)
        controller.remove_vip(vip)
        from repro.chaos import ChaosEvent, EventKind

        tracker.note(ChaosEvent(
            kind=EventKind.REMOVE_VIP, params={"vip": vip},
        ))
        assert tracker.check() == []
        assert vip not in set(tracker._vip_of.values())
