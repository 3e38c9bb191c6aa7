"""One intent model: every journaled op, crashed everywhere, replays to
its never-crashed twin — and the op table cannot drift.

The 200-schedule differential (``test_recovery_differential.py``) only
generates what the chaos ``EventGenerator`` knows, and only crashes at
the crash points ops declare.  This tier takes each of the 14 journaled
ops by name — including the ones no schedule reaches (``migrate_vip``,
``grant_snat_range``, one-way ``cut_link``/``restore_link``,
``apply_assignment`` onto a dead switch) — and kills the controller

* right after the journal append (intent durable, no side effect yet),
* at every crash point inside the op,
* right before the commit (every side effect done, outcome unrecorded),
* and after the commit,

restores warm and cold, reconciles, and holds the result to
``controller_fingerprint`` equality with a twin that ran the same op
without dying.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple

import pytest

from repro.core.controller import ControllerError, DuetController, SimulatedCrash
from repro.core.intent import REPLAYABLE_OPS
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    controller_fingerprint,
    harvest_dataplane,
)
from repro.workload.vips import VIP_POOL, Dip, Vip

from tests.test_durability import (
    explicit_assignment,
    fresh_dip,
    fresh_vip,
    scripted_controller,
    uncommitted,
    uplinks,
)


def addr_of(vip_id: int) -> int:
    return VIP_POOL.network + 1 + vip_id


def placed_controller() -> DuetController:
    """The scripted deployment with VIPs 0-8 on HMuxes (VIP i on the
    i-th of ToRs + Aggs) and VIP 9 SMux-only."""
    controller = scripted_controller()
    topology = controller.topology
    switches = topology.tors() + topology.aggs()
    controller.apply_assignment(explicit_assignment(
        controller, {i: switches[i] for i in range(9)},
    ))
    return controller


class Scenario(NamedTuple):
    prepare: Callable[[DuetController], None]
    run: Callable[[DuetController], object]


def nothing(controller: DuetController) -> None:
    pass


def tor(controller: DuetController, i: int) -> int:
    return controller.topology.tors()[i]


def agg(controller: DuetController, i: int) -> int:
    return controller.topology.aggs()[i]


def cut_first_uplink(one_way: bool) -> Callable[[DuetController], None]:
    return lambda c: c.cut_link(
        uplinks(c, tor(c, 1))[0], bidirectional=not one_way,
    )


def move_three(c: DuetController) -> None:
    placement = dict(c.assignment.vip_to_switch)
    placement.update({0: agg(c, 3), 1: tor(c, 0), 9: tor(c, 1)})
    del placement[2]
    c.apply_assignment(explicit_assignment(c, placement))


def add_pooled_vip(c: DuetController) -> None:
    """VIP 10 on an Agg: three DIPs, port 80 served by the first two."""
    base = max(d.addr for r in c.records().values() for d in r.dips) + 1
    dips = tuple(
        Dip(addr=base + k, server_id=4 * k, tor=c.topology.server_tor(4 * k))
        for k in range(3)
    )
    c.add_vip(Vip(
        vip_id=10, addr=addr_of(10), dips=dips, traffic_bps=5e7,
        ingress_racks=(), internet_fraction=1.0,
        port_pools=((80, (dips[0].addr, dips[1].addr)),),
    ))
    c.migrate_vip(addr_of(10), agg(c, 2))


def onto_dead_switch(c: DuetController) -> None:
    placement = dict(c.assignment.vip_to_switch)
    placement.update({3: tor(c, 0), 9: tor(c, 0), 4: agg(c, 3)})
    c.apply_assignment(explicit_assignment(c, placement))


SCENARIOS: Dict[str, Scenario] = {
    "add_vip": Scenario(nothing, lambda c: c.add_vip(fresh_vip(c, 10))),
    "remove_vip": Scenario(
        lambda c: c.enable_snat(addr_of(0)),
        lambda c: c.remove_vip(addr_of(0)),
    ),
    "add_dip": Scenario(
        nothing, lambda c: c.add_dip(addr_of(0), fresh_dip(c, addr_of(0))),
    ),
    "add_dip:smux_only": Scenario(
        nothing, lambda c: c.add_dip(addr_of(9), fresh_dip(c, addr_of(9))),
    ),
    "remove_dip": Scenario(
        nothing,
        lambda c: c.remove_dip(addr_of(2), c.record(addr_of(2)).dips[-1].addr),
    ),
    "remove_dip:port_pool": Scenario(
        add_pooled_vip,
        lambda c: c.remove_dip(addr_of(10), c.record(addr_of(10)).dips[0].addr),
    ),
    "migrate_vip": Scenario(
        nothing, lambda c: c.migrate_vip(addr_of(0), agg(c, 3)),
    ),
    "migrate_vip:from_smux": Scenario(
        nothing, lambda c: c.migrate_vip(addr_of(9), tor(c, 4)),
    ),
    "apply_assignment": Scenario(nothing, move_three),
    "apply_assignment:dead_switch": Scenario(
        lambda c: c.fail_switch(tor(c, 0)), onto_dead_switch,
    ),
    "apply_assignment:rebalance": Scenario(
        lambda c: c.fail_switch(tor(c, 0)), lambda c: c.rebalance(),
    ),
    "fail_switch": Scenario(nothing, lambda c: c.fail_switch(tor(c, 0))),
    "recover_switch": Scenario(
        lambda c: c.fail_switch(tor(c, 0)),
        lambda c: c.recover_switch(tor(c, 0)),
    ),
    "fail_smux": Scenario(nothing, lambda c: c.fail_smux(0)),
    "add_smux": Scenario(nothing, lambda c: c.add_smux()),
    # The second cut takes the rack's last uplink: the ToR is isolated
    # and promoted to failed, its VIP falls to the SMuxes.
    "cut_link:isolating": Scenario(
        cut_first_uplink(one_way=False),
        lambda c: c.cut_link(uplinks(c, tor(c, 1))[1]),
    ),
    "cut_link:one_way_isolating": Scenario(
        cut_first_uplink(one_way=True),
        lambda c: c.cut_link(uplinks(c, tor(c, 1))[1], bidirectional=False),
    ),
    "restore_link": Scenario(
        cut_first_uplink(one_way=False),
        lambda c: c.restore_link(uplinks(c, tor(c, 1))[0]),
    ),
    "restore_link:one_way": Scenario(
        cut_first_uplink(one_way=True),
        lambda c: c.restore_link(
            uplinks(c, tor(c, 1))[0], bidirectional=False,
        ),
    ),
    "enable_snat": Scenario(nothing, lambda c: c.enable_snat(addr_of(1))),
    "grant_snat_range": Scenario(
        lambda c: c.enable_snat(addr_of(1)),
        lambda c: c.grant_snat_range(
            addr_of(1), c.record(addr_of(1)).dips[0].addr,
        ),
    ),
}


class BoundaryJournal(WriteAheadJournal):
    """A journal the controller can die at: right after an append lands,
    or right before a commit does."""

    crash_at = None

    def append(self, op, params):
        seq = super().append(op, params)
        if self.crash_at == "append":
            raise SimulatedCrash("after journal append")
        return seq

    def commit(self, seq, effects=None):
        if self.crash_at == "commit":
            raise SimulatedCrash("before journal commit")
        super().commit(seq, effects)


def journaled(scenario: Scenario):
    controller = placed_controller()
    scenario.prepare(controller)
    journal = BoundaryJournal()
    controller.attach_journal(journal)
    return controller, journal


def crash_labels(scenario: Scenario) -> List[str]:
    """The crash points the op passes when nothing kills it."""
    controller, _ = journaled(scenario)
    labels: List[str] = []
    controller.set_crash_hook(lambda label: labels.append(label))
    scenario.run(controller)
    return labels


def crash_modes(scenario: Scenario) -> List[str]:
    points = [f"point:{k}" for k in range(len(crash_labels(scenario)))]
    return ["append", *points, "commit", "done"]


def run_and_recover(scenario: Scenario, mode: str, warm: bool) -> DuetController:
    controller, journal = journaled(scenario)
    if mode.startswith("point:"):
        countdown = [int(mode.split(":")[1])]

        def hook(label: str) -> bool:
            countdown[0] -= 1
            return countdown[0] < 0

        controller.set_crash_hook(hook)
    else:
        journal.crash_at = mode
    try:
        scenario.run(controller)
    except SimulatedCrash:
        assert mode != "done"
        assert len(uncommitted(journal)) == 1
    else:
        assert mode == "done"
        assert not uncommitted(journal)
    journal.crash_at = None
    restored = DuetController.restore(
        journal,
        dataplane=harvest_dataplane(controller) if warm else None,
        topology=controller.topology,
    )
    reconciler = AntiEntropyReconciler(restored)
    assert reconciler.converge().converged
    assert reconciler.diff() == []
    return restored


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_op_crashed_anywhere_restores_to_its_twin(name: str) -> None:
    scenario = SCENARIOS[name]
    twin = placed_controller()
    scenario.prepare(twin)
    scenario.run(twin)
    # The op's own convergence covered everything it touched.
    assert AntiEntropyReconciler(twin).diff() == []
    want = controller_fingerprint(twin)
    for mode in crash_modes(scenario):
        for warm in (True, False):
            restored = run_and_recover(scenario, mode, warm)
            assert controller_fingerprint(restored) == want, (
                f"{name}: crash at {mode}, "
                f"{'warm' if warm else 'cold'} restore"
            )


def test_the_sweep_reaches_every_op_and_the_ops_with_crash_points() -> None:
    """Vacuity guards: the scenarios name all 14 ops, and the ops that
    declare crash points really pass them."""
    assert {name.split(":")[0] for name in SCENARIOS} == REPLAYABLE_OPS
    assert len(REPLAYABLE_OPS) == 14
    assert crash_labels(SCENARIOS["add_dip"]) == [
        "add_dip:withdraw", "add_dip:update", "add_dip:reprogram",
        "program:0:0",
    ]
    assert len(crash_labels(SCENARIOS["migrate_vip"])) == 4
    assert len(crash_labels(SCENARIOS["apply_assignment"])) == 9
    # VIPs 3 and 9 head for the dead switch: announced, never programmed.
    assert [
        label for label in crash_labels(SCENARIOS["apply_assignment:dead_switch"])
        if label.startswith("program:")
    ] == [f"program:4:{agg(placed_controller(), 3)}"]


# -- the op table cannot drift ----------------------------------------------


def test_every_journaled_op_is_replayable_and_every_replay_entry_is_journaled():
    """Drive each public mutating method once on a journaled controller;
    the op names that reach the journal are exactly the intent's replay
    table."""
    journaled_ops = set()

    def collect(journal: WriteAheadJournal) -> None:
        journaled_ops.update(
            r["op"] for r in journal.tail() if r["type"] == "op"
        )

    for scenario in SCENARIOS.values():
        controller, journal = journaled(scenario)
        scenario.run(controller)
        collect(journal)
    # The public methods that journal under another method's op name.
    controller = scripted_controller()
    journal = WriteAheadJournal()
    controller.attach_journal(journal)
    controller.run_initial_assignment()
    controller.rebalance()
    failed, sick = controller.record(addr_of(5)).dips[:2]
    controller.dip_failure(addr_of(5), failed.addr)
    controller.host_agents[sick.server_id].set_health(sick.addr, False)
    assert controller.reap_failed_dips() == [sick.addr]
    collect(journal)
    assert journaled_ops == REPLAYABLE_OPS


def test_an_op_without_a_replay_entry_is_refused_before_it_is_appended():
    controller = scripted_controller()
    journal = WriteAheadJournal()
    controller.attach_journal(journal)
    with pytest.raises(ControllerError, match="no_such_op"):
        with controller._journal_op("no_such_op", {}):
            pytest.fail("the op body must not run")
    assert journal.ops_appended == 0
    assert journal.tail() == []


# -- a one-way cut no longer breaks the solver ------------------------------


def test_rebalance_after_any_one_way_cut_restores_to_its_twin() -> None:
    """``cut_link(i, bidirectional=False)`` then ``rebalance()`` used to
    divide by an empty next-hop list (the router's distance BFS took
    every cut to be duplex).  Now it solves, and the journal replays it."""
    n_links = scripted_controller().topology.n_links
    moved = 0
    for link in range(n_links):
        crashed, twin = placed_controller(), placed_controller()
        crashed.attach_journal(WriteAheadJournal())
        for controller in (crashed, twin):
            controller.cut_link(link, bidirectional=False)
            moved += len(controller.rebalance().steps)
        restored = DuetController.restore(
            crashed.journal,
            dataplane=harvest_dataplane(crashed),
            topology=crashed.topology,
        )
        assert AntiEntropyReconciler(restored).converge().converged
        assert restored.failed_links == {link}
        assert controller_fingerprint(restored) == controller_fingerprint(twin)
    assert moved > 0
