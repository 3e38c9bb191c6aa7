"""Durability: write-ahead journal, crash-restart recovery, anti-entropy.

The journal protocol tests exercise :class:`WriteAheadJournal` directly;
the recovery tests build a live controller via the chaos harness, drive
it through mutating ops, kill it (warm or cold, at boundaries or inside
ops), and hold the restored-and-reconciled controller to
:func:`controller_fingerprint` equality with a never-crashed twin.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

import numpy as np
import pytest

from repro.chaos.engine import ChaosConfig, ChaosEngine, build_controller
from repro.control import RetryPolicy
from repro.core.assignment import Assignment
from repro.core.controller import DuetController, SimulatedCrash
from repro.durability import (
    AntiEntropyReconciler,
    JournalError,
    WriteAheadJournal,
    controller_fingerprint,
    harvest_dataplane,
)
from repro.durability.recovery import snapshot_state
from repro.net.addressing import Prefix
from repro.net.failures import FaultModel
from repro.net.topology import FatTreeParams, Topology
from repro.workload.vips import DIP_POOL, VIP_POOL, Dip, Vip, VipPopulation


def make_controller(seed: int = 11, n_vips: int = 12) -> DuetController:
    return build_controller(ChaosConfig(seed=seed, n_vips=n_vips))


def journaled_controller(seed: int = 11, interval: int = 64):
    controller = make_controller(seed)
    journal = WriteAheadJournal()
    controller.attach_journal(journal, snapshot_interval=interval)
    return controller, journal


def restore_warm(controller: DuetController) -> DuetController:
    restored = DuetController.restore(
        controller.journal,
        dataplane=harvest_dataplane(controller),
        topology=controller.topology,
    )
    AntiEntropyReconciler(restored).converge()
    return restored


# ---------------------------------------------------------------------------
# Journal protocol
# ---------------------------------------------------------------------------

class TestJournalProtocol:
    def test_append_then_commit(self):
        journal = WriteAheadJournal()
        seq = journal.append("add_vip", {"vip": 1})
        assert journal.uncommitted() and journal.ops_since_snapshot == 1
        journal.commit(seq, {"assigned": 3})
        assert not journal.uncommitted()
        kinds = [r["type"] for r in journal.records()]
        assert kinds == ["op", "commit"]

    def test_commit_of_unknown_seq_raises(self):
        journal = WriteAheadJournal()
        with pytest.raises(JournalError):
            journal.commit(0)

    def test_double_commit_raises(self):
        journal = WriteAheadJournal()
        seq = journal.append("x", {})
        journal.commit(seq)
        with pytest.raises(JournalError):
            journal.commit(seq)

    def test_snapshot_refuses_inflight_op(self):
        journal = WriteAheadJournal()
        journal.append("x", {})
        with pytest.raises(JournalError):
            journal.write_snapshot({"s": 1})
        # force is the post-recovery escape hatch: the state already
        # absorbed the rolled-forward tail.
        journal.write_snapshot({"s": 1}, force=True)
        assert journal.snapshot == {"s": 1}

    def test_snapshot_truncates_tail(self):
        journal = WriteAheadJournal()
        for i in range(4):
            journal.commit(journal.append("op", {"i": i}))
        journal.write_snapshot({"s": 2})
        assert journal.tail() == []
        assert journal.ops_since_snapshot == 0
        assert journal.ops_appended == 4  # lifetime counter survives
        assert journal.records_truncated == 8

    def test_meta_written_once(self):
        journal = WriteAheadJournal()
        journal.set_meta({"hash_seed": 1})
        with pytest.raises(JournalError):
            journal.set_meta({"hash_seed": 2})

    def test_jsonl_roundtrip(self, tmp_path):
        journal = WriteAheadJournal()
        journal.set_meta({"hash_seed": 7})
        journal.commit(journal.append("a", {"x": 1}), {"y": 2})
        journal.write_snapshot({"s": 3})
        journal.append("b", {"z": 4})  # interrupted op, no commit
        path = str(tmp_path / "journal.jsonl")
        journal.save(path)
        loaded = WriteAheadJournal.load(path)
        assert loaded.records() == journal.records()
        assert loaded.meta == {"hash_seed": 7}
        assert [r["op"] for r in loaded.uncommitted()] == ["b"]
        # Sequence numbering continues past everything on disk.
        assert loaded.append("c", {}) > 1

    def test_rejects_garbage_lines(self):
        with pytest.raises(JournalError):
            WriteAheadJournal.from_lines(["not json"])
        with pytest.raises(JournalError):
            WriteAheadJournal.from_lines(['{"type": "martian"}'])


# ---------------------------------------------------------------------------
# Restore: warm, cold, roll-forward
# ---------------------------------------------------------------------------

def _mutate(controller: DuetController) -> None:
    """A representative run of journaled mutations."""
    addrs = sorted(controller.records())
    controller.enable_snat(addrs[0])
    controller.fail_switch(0)
    controller.add_smux()
    controller.rebalance()
    record = controller.records()[addrs[1]]
    if len(record.dips) > 1:
        controller.remove_dip(addrs[1], record.dips[-1].addr)
    controller.recover_switch(0)


# -- a scripted deployment and the golden journal ---------------------------
#
# Hand-built — no workload generator, no solver — so the journal it
# writes depends on the controller and the journal format alone.
# ``tests/data/journal_parent.jsonl`` is ``golden_journal()`` as written
# by the commit *before* the controller and its replay shared one
# ``ControllerIntent``; ``tests/data/make_journal_parent.py`` regenerates
# it (and what that commit restored it to) from a checkout of your
# choice.

GOLDEN_JOURNAL = pathlib.Path(__file__).parent / "data" / "journal_parent.jsonl"
GOLDEN_EXPECTED = GOLDEN_JOURNAL.with_name("journal_parent.expected.json")


def scripted_controller() -> DuetController:
    """12 switches, 10 VIPs of 2-4 DIPs (VIP 0 with a port pool), no
    assignment yet."""
    topology = Topology(FatTreeParams(
        n_containers=2, tors_per_container=3, aggs_per_container=2,
        n_cores=2, servers_per_tor=8,
    ))
    vips = []
    next_dip = DIP_POOL.network + 1
    for i in range(10):
        dips = []
        for j in range(2 + i % 3):
            server = (5 * i + 7 * j) % topology.params.n_servers
            dips.append(Dip(
                addr=next_dip, server_id=server,
                tor=topology.server_tor(server),
            ))
            next_dip += 1
        vips.append(Vip(
            vip_id=i, addr=VIP_POOL.network + 1 + i, dips=tuple(dips),
            traffic_bps=1e8 * (i + 1), ingress_racks=(),
            internet_fraction=1.0,
            port_pools=((80, (dips[0].addr,)),) if i == 0 else (),
        ))
    return DuetController(
        topology, VipPopulation(topology, vips), n_smuxes=2, hash_seed=7,
    )


def explicit_assignment(
    controller: DuetController, placement: Dict[int, int],
) -> Assignment:
    """``placement`` (vip_id -> switch) as an Assignment, every other
    VIP unassigned."""
    topology = controller.topology
    return Assignment(
        topology=topology,
        config=controller.config,
        vip_to_switch=dict(placement),
        unassigned=[
            v.vip_id for v in controller.population
            if v.vip_id not in placement
        ],
        link_utilization=np.zeros(topology.n_links),
        memory_utilization=np.zeros(topology.n_switches),
        demands={},
    )


def fresh_dip_on(controller: DuetController, server: int) -> Dip:
    """The next unused DIP address, on ``server``."""
    return Dip(
        addr=max(
            d.addr for r in controller.records().values() for d in r.dips
        ) + 1,
        server_id=server,
        tor=controller.topology.server_tor(server),
    )


def fresh_dip(controller: DuetController, vip_addr: int) -> Dip:
    """A new DIP for the VIP, next to its first one."""
    return fresh_dip_on(
        controller, controller.record(vip_addr).dips[0].server_id,
    )


def fresh_vip(controller: DuetController, vip_id: int) -> Vip:
    server = (3 * vip_id) % controller.topology.params.n_servers
    return Vip(
        vip_id=vip_id, addr=VIP_POOL.network + 1 + vip_id,
        dips=(fresh_dip_on(controller, server),),
        traffic_bps=5e7, ingress_racks=(), internet_fraction=1.0,
    )


def uplinks(controller: DuetController, tor: int):
    """The ToR -> Agg link indices of one rack."""
    return [
        link.index for link in controller.topology.links
        if link.src == tor
    ]


def drive_every_op(c: DuetController) -> None:
    """Some forty mixed lifecycle ops through the public API, reaching all 14
    journaled op names — including the ones no chaos schedule generates
    (``migrate_vip``, ``grant_snat_range``, one-way ``cut_link`` /
    ``restore_link``, ``apply_assignment`` onto a dead switch)."""
    topology = c.topology
    tors, aggs = topology.tors(), topology.aggs()
    addr = {v.vip_id: v.addr for v in c.population}
    c.apply_assignment(explicit_assignment(
        c, {i: (tors + aggs)[i % 10] for i in range(9)},
    ))
    c.enable_snat(addr[0])
    c.grant_snat_range(addr[0], c.record(addr[0]).dips[1].addr)
    c.fail_switch(tors[0])                       # hosts VIP 0
    c.add_smux()
    # VIP 0 back onto the dead switch (degrades), VIP 1 moves, VIP 9 lands.
    c.apply_assignment(explicit_assignment(c, {
        **{i: (tors + aggs)[i % 10] for i in range(2, 9)},
        0: tors[0], 1: aggs[0], 9: tors[1],
    }))
    c.remove_dip(addr[2], c.record(addr[2]).dips[-1].addr)
    c.add_dip(addr[3], fresh_dip(c, addr[3]))    # bounces off its HMux
    c.add_dip(addr[0], fresh_dip(c, addr[0]))    # SMux-only: no bounce
    c.recover_switch(tors[0])
    c.migrate_vip(addr[0], tors[0])              # degraded -> placed
    c.migrate_vip(addr[4], aggs[1])              # HMux -> HMux
    one_way = uplinks(c, tors[2])[0]
    c.cut_link(one_way, bidirectional=False)
    c.restore_link(one_way, bidirectional=False)
    for link in uplinks(c, tors[1]):             # the second cut isolates
        c.cut_link(link)                         # tors[1]: VIPs 1/9 fall
    for link in uplinks(c, tors[1]):
        c.restore_link(link)
    c.recover_switch(tors[1])
    c.fail_smux(0)
    c.add_vip(fresh_vip(c, 10))
    c.remove_vip(addr[5])
    c.add_dip(addr[6], fresh_dip(c, addr[6]))
    c.remove_dip(addr[6], c.record(addr[6]).dips[0].addr)
    c.enable_snat(addr[7])
    c.add_smux()
    c.fail_switch(aggs[1])                       # VIP 4 falls
    c.apply_assignment(explicit_assignment(c, {
        **dict(c.assignment.vip_to_switch), 1: tors[3], 9: tors[1], 10: tors[4],
    }))
    c.migrate_vip(addr[8], tors[5])
    c.add_vip(fresh_vip(c, 11))
    c.add_dip(VIP_POOL.network + 1 + 11, fresh_dip(c, VIP_POOL.network + 1 + 11))
    c.recover_switch(aggs[1])
    c.grant_snat_range(addr[7], c.record(addr[7]).dips[0].addr)
    c.remove_vip(addr[0])                        # takes its SNAT grants along
    c.cut_link(uplinks(c, aggs[0])[-1])          # Agg-Core: isolates nothing
    c.restore_link(uplinks(c, aggs[0])[-1])
    c.remove_dip(addr[3], c.record(addr[3]).dips[0].addr)


def golden_journal() -> WriteAheadJournal:
    """``drive_every_op`` journaled from the start, ending with the
    controller dying inside one last ``add_dip`` (an uncommitted tail
    op) — and carrying the retired ``engine`` config key."""
    controller = scripted_controller()
    journal = WriteAheadJournal()
    controller.attach_journal(journal)
    drive_every_op(controller)
    victim = next(
        a for a, r in controller.records().items()
        if r.assigned_switch is not None
    )
    controller.set_crash_hook(lambda label: label == "add_dip:reprogram")
    with pytest.raises(SimulatedCrash):
        controller.add_dip(victim, fresh_dip(controller, victim))
    journal.meta["config"]["engine"] = "fast"
    return journal


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


class TestRestore:
    def test_warm_restore_equals_live(self):
        controller, _ = journaled_controller()
        _mutate(controller)
        want = controller_fingerprint(controller)
        restored = restore_warm(controller)
        assert controller_fingerprint(restored) == want

    def test_cold_restore_converges_to_intent(self):
        controller, _ = journaled_controller()
        _mutate(controller)
        want = controller_fingerprint(controller)
        cold = DuetController.restore(controller.journal)
        report = AntiEntropyReconciler(cold).converge()
        assert report.converged and report.n_repairs > 0
        assert AntiEntropyReconciler(cold).diff() == []
        assert controller_fingerprint(cold) == want

    def test_restores_journal_written_with_retired_config_keys(self, tmp_path):
        """A journal written before the ``engine`` selector was removed
        carries ``"engine": "fast"`` in its meta config; restoring it
        drops the retired key instead of failing."""
        controller, journal = journaled_controller()
        _mutate(controller)
        journal.meta["config"]["engine"] = "fast"
        path = str(tmp_path / "parent-format.jsonl")
        journal.save(path)
        loaded = WriteAheadJournal.load(path)
        assert loaded.meta["config"]["engine"] == "fast"
        cold = DuetController.restore(loaded)
        AntiEntropyReconciler(cold).converge()
        assert cold.config == controller.config
        assert controller_fingerprint(cold) == controller_fingerprint(controller)

        # The same for a journal the *parent* commit wrote (some forty mixed ops
        # and an uncommitted tail op): this commit replays it to the
        # snapshot the parent would write and reconciles it to the
        # fingerprint the parent reached ...
        expected = json.loads(GOLDEN_EXPECTED.read_text(encoding="utf-8"))
        golden = WriteAheadJournal.load(str(GOLDEN_JOURNAL))
        assert golden.meta["config"]["engine"] == "fast"
        assert [r["op"] for r in golden.uncommitted()] == ["add_dip"]
        replayed = DuetController.restore(golden)
        assert canonical(snapshot_state(replayed)) == canonical(
            expected["snapshot"]
        )
        assert AntiEntropyReconciler(replayed).converge().converged
        assert canonical(controller_fingerprint(replayed)) == canonical(
            expected["fingerprint"]
        )
        # ... and, driven through the same ops, writes the same journal
        # byte for byte: no record (meta, snapshot, op params, effects)
        # changed shape.
        assert golden_journal().to_lines() == (
            GOLDEN_JOURNAL.read_text(encoding="utf-8").splitlines()
        )

    def test_restores_parent_journal_carrying_retired_retry_meta(self):
        """The parent wrote ``max_program_attempts`` / ``retry_backoff_s``
        into the meta beside ``retry_policy``; the constructor no longer
        takes them, and the restore reads the policy alone."""
        golden = WriteAheadJournal.load(str(GOLDEN_JOURNAL))
        assert golden.meta["max_program_attempts"] == 3
        assert golden.meta["retry_backoff_s"] == 0.05
        restored = DuetController.restore(golden)
        assert restored.retry_policy == RetryPolicy(**golden.meta["retry_policy"])
        expected = json.loads(GOLDEN_EXPECTED.read_text(encoding="utf-8"))
        assert canonical(snapshot_state(restored)) == canonical(
            expected["snapshot"]
        )

    def test_snapshot_interval_bounds_tail(self):
        controller, journal = journaled_controller(interval=2)
        _mutate(controller)
        assert journal.ops_since_snapshot < 2
        assert journal.snapshots_written > 1
        want = controller_fingerprint(controller)
        assert controller_fingerprint(restore_warm(controller)) == want

    def test_rollforward_interrupted_add_dip(self):
        """Crashing at each fault point inside add_dip must roll the op
        forward: the restored controller matches a twin that completed
        the same add_dip without crashing."""
        for crash_at in (1, 2, 3):
            crashed = make_controller(seed=23)
            twin = make_controller(seed=23)
            crashed.attach_journal(WriteAheadJournal())
            addr = sorted(crashed.records())[0]
            dip_addr = max(
                d.addr for r in crashed.records().values() for d in r.dips
            ) + 1
            server = crashed.records()[addr].dips[0].server_id
            new_dip = Dip(
                addr=dip_addr, server_id=server,
                tor=crashed.topology.server_tor(server),
            )
            state = {"n": crash_at}

            def hook(label: str) -> bool:
                state["n"] -= 1
                return state["n"] <= 0

            crashed.set_crash_hook(hook)
            with pytest.raises(SimulatedCrash):
                crashed.add_dip(addr, new_dip)
            assert crashed.journal.uncommitted()
            restored = restore_warm(crashed)
            twin.add_dip(addr, new_dip)
            assert (
                controller_fingerprint(restored)
                == controller_fingerprint(twin)
            ), f"crash point {crash_at}"

    def test_rollforward_interrupted_plan(self):
        """Crashing between plan steps inside rebalance rolls the whole
        plan forward — the journaled plan replays, never the heuristics."""
        crashed = make_controller(seed=31)
        twin = make_controller(seed=31)
        crashed.attach_journal(WriteAheadJournal())
        for c in (crashed, twin):
            c.fail_switch(1)
        state = {"n": 2}

        def hook(label: str) -> bool:
            state["n"] -= 1
            return state["n"] <= 0

        crashed.set_crash_hook(hook)
        try:
            crashed.recover_switch(1)
            crashed.rebalance()
        except SimulatedCrash:
            pass
        else:
            pytest.skip("no plan step reached a crash point")
        restored = restore_warm(crashed)
        twin.recover_switch(1)
        twin.rebalance()
        assert controller_fingerprint(restored) == controller_fingerprint(twin)

    def test_smux_id_high_water_mark_survives_restore(self):
        """SMux ids are never reused, even across a crash-restart that
        loses the live fleet objects."""
        controller, _ = journaled_controller(seed=5)
        ids_before = [s.smux_id for s in controller.smuxes]
        controller.fail_smux(ids_before[0])
        controller.add_smux()
        grown = [s.smux_id for s in controller.smuxes]
        assert max(grown) == max(ids_before) + 1
        restored = restore_warm(controller)
        assert [s.smux_id for s in restored.smuxes] == grown
        restored.add_smux()
        new_id = max(s.smux_id for s in restored.smuxes)
        assert new_id == max(grown) + 1
        assert ids_before[0] not in {s.smux_id for s in restored.smuxes}

    def test_snat_grants_survive_restore(self):
        controller, _ = journaled_controller(seed=9)
        addr = sorted(controller.records())[2]
        controller.enable_snat(addr)
        record = controller.records()[addr]
        controller.grant_snat_range(addr, record.dips[0].addr)
        want = controller.snat_managers()[addr].to_state()
        restored = restore_warm(controller)
        assert restored.snat_managers()[addr].to_state() == want
        # The next allocation continues where the dead controller's
        # manager stopped — ranges stay disjoint across incarnations.
        restored.grant_snat_range(addr, record.dips[0].addr)
        assert restored.snat_managers()[addr].validate_disjoint()


# ---------------------------------------------------------------------------
# Faulted programming: a retry lands what a never-faulted twin holds, and
# an abandoned one leaves the switch clean
# ---------------------------------------------------------------------------

class FaultAtCall(FaultModel):
    """Fault exactly on the Nth programming call (1-based), once — or,
    with ``every_after``, on every call past the Nth."""

    def __init__(self, n: int, every_after: bool = False) -> None:
        self.n = n
        self.every_after = every_after
        self.calls = 0

    def attempt(self, op: str, switch_index: int, vip: int) -> bool:
        self.calls += 1
        return self.calls > self.n if self.every_after else self.calls == self.n


def _switch_view(controller, agent, addr):
    from repro.durability.reconcile import _hmux_table_fingerprint

    return (
        _hmux_table_fingerprint(agent),
        controller.route_table.announcers(Prefix.host(addr)),
    )


def _with_pooled_vip(seed: int = 17):
    """A controller plus a new SMux-only VIP of three DIPs with two port
    pools, so programming it is three faultable writes (the entry, then
    one rule per pool); and the switch it will migrate to."""
    controller = make_controller(seed=seed)
    topology = controller.topology
    base = max(
        d.addr for r in controller.records().values() for d in r.dips
    ) + 1
    servers = [5 * k % topology.params.n_servers for k in range(3)]
    dips = tuple(
        Dip(addr=base + k, server_id=s, tor=topology.server_tor(s))
        for k, s in enumerate(servers)
    )
    vip = Vip(
        vip_id=max(v.vip_id for v in controller.population) + 1,
        addr=max(controller.records()) + 1, dips=dips, traffic_bps=5e7,
        ingress_racks=(), internet_fraction=1.0,
        port_pools=((80, (dips[0].addr,)), (443, (dips[0].addr, dips[1].addr))),
    )
    controller.add_vip(vip)
    return controller, vip.addr, topology.aggs()[0]


class TestFaultedProgramming:
    def test_fault_at_every_write_of_a_migration_matches_the_twin(self):
        """Whichever write of the programming pass the transient fault
        hits, the retry lands the switch exactly where a never-faulted
        migration does."""
        twin, addr, target = _with_pooled_vip()
        assert twin.migrate_vip(addr, target) == target
        want = _switch_view(twin, twin.switch_agents[target], addr)
        for fault_at in (1, 2, 3):
            controller, addr, target = _with_pooled_vip()
            before = controller.stats_snapshot()
            controller.set_fault_model(FaultAtCall(fault_at))
            assert controller.migrate_vip(addr, target) == target, (
                f"fault at write {fault_at} never recovered"
            )
            after = controller.stats_snapshot()
            for key in ("transient_faults", "unwinds", "retries"):
                assert after[key] - before[key] == 1, key
            agent = controller.switch_agents[target]
            assert _switch_view(controller, agent, addr) == want, (
                f"fault at write {fault_at} changed the converged state"
            )
            assert AntiEntropyReconciler(controller).diff() == []

    def test_exhausted_retries_leave_the_switch_clean_and_the_vip_degraded(self):
        """The entry lands but every port rule faults: once the retry
        budget is spent the VIP degrades to the SMux backstop and the
        switch holds nothing of it."""
        controller, addr, target = _with_pooled_vip()
        agent = controller.switch_agents[target]
        clean = _switch_view(controller, agent, addr)
        before = controller.stats_snapshot()
        controller.set_fault_model(FaultAtCall(1, every_after=True))
        assert controller.migrate_vip(addr, target) is None
        after = controller.stats_snapshot()
        delta = {key: after[key] - before[key] for key in after}
        assert delta["op_timeouts"] == delta["degraded"] == 1
        assert delta["unwinds"] == delta["transient_faults"] == delta["attempts"] > 1
        assert addr in controller.degraded_vips
        assert _switch_view(controller, agent, addr) == clean
        assert AntiEntropyReconciler(controller).diff() == []


class TestCapacityExhaustion:
    def test_full_tunnel_table_degrades_add_dip_without_wedging_journal(self):
        """A full tunnelling table raises ``TableFullError`` (not
        ``TableEntryError``) when add_dip re-programs the grown VIP.
        That is a deterministic capacity NACK: the VIP degrades to
        SMux-only inside the op, the op commits, and the journal keeps
        snapshotting — it must not escape between append and commit."""
        controller, journal = journaled_controller(seed=11, interval=8)
        addr, record = next(
            (a, r) for a, r in sorted(controller.records().items())
            if r.assigned_switch is not None
        )
        switch = record.assigned_switch
        agent = controller.switch_agents[switch]
        # Leave room for the VIP's current DIPs only: the withdraw frees
        # them, and the re-program with one more DIP cannot fit.
        tunnel = agent.hmux.tunnel_table
        while tunnel.free_entries:
            tunnel.allocate_block([0x0B00_0001])
        server = record.dips[0].server_id
        new_dip = Dip(
            addr=max(
                d.addr for r in controller.records().values() for d in r.dips
            ) + 1,
            server_id=server,
            tor=controller.topology.server_tor(server),
        )
        rejected_before = controller.ledger.rejected

        controller.add_dip(addr, new_dip)

        assert record.assigned_switch is None
        assert addr in controller.degraded_vips
        assert not agent.hmux.has_vip(addr)
        assert controller.ledger.rejected == rejected_before + 1
        assert all(smux.has_vip(addr) for smux in controller.smuxes)
        assert new_dip.addr in controller.smuxes[0].dips_of(addr)
        assert not journal.uncommitted()

        # The next 64 ops cross eight snapshot boundaries cleanly.
        snapshots_before = journal.snapshots_written
        dip_addr = record.dips[0].addr
        for _ in range(32):
            controller.remove_dip(addr, new_dip.addr)
            controller.add_dip(addr, new_dip)
        assert dip_addr in controller.smuxes[0].dips_of(addr)
        assert not journal.uncommitted()
        assert journal.snapshots_written >= snapshots_before + 8

        restored = restore_warm(controller)
        assert (
            controller_fingerprint(restored)
            == controller_fingerprint(controller)
        )


# ---------------------------------------------------------------------------
# Stats: snapshot aggregation and monotonicity
# ---------------------------------------------------------------------------

STAT_KEYS = (
    "attempts", "retries", "transient_faults", "degraded",
    "skipped_dead_switch", "backoff_s", "unwinds",
    "reconcile_rounds", "reconcile_repairs", "op_timeouts",
    "journal_ops", "journal_snapshots",
)


class TestStats:
    def test_snapshot_has_every_counter(self):
        controller, _ = journaled_controller()
        snap = controller.stats_snapshot()
        assert set(snap) == set(STAT_KEYS)

    def test_snapshot_monotone_under_ops(self):
        controller, _ = journaled_controller()
        before = controller.stats_snapshot()
        _mutate(controller)
        after = controller.stats_snapshot()
        assert all(after[k] >= before[k] for k in STAT_KEYS)
        assert after["journal_ops"] > before["journal_ops"]

    def test_engine_totals_survive_crashes(self):
        """Per-incarnation ProgrammingStats die with each crash; the
        engine's totals must keep counting across all of them."""
        config = ChaosConfig(seed=4, n_events=90, n_vips=10, crash_prob=0.1)
        engine = ChaosEngine(config)
        report = engine.run()
        assert report.ok, report.violations[:3]
        assert report.crashes > 0
        totals = report.stats
        live = engine.controller.stats_snapshot()
        assert all(totals[k] >= live[k] for k in STAT_KEYS)
        assert totals["reconcile_rounds"] >= report.crashes
        # Journal counters are lifetime values of the one shared
        # journal, not per-incarnation — totals must not double-count.
        assert totals["journal_ops"] == engine.controller.journal.ops_appended


# ---------------------------------------------------------------------------
# Deterministic iteration of health/traffic collection and reaping
# ---------------------------------------------------------------------------

class TestDeterministicCollection:
    def test_reports_are_twin_stable(self):
        """Iteration order is fixed (sorted servers, sorted keys within
        each server's report), so twin controllers emit identical
        orderings — no set-iteration nondeterminism."""
        a = make_controller(seed=2)
        b = make_controller(seed=2)
        assert list(a.collect_health_reports()) == list(
            b.collect_health_reports()
        )
        assert list(a.collect_traffic_reports()) == list(
            b.collect_traffic_reports()
        )

    def test_reap_failed_dips_twin_stable(self):
        a = make_controller(seed=2)
        b = make_controller(seed=2)
        doomed = []
        for addr in sorted(a.records())[:3]:
            record = a.records()[addr]
            if len(record.dips) > 1:
                doomed.append((record.dips[0].server_id, record.dips[0].addr))
        for c in (a, b):
            for server, dip in doomed:
                c.host_agents[server].set_health(dip, False)
            c.reap_failed_dips()
        assert controller_fingerprint(a) == controller_fingerprint(b)


# ---------------------------------------------------------------------------
# Engine-agnostic recovery: batch caches stay coherent across a crash
# ---------------------------------------------------------------------------

class TestBatchEngineRecovery:
    def test_batch_cache_invalidates_across_crash_restore(self):
        """A BatchHMux built before the crash wraps the surviving HMux
        object; reconciliation bumps ``layout_version``, so the stale
        cache must rebuild and agree with a fresh engine."""
        import numpy as np

        from repro.dataplane.batch import BatchHMux, FlowBatch
        from repro.dataplane.packet import make_tcp_packet
        from repro.workload.vips import CLIENT_POOL

        controller, _ = journaled_controller(seed=13)
        index, agent = next(
            (i, a) for i, a in sorted(controller.switch_agents.items())
            if a.hmux.vips()
        )
        vips = sorted(agent.hmux.vips())
        packets = [
            make_tcp_packet(
                CLIENT_POOL.network + 0x900 + i, vip, 40000 + i, 80
            )
            for i, vip in enumerate(vips * 3)
        ]
        stale = BatchHMux(agent.hmux)
        stale.process(FlowBatch.from_packets(packets))  # warm the cache
        version_before = agent.hmux.layout_version
        # Kill the controller inside an add_dip so recovery has real
        # drift (an interrupted bounce) to roll forward and repair.
        addr = vips[0]
        record = controller.records()[addr]
        dip_addr = max(
            d.addr for r in controller.records().values() for d in r.dips
        ) + 1
        server = record.dips[0].server_id
        state = {"n": 2}

        def hook(label: str) -> bool:
            state["n"] -= 1
            return state["n"] <= 0

        controller.set_crash_hook(hook)
        with pytest.raises(SimulatedCrash):
            controller.add_dip(addr, Dip(
                addr=dip_addr, server_id=server,
                tor=controller.topology.server_tor(server),
            ))
        restored = restore_warm(controller)
        survivor = restored.switch_agents[index].hmux
        assert survivor is agent.hmux  # warm restore adopts the object
        assert survivor.layout_version > version_before
        live = [p for p in packets if survivor.has_vip(p.flow.dst_ip)]
        if not live:
            pytest.skip("reconciliation moved every probe VIP off-switch")
        fresh = BatchHMux(survivor)
        got_stale = stale.process(FlowBatch.from_packets(live))
        got_fresh = fresh.process(FlowBatch.from_packets(live))
        assert np.array_equal(got_stale.target, got_fresh.target)
        assert np.array_equal(got_stale.action, got_fresh.action)
