"""Crash-restart recovery: journal -> intent -> restored controller.

Recovery has three layers:

1. :func:`snapshot_state` — serialize a live controller's *intent*
   (records, assignment, SNAT grants, SMux fleet, failure sets) into the
   JSON-safe checkpoint the journal stores.
2. :class:`IntentState` — rebuild intent from snapshot + log replay.
   Committed ops replay from their params plus recorded effects;  an op
   record with no commit is an op the controller died inside and is
   **rolled forward**: its intent was durable before the first side
   effect, so the recovered state adopts the op's target and the
   reconciler drives the dataplane there.
3. :func:`restore_controller` — materialize a
   :class:`~repro.core.controller.DuetController` around the recovered
   intent, adopting the surviving dataplane (switches, SMuxes and host
   agents outlive a controller crash) or building an empty one for the
   cold-restart path (``repro recover``).

The restored controller is *not* reconciled yet — run
:class:`~repro.durability.reconcile.AntiEntropyReconciler` to repair
drift between intent and dataplane.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Set

import numpy as np

from repro.core.assignment import Assignment, AssignmentConfig
from repro.core.snat import SnatPortManager
from repro.durability.journal import WriteAheadJournal
from repro.net.failures import FailureScenario, isolated_switches
from repro.net.topology import Topology
from repro.workload.serialization import params_from_dict
from repro.workload.vips import Dip, Vip, VipPopulation


class RecoveryError(Exception):
    """The journal cannot be turned back into a controller."""


# -- VIP/DIP serialization (the save_population schema, reused) -------------

def dip_to_dict(dip: Dip) -> Dict[str, Any]:
    return {"addr": dip.addr, "server_id": dip.server_id, "weight": dip.weight}


def dip_from_dict(data: Dict[str, Any], topology: Topology) -> Dip:
    return Dip(
        addr=data["addr"],
        server_id=data["server_id"],
        tor=topology.server_tor(data["server_id"]),
        weight=data.get("weight", 1.0),
    )


def vip_to_dict(vip: Vip) -> Dict[str, Any]:
    return {
        "vip_id": vip.vip_id,
        "addr": vip.addr,
        "traffic_bps": vip.traffic_bps,
        "internet_fraction": vip.internet_fraction,
        "latency_sensitive": vip.latency_sensitive,
        "ingress_racks": [[tor, frac] for tor, frac in vip.ingress_racks],
        "port_pools": [[port, list(pool)] for port, pool in vip.port_pools],
        "dips": [dip_to_dict(d) for d in vip.dips],
    }


def vip_from_dict(data: Dict[str, Any], topology: Topology) -> Vip:
    return Vip(
        vip_id=data["vip_id"],
        addr=data["addr"],
        dips=tuple(dip_from_dict(d, topology) for d in data["dips"]),
        traffic_bps=data["traffic_bps"],
        ingress_racks=tuple(
            (tor, frac) for tor, frac in data.get("ingress_racks", [])
        ),
        internet_fraction=data.get("internet_fraction", 1.0),
        port_pools=tuple(
            (port, tuple(pool)) for port, pool in data.get("port_pools", [])
        ),
        latency_sensitive=data.get("latency_sensitive", False),
    )


# -- snapshots ---------------------------------------------------------------

def snapshot_state(controller) -> Dict[str, Any]:
    """Serialize a controller's full intent as a checkpoint.

    Records are stored in insertion order — replay-order fidelity is
    what makes a restored controller's dict iteration match a twin that
    never crashed.  Both the static VIP definition and the *live* DIP
    list are kept: after ``add_dip`` they diverge, and demand
    computation reads the static one while programming reads the live
    one.
    """
    assignment = controller.assignment
    return {
        "records": [
            {
                "vip": vip_to_dict(record.vip),
                "dips": [dip_to_dict(d) for d in record.dips],
                "assigned": record.assigned_switch,
            }
            for record in controller._records.values()
        ],
        "assignment": None if assignment is None else {
            "map": [[vid, sw] for vid, sw in assignment.vip_to_switch.items()],
            "unassigned": list(assignment.unassigned),
        },
        "degraded": sorted(controller.degraded_vips),
        "failed_switches": sorted(controller._failed_switches),
        "failed_links": sorted(controller._failed_links),
        "smux_ids": [s.smux_id for s in controller.smuxes],
        "next_smux_id": controller._next_smux_id,
        "snat": [
            [vip, manager.to_state()]
            for vip, manager in controller._snat_managers.items()
        ],
    }


@dataclass
class IntentVip:
    """Recovered intent for one VIP."""

    vip: Vip
    dips: List[Dip]
    assigned: Optional[int] = None


@dataclass
class SurvivingDataplane:
    """What outlives a controller crash: the programmed switches, the
    SMux fleet, the host agents, the BGP route table they share — and
    the control channel, whose device-side fencing watermarks and
    still-queued duplicate deliveries are network state, not controller
    state."""

    route_table: Any
    switch_agents: Dict[int, Any]
    smuxes: List[Any]
    host_agents: Dict[int, Any]
    channel: Any = None


def harvest_dataplane(controller) -> SurvivingDataplane:
    """Collect the dataplane objects of a (dying) controller so a
    restored controller can adopt them — a warm restart."""
    return SurvivingDataplane(
        route_table=controller.route_table,
        switch_agents=controller.switch_agents,
        smuxes=list(controller.smuxes),
        host_agents=controller.host_agents,
        channel=controller.channel,
    )


class IntentState:
    """Controller intent rebuilt from snapshot + log replay.

    The replay is a *mirror* of the controller's own bookkeeping — every
    branch here corresponds to a branch in
    :class:`~repro.core.controller.DuetController` — minus the dataplane
    side effects, which the reconciler re-derives from the intent.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.records: Dict[int, IntentVip] = {}
        self.assignment_map: Optional[Dict[int, int]] = None
        self.unassigned: List[int] = []
        self.degraded: Set[int] = set()
        self.failed_switches: Set[int] = set()
        self.failed_links: Set[int] = set()
        self.smux_ids: List[int] = []
        self.next_smux_id: int = 0
        self.snat: Dict[int, SnatPortManager] = {}
        self.rolled_forward: List[str] = []
        self._vip_id_to_addr: Dict[int, int] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_journal(
        cls, journal: WriteAheadJournal, topology: Topology
    ) -> "IntentState":
        snapshot = journal.snapshot
        if snapshot is None:
            raise RecoveryError("journal has no snapshot checkpoint")
        state = cls.from_snapshot(snapshot, topology)
        # Pair op records with their commits, then replay in append order.
        effects_by_seq: Dict[int, Optional[Dict[str, Any]]] = {}
        committed: Set[int] = set()
        for record in journal.tail():
            if record["type"] == "commit":
                committed.add(record["seq"])
                effects_by_seq[record["seq"]] = record.get("effects")
        for record in journal.tail():
            if record["type"] != "op":
                continue
            seq = record["seq"]
            done = seq in committed
            state.apply_op(
                record["op"], record["params"],
                effects=effects_by_seq.get(seq),
                committed=done,
            )
            if not done:
                state.rolled_forward.append(record["op"])
        return state

    @classmethod
    def from_snapshot(
        cls, snapshot: Dict[str, Any], topology: Topology
    ) -> "IntentState":
        state = cls(topology)
        for entry in snapshot["records"]:
            vip = vip_from_dict(entry["vip"], topology)
            state.records[vip.addr] = IntentVip(
                vip=vip,
                dips=[dip_from_dict(d, topology) for d in entry["dips"]],
                assigned=entry["assigned"],
            )
            state._vip_id_to_addr[vip.vip_id] = vip.addr
        assignment = snapshot.get("assignment")
        if assignment is not None:
            state.assignment_map = {
                vid: sw for vid, sw in assignment["map"]
            }
            state.unassigned = list(assignment["unassigned"])
        state.degraded = set(snapshot.get("degraded", ()))
        state.failed_switches = set(snapshot.get("failed_switches", ()))
        state.failed_links = set(snapshot.get("failed_links", ()))
        state.smux_ids = list(snapshot.get("smux_ids", ()))
        state.next_smux_id = snapshot.get("next_smux_id", len(state.smux_ids))
        for vip, manager_state in snapshot.get("snat", ()):
            state.snat[vip] = SnatPortManager.from_state(manager_state)
        return state

    # -- replay ------------------------------------------------------------

    def apply_op(
        self,
        op: str,
        params: Dict[str, Any],
        *,
        effects: Optional[Dict[str, Any]] = None,
        committed: bool = True,
    ) -> None:
        handler = getattr(self, f"_apply_{op}", None)
        if handler is None:
            raise RecoveryError(f"journal op {op!r} has no replay handler")
        handler(params, effects or {}, committed)

    # Mirror of DuetController._degrade_and_reconcile.
    def _degrade_outside_plan(self, iv: IntentVip) -> None:
        iv.assigned = None
        self.degraded.add(iv.vip.addr)
        if self.assignment_map is not None:
            vip_id = iv.vip.vip_id
            self.assignment_map.pop(vip_id, None)
            if vip_id not in self.unassigned:
                self.unassigned.append(vip_id)

    # Mirror of DuetController.fail_switch (the record bookkeeping half).
    def _fail_switch(self, switch: int) -> None:
        if switch in self.failed_switches:
            return
        self.failed_switches.add(switch)
        for addr in sorted(self.records):
            iv = self.records[addr]
            if iv.assigned == switch:
                iv.assigned = None
                if self.assignment_map is not None:
                    vip_id = iv.vip.vip_id
                    self.assignment_map.pop(vip_id, None)
                    if vip_id not in self.unassigned:
                        self.unassigned.append(vip_id)

    def _apply_add_vip(self, params, effects, committed) -> None:
        vip = vip_from_dict(params["vip"], self.topology)
        self.records[vip.addr] = IntentVip(vip=vip, dips=list(vip.dips))
        self._vip_id_to_addr[vip.vip_id] = vip.addr

    def _apply_remove_vip(self, params, effects, committed) -> None:
        iv = self.records.pop(params["vip"], None)
        if iv is not None:
            self._vip_id_to_addr.pop(iv.vip.vip_id, None)
        self.degraded.discard(params["vip"])
        self.snat.pop(params["vip"], None)

    def _apply_add_dip(self, params, effects, committed) -> None:
        iv = self.records[params["vip"]]
        iv.dips.append(dip_from_dict(params["dip"], self.topology))
        switch = params["switch"]
        if committed:
            assigned = effects.get("assigned")
            if assigned is not None:
                iv.assigned = assigned
                self.degraded.discard(iv.vip.addr)
            elif switch is not None:
                self._degrade_outside_plan(iv)
            else:
                iv.assigned = None
        else:
            # Died mid-bounce: roll forward to the op's target — the VIP
            # back on its pre-op switch unless that switch is dead.
            if switch is None:
                iv.assigned = None
            elif switch in self.failed_switches:
                self._degrade_outside_plan(iv)
            else:
                iv.assigned = switch
                self.degraded.discard(iv.vip.addr)

    def _apply_migrate_vip(self, params, effects, committed) -> None:
        iv = self.records[params["vip"]]
        if committed:
            assigned = effects.get("assigned")
            if assigned is not None:
                self._assign_migrated(iv, assigned)
            else:
                self._degrade_outside_plan(iv)
        else:
            # Died mid-migration: roll forward to the op's target —
            # unless the intent knows that switch is dead, in which case
            # the VIP degrades exactly as the interrupted op would have.
            target = params["to"]
            if target in self.failed_switches:
                self._degrade_outside_plan(iv)
            else:
                self._assign_migrated(iv, target)

    # Mirror of migrate_vip's success bookkeeping (placement + stored
    # assignment).
    def _assign_migrated(self, iv: IntentVip, switch: int) -> None:
        iv.assigned = switch
        self.degraded.discard(iv.vip.addr)
        if self.assignment_map is not None:
            vip_id = iv.vip.vip_id
            self.assignment_map[vip_id] = switch
            if vip_id in self.unassigned:
                self.unassigned.remove(vip_id)

    def _apply_remove_dip(self, params, effects, committed) -> None:
        iv = self.records[params["vip"]]
        for dip in iv.dips:
            if dip.addr == params["dip"]:
                iv.dips.remove(dip)
                break

    def _apply_apply_assignment(self, params, effects, committed) -> None:
        target = params["target"]
        plan = params["plan"]
        if committed:
            degraded_ids = list(effects.get("degraded_ids", ()))
        else:
            degraded_ids = []
        for kind, vip_id, switch in plan:
            addr = self._vip_id_to_addr.get(vip_id)
            if addr is None:
                continue
            iv = self.records[addr]
            if kind == "withdraw":
                iv.assigned = None
                continue
            if committed:
                if vip_id in degraded_ids:
                    iv.assigned = None
                    self.degraded.add(addr)
                else:
                    iv.assigned = switch
                    self.degraded.discard(addr)
            else:
                # Roll forward: adopt the full target; placements on a
                # switch the intent knows is dead degrade, exactly as
                # the interrupted plan would have.
                if switch in self.failed_switches:
                    degraded_ids.append(vip_id)
                    iv.assigned = None
                    self.degraded.add(addr)
                else:
                    iv.assigned = switch
                    self.degraded.discard(addr)
        new_map = {vid: sw for vid, sw in target["map"]}
        new_unassigned = list(target["unassigned"])
        for vip_id in degraded_ids:
            new_map.pop(vip_id, None)
            if vip_id not in new_unassigned:
                new_unassigned.append(vip_id)
        self.assignment_map = new_map
        self.unassigned = new_unassigned

    def _apply_fail_switch(self, params, effects, committed) -> None:
        self._fail_switch(params["switch"])

    def _apply_recover_switch(self, params, effects, committed) -> None:
        self.failed_switches.discard(params["switch"])

    def _apply_fail_smux(self, params, effects, committed) -> None:
        if params["smux"] in self.smux_ids:
            self.smux_ids.remove(params["smux"])

    def _apply_add_smux(self, params, effects, committed) -> None:
        smux_id = params["smux_id"]
        self.smux_ids.append(smux_id)
        self.next_smux_id = max(self.next_smux_id, smux_id + 1)

    def _apply_cut_link(self, params, effects, committed) -> None:
        link = self.topology.links[params["link"]]
        self.failed_links.add(params["link"])
        if params.get("bidirectional", True):
            self.failed_links.add(
                self.topology.link_between(link.dst, link.src).index
            )
        scenario = FailureScenario(
            name="replay-link-cut",
            failed_switches=frozenset(self.failed_switches),
            failed_links=frozenset(self.failed_links),
        )
        for switch in sorted(isolated_switches(self.topology, scenario)):
            self._fail_switch(switch)

    def _apply_restore_link(self, params, effects, committed) -> None:
        link = self.topology.links[params["link"]]
        self.failed_links.discard(params["link"])
        if params.get("bidirectional", True):
            self.failed_links.discard(
                self.topology.link_between(link.dst, link.src).index
            )

    def _apply_enable_snat(self, params, effects, committed) -> None:
        vip = params["vip"]
        manager = self.snat.get(vip)
        if manager is None:
            manager = SnatPortManager(vip)
            self.snat[vip] = manager
        for dip in self.records[vip].dips:
            manager.allocate(dip.addr)

    def _apply_grant_snat_range(self, params, effects, committed) -> None:
        self.snat[params["vip"]].allocate(params["dip"])


# -- restore -----------------------------------------------------------------

def restore_controller(
    journal: WriteAheadJournal,
    *,
    dataplane: Optional[SurvivingDataplane] = None,
    topology: Optional[Topology] = None,
    fault_model=None,
):
    """Materialize a controller from a journal.

    With ``dataplane`` (a :func:`harvest_dataplane` result) this is a
    warm restart: the restored controller adopts the surviving switches,
    SMuxes, host agents and route table.  Without it, the dataplane is
    rebuilt empty (cold restart) and the reconciler programs everything
    from intent.

    The returned controller's dataplane may still drift from its intent
    — run :class:`~repro.durability.reconcile.AntiEntropyReconciler`
    before serving.
    """
    import random

    from repro.control import ControlChannel, PendingOpsLedger, RetryPolicy
    from repro.core.controller import (
        CHANNEL_SEED_SALT,
        RETRY_RNG_SALT,
        DuetController,
        ProgrammingStats,
        SwitchAgent,
        VipRecord,
    )
    from repro.dataplane.hmux import HMux
    from repro.dataplane.smux import SMux
    from repro.net.bgp import VipRouteTable
    from repro.workload.vips import SMUX_POOL, switch_loopback

    meta = journal.meta
    if meta is None:
        raise RecoveryError("journal has no meta record")
    if topology is None:
        topology = Topology(params_from_dict(meta["topology"]))
    intent = IntentState.from_journal(journal, topology)

    c = DuetController.__new__(DuetController)
    c.topology = topology
    c.population = VipPopulation(
        topology, [iv.vip for iv in intent.records.values()]
    )
    # Journals outlive releases: drop config keys this version has
    # retired (e.g. the old ``engine`` selector) instead of refusing to
    # restore.
    known = {f.name for f in fields(AssignmentConfig)}
    c.config = AssignmentConfig(**{
        key: value for key, value in meta.get("config", {}).items()
        if key in known
    })
    c.hash_seed = meta.get("hash_seed", 0)
    c.virtualized = meta.get("virtualized", False)
    c.max_program_attempts = meta.get("max_program_attempts", 3)
    c.retry_backoff_s = meta.get("retry_backoff_s", 0.05)
    retry_meta = meta.get("retry_policy")
    c.retry_policy = (
        RetryPolicy(**retry_meta) if retry_meta is not None
        else RetryPolicy(
            max_attempts=c.max_program_attempts,
            base_backoff_s=c.retry_backoff_s,
        )
    )
    c._retry_rng = random.Random(c.hash_seed ^ RETRY_RNG_SALT)
    # The ledger is per-incarnation: in-flight unacked ops of the dead
    # controller are re-derived from the journal's uncommitted tail (the
    # roll-forward above) — that is the ledger replay.
    c.ledger = PendingOpsLedger()
    c.programming_stats = ProgrammingStats()
    c._fault_model = fault_model
    c._journal = None
    c._journal_depth = 0
    c._snapshot_interval = meta.get("snapshot_interval", 64)
    c._crash_hook = None
    c._tracer = None
    c._tap = None

    if dataplane is None:
        # Cold restart: fresh channel at a bumped epoch (epoch 0 was the
        # dead deployment's; nothing of it survives, but the bump keeps
        # the "new incarnation -> new epoch" rule uniform).
        c.channel = ControlChannel(seed=c.hash_seed ^ CHANNEL_SEED_SALT)
        c.channel.bump_epoch()
        c.route_table = VipRouteTable()
        c.switch_agents = {
            s.index: SwitchAgent(
                s.index,
                HMux(
                    switch_ip=switch_loopback(s.index),
                    tables=s.tables,
                    hash_seed=c.hash_seed,
                ),
                c.route_table,
                fault_model=fault_model,
                channel=c.channel,
            )
            for s in topology.switches
        }
        surviving_smuxes: Dict[int, Any] = {}
        c.host_agents = {}
    else:
        # Warm restart: the channel (fencing watermarks, queued
        # duplicates, injected-fault weather) survives with the devices.
        # The new incarnation fences off every command the dead one
        # still had in flight by bumping the epoch.
        c.channel = (
            dataplane.channel if dataplane.channel is not None
            else ControlChannel(seed=c.hash_seed ^ CHANNEL_SEED_SALT)
        )
        c.channel.bump_epoch()
        c.route_table = dataplane.route_table
        c.switch_agents = dataplane.switch_agents
        for agent in c.switch_agents.values():
            agent.channel = c.channel
        surviving_smuxes = {s.smux_id: s for s in dataplane.smuxes}
        c.host_agents = dataplane.host_agents
        if fault_model is not None:
            for agent in c.switch_agents.values():
                agent.fault_model = fault_model

    # The SMux fleet the intent wants: adopt survivors, stand up fresh
    # (empty) instances for the rest — the reconciler programs them.
    # Ids are monotone, so ascending order matches a never-crashed twin.
    c.smuxes = sorted(
        (
            surviving_smuxes.get(smux_id)
            or SMux(smux_id, SMUX_POOL.network + smux_id, hash_seed=c.hash_seed)
            for smux_id in intent.smux_ids
        ),
        key=lambda s: s.smux_id,
    )
    c._next_smux_id = intent.next_smux_id

    c._records = {
        addr: VipRecord(
            vip=iv.vip, dips=list(iv.dips), assigned_switch=iv.assigned
        )
        for addr, iv in intent.records.items()
    }
    c._dip_to_server = {
        d.addr: d.server_id
        for iv in intent.records.values() for d in iv.dips
    }
    c._failed_switches = set(intent.failed_switches)
    c._failed_links = set(intent.failed_links)
    c._snat_managers = dict(intent.snat)
    c.degraded_vips = set(intent.degraded)

    if intent.assignment_map is None:
        c.assignment = None
    else:
        # Utilization vectors are not intent: they are recomputed by the
        # next rebalance, which only reads vip_to_switch/unassigned of
        # the previous assignment.
        c.assignment = Assignment(
            topology=topology,
            config=c.config,
            vip_to_switch=dict(intent.assignment_map),
            unassigned=list(intent.unassigned),
            link_utilization=np.zeros(topology.n_links),
            memory_utilization=np.zeros(topology.n_switches),
            demands={},
        )

    # Resume journaling: the attach checkpoint absorbs the replayed tail
    # (including any rolled-forward op) into a fresh snapshot.
    c.attach_journal(journal)
    return c
