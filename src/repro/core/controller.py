"""The Duet controller (paper S6, Figure 9).

The controller is "the heart of Duet": it monitors the datacenter
(topology, traffic, DIP health), runs the assignment engine (S4), and the
assignment updater pushes VIP-DIP rules to switch agents (which program
the ECMP/tunneling tables and fire BGP route updates) and to SMuxes
(which announce the covering aggregates as backstop).

A :class:`DuetController` owns the route table, one
:class:`~repro.core.agent.SwitchAgent` (with a real
:class:`~repro.dataplane.hmux.HMux`) per switch, the SMux fleet and the
per-server host agents, so packets run end-to-end through exactly the
paper's mechanisms; what those devices hold is written by one function,
:func:`~repro.core.converge.converge`.

Control-plane *timing* (convergence delays, FIB update latency) is
modelled by :mod:`repro.sim`; operations here take effect immediately.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.control import ControlChannel, PendingOpsLedger, RetryPolicy
from repro.core.agent import ControllerError, SwitchAgent, SwitchProgrammingError
from repro.core.assignment import Assignment, AssignmentConfig
from repro.core.converge import converge
from repro.core.intent import (
    REPLAYABLE_OPS,
    ControllerIntent,
    VipRecord,
    assignment_to_state,
)
from repro.core.migration import (
    MigrationPlan,
    StepKind,
    StickyMigrator,
    diff_assignments,
)
from repro.dataplane.batch import (
    FORWARD_OK, HOST_REFUSED, MUX_DROP, NO_ROUTE, FleetLayouts, FlowBatch,
    ForwardResult,
)
from repro.dataplane.hmux import HMux
from repro.dataplane.hostagent import HostAgent, HostAgentError
from repro.dataplane.packet import IPV4_HEADER_BYTES, Packet
from repro.dataplane.smux import SMux
from repro.dataplane.tables import TableEntryError, TableFullError
from repro.net.addressing import format_ip
from repro.net.bgp import (
    ROUTE_HASH_SALT, MuxKind, MuxRef, RouteResolutionError, VipRouteTable,
)
from repro.net.failures import FaultModel
from repro.net.routing import EcmpRouter
from repro.net.topology import Topology
from repro.obs.tracing import PacketTap, maybe_span, span_attrs, trace_event
from repro.workload.serialization import (
    dip_to_dict,
    params_to_dict,
    vip_to_dict,
)
from repro.workload.vips import (
    HOST_POOL, SMUX_POOL, Dip, Vip, VipPopulation, switch_loopback,
)

#: What a solver context is valid for: the failed switches, the failed
#: links and the assignment config it was built with.
SolverKey = Tuple[FrozenSet[int], FrozenSet[int], AssignmentConfig]


#: Seed salts deriving the per-deployment channel RNG and the retry
#: jitter RNG from ``hash_seed``, so distinct deployments (and distinct
#: chaos seeds) see distinct fault streams without any implicit seeding.
CHANNEL_SEED_SALT = 0xC4A77E1
RETRY_RNG_SALT = 0x2E7721

#: :class:`FleetLayouts` device numbers: an HMux is its switch index, an
#: SMux its id with this bit set; ``NO_DEVICE`` is no mux at all.
SMUX_DEVICE, NO_DEVICE = 1 << 15, 0xFFFF

#: A failed :meth:`DuetController.forward_batch` row's status, by error.
_STATUS_OF = {RouteResolutionError: NO_ROUTE, ControllerError: MUX_DROP,
              HostAgentError: HOST_REFUSED}


class SimulatedCrash(Exception):
    """The controller process died at an injected crash point.

    Deliberately *not* a :class:`ControllerError`: nothing inside the
    controller may catch it — it must unwind through the op so the
    journal keeps the uncommitted record that recovery rolls forward.
    """


@dataclass
class ProgrammingStats:
    """Observability counters for the assignment updater's RPC path."""

    attempts: int = 0
    retries: int = 0               # attempts beyond the first per program
    transient_faults: int = 0
    degraded: int = 0              # retry budget exhausted -> SMux-only
    skipped_dead_switch: int = 0   # plan step targeted a failed switch
    backoff_s: float = 0.0         # cumulative modelled backoff
    unwinds: int = 0               # attempts abandoned to a fault/NACK
    reconcile_rounds: int = 0      # anti-entropy rounds run post-recovery
    reconcile_repairs: int = 0     # drift repairs those rounds made
    op_timeouts: int = 0           # ops whose retry deadline expired


class DuetController:
    """The central controller plus the materialized data plane.

    State comes in three kinds.  **Intent** — what the journal makes
    durable — lives in exactly one :class:`~repro.core.intent.ControllerIntent`
    (``self.intent``), written only through its named transitions.
    **Dataplane** — route table, switch agents, SMuxes, host agents and
    the control channel — belongs to the deployment and outlives a
    controller crash.  Everything else here is **derived** or
    per-incarnation (the DIP -> server index, the solver context, retry
    RNG, ledger, counters) and starts over with each incarnation.

    Every mutating op has one shape: validate -> ``_journal_op`` (append)
    -> intent transitions and crash points, then
    :func:`~repro.core.converge.converge` over the VIPs and devices they
    touched (a placement through the guarded retry path) -> commit.  No
    op writes a device itself; the one exception is a device *death*
    (:meth:`fail_switch`, :meth:`cut_link`, :meth:`fail_smux`), an event
    whose effect is the death.
    """

    def __init__(
        self,
        topology: Topology,
        population: Optional[VipPopulation] = None,
        *,
        n_smuxes: int = 2,
        config: AssignmentConfig = AssignmentConfig(),
        hash_seed: int = 0,
        virtualized: bool = False,
        fault_model: Optional[FaultModel] = None,
        channel: Optional[ControlChannel] = None,
        retry_policy: RetryPolicy = RetryPolicy(),
        intent: Optional[ControllerIntent] = None,
        dataplane=None,
    ) -> None:
        """A fresh deployment registers ``population`` (read once, never
        written) and converges the dataplane to it.  A restart (see
        :meth:`restore`) passes instead the ``intent`` recovered from the
        journal — the SMux fleet must then be the intent's own — and, for
        a warm one, the surviving ``dataplane``
        (:class:`~repro.durability.recovery.SurvivingDataplane`); it
        programs nothing: the reconciler drives the dataplane to intent.
        """
        if n_smuxes < 1:
            raise ControllerError("need at least one SMux")
        if intent is None and population is None:
            raise ControllerError("a fresh deployment needs its population")
        if dataplane is not None and intent is None:
            raise ControllerError("a surviving dataplane needs its intent")
        self.topology = topology
        self.config = config
        self.hash_seed = hash_seed
        self.virtualized = virtualized
        # Control-channel plumbing (see repro.control): every device
        # mutation below — switch agents, SMuxes, host agents — is
        # delivered as an epoch-fenced command.  The channel belongs to
        # the deployment (it survives controller crashes with the
        # dataplane: fencing watermarks, queued duplicates, injected
        # weather); the ledger and retry RNG are per-incarnation.
        if channel is None and dataplane is not None:
            channel = dataplane.channel
        self.channel = channel if channel is not None else ControlChannel(
            seed=hash_seed ^ CHANNEL_SEED_SALT
        )
        # In-flight unacked ops of a dead incarnation are re-derived
        # from the journal's uncommitted tail (the roll-forward) — that
        # is the ledger replay.
        self.ledger = PendingOpsLedger()
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(hash_seed ^ RETRY_RNG_SALT)
        self.programming_stats = ProgrammingStats()
        self._fault_model = fault_model
        # The one solver context (see _solver): derived state, never
        # journaled, so every incarnation starts without one.
        self._solver_context: Optional[Tuple[SolverKey, StickyMigrator]] = None
        # Durability plumbing (see repro.durability): no journal until
        # attach_journal; the crash hook simulates process death at
        # op-internal fault points.
        self._journal = None
        self._snapshot_interval = 64
        self._crash_hook = None
        # Observability plumbing (see repro.obs): a tracer wraps every
        # mutating op in a span, a tap samples forwarded flows.
        # Both stay None — zero overhead — until attached.
        self._tracer = None
        self._tap = None
        # Derived: every mux's slot layouts, for forward_batch.
        self._fleet = FleetLayouts()

        surviving_smuxes: Dict[int, SMux] = {}
        if dataplane is None:
            self.route_table = VipRouteTable()
            self.switch_agents: Dict[int, SwitchAgent] = {
                s.index: SwitchAgent(
                    s.index,
                    HMux(
                        switch_ip=switch_loopback(s.index),
                        tables=s.tables,
                        hash_seed=hash_seed,
                    ),
                    self.route_table,
                    self.channel,
                    fault_model=fault_model,
                )
                for s in topology.switches
            }
            self.host_agents: Dict[int, HostAgent] = {}
        else:
            self.route_table = dataplane.route_table
            self.switch_agents = dataplane.switch_agents
            self.host_agents = dataplane.host_agents
            surviving_smuxes = {s.smux_id: s for s in dataplane.smuxes}
            for agent in self.switch_agents.values():
                agent.channel = self.channel
                # A surviving fault model keeps its RNG stream unless
                # the restart brings its own.
                if fault_model is not None:
                    agent.fault_model = fault_model
        self._dip_to_server: Dict[int, int] = {}
        if intent is None:
            self.intent = ControllerIntent(topology, config, range(n_smuxes))
            self.smuxes: List[SMux] = [
                self._new_smux(i) for i in self.intent.smux_ids
            ]
            for vip in population:
                self._refuse_pools_if_virtualized(vip)
                self.intent.add_vip(vip)
            converge(self)
        else:
            # A new incarnation of an existing deployment: bumping the
            # epoch fences off every command the dead one still had in
            # flight (on a cold restart nothing of it survives, but the
            # bump keeps "new incarnation -> new epoch" uniform).
            self.channel.bump_epoch()
            self.intent = intent
            # The SMux fleet the intent wants: adopt survivors, stand up
            # fresh (empty) instances for the rest — the reconciler
            # programs them.  Ids are monotone, so ascending order
            # matches a never-crashed twin.
            self.smuxes = sorted(
                (
                    surviving_smuxes.get(i) or self._new_smux(i)
                    for i in intent.smux_ids
                ),
                key=lambda s: s.smux_id,
            )
            for record in intent.records.values():
                for dip in record.dips:
                    self._dip_to_server[dip.addr] = dip.server_id

    def _converge_hmux(self, vip_addr: int, switch_index: int) -> None:
        """Converge one VIP on one switch, and nothing else."""
        converge(self, [vip_addr], switches=[switch_index], smuxes=(), servers=())

    def _new_smux(self, smux_id: int) -> SMux:
        return SMux(
            smux_id, SMUX_POOL.network + smux_id, hash_seed=self.hash_seed,
        )

    # -- durability (write-ahead journal + crash recovery) ------------------------

    @property
    def journal(self):
        return self._journal

    def attach_journal(self, journal, *, snapshot_interval: Optional[int] = None) -> None:
        """Start journaling every mutating op to ``journal``.

        Writes the meta record (everything needed to cold-restore:
        topology params, assignment config, seeds and retry knobs) if
        the journal has none, then an immediate snapshot of the current
        intent — so the journal is sufficient from the moment it is
        attached, and a post-recovery attach absorbs the replayed tail.
        """
        # Looked up on the module at every call: the benchmark wraps
        # ``recovery.snapshot_state`` by name.
        from repro.durability.recovery import snapshot_state

        if snapshot_interval is not None:
            if snapshot_interval < 1:
                raise ControllerError("snapshot interval must be positive")
            self._snapshot_interval = snapshot_interval
        self._journal = journal
        if journal.meta is None:
            journal.set_meta({
                "topology": params_to_dict(self.topology.params),
                "config": asdict(self.config),
                "hash_seed": self.hash_seed,
                "virtualized": self.virtualized,
                # Twins of two retry_policy fields, from when they were
                # constructor knobs; still written so the journal format
                # (and every digest over it) is unchanged.
                "max_program_attempts": self.retry_policy.max_attempts,
                "retry_backoff_s": self.retry_policy.base_backoff_s,
                "retry_policy": asdict(self.retry_policy),
                "snapshot_interval": self._snapshot_interval,
            })
        journal.write_snapshot(snapshot_state(self), force=True)

    def checkpoint(self) -> None:
        """Snapshot the full intent into the journal, truncating the log."""
        if self._journal is None:
            return
        from repro.durability.recovery import snapshot_state

        self._journal.write_snapshot(snapshot_state(self))

    def _maybe_snapshot(self) -> None:
        if (
            self._journal is not None
            and self._journal.ops_since_snapshot >= self._snapshot_interval
        ):
            self.checkpoint()

    @contextmanager
    def _journal_op(self, op: str, params: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Write-ahead wrap for one mutating op.

        The intent record lands *before* any side effect; the commit
        record (with the yielded effects dict) lands after the op
        completes.  An exception — above all :class:`SimulatedCrash` —
        skips the commit, leaving the op for recovery to roll forward.
        An op the intent cannot replay is refused before it is
        appended, so a new op without a replay entry fails on its first
        call instead of at the next crash.  Journaled ops do not nest:
        replay applies each record once, at top level.
        """
        if op not in REPLAYABLE_OPS:
            raise ControllerError(
                f"op {op!r} has no replay entry in ControllerIntent"
            )
        effects: Dict[str, Any] = {}
        with maybe_span(self._tracer, f"op:{op}", **span_attrs(params)):
            if self._journal is None:
                yield effects
                return
            seq = self._journal.append(op, params)
            trace_event(self._tracer, "journal.append", op=op, seq=seq)
            yield effects
            self._journal.commit(seq, effects or None)
            trace_event(self._tracer, "journal.commit", op=op, seq=seq)
            self._maybe_snapshot()

    # -- observability (tracing + packet tap) -------------------------------------

    @property
    def tracer(self):
        return self._tracer

    @property
    def tap(self):
        return self._tap

    def attach_tracer(self, tracer) -> None:
        """Trace every outermost mutating op (and the switch agents'
        program/announce/withdraw steps) into ``tracer``; pass None to
        detach."""
        self._tracer = tracer
        for agent in self.switch_agents.values():
            agent.tracer = tracer

    def attach_tap(self, tap) -> None:
        """Record hop-by-hop paths of sampled :meth:`forward` packets
        into ``tap`` (a :class:`repro.obs.tracing.PacketTap`); None
        detaches."""
        self._tap = tap

    def set_crash_hook(self, hook) -> None:
        """Install a callable fired at op-internal crash points; when it
        returns truthy the controller dies there (:class:`SimulatedCrash`).
        The chaos engine uses this to kill the controller *inside*
        ``_execute_plan`` / ``add_dip``, not just between ops."""
        self._crash_hook = hook

    def _crash_point(self, label: str) -> None:
        if self._crash_hook is not None and self._crash_hook(label):
            raise SimulatedCrash(label)

    @classmethod
    def restore(
        cls,
        journal,
        *,
        dataplane=None,
        topology: Optional[Topology] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> "DuetController":
        """Rebuild a controller from its journal (see
        :func:`repro.durability.recovery.restore_controller`).  Run the
        :class:`~repro.durability.reconcile.AntiEntropyReconciler` on the
        result before serving."""
        from repro.durability.recovery import restore_controller

        return restore_controller(
            journal,
            dataplane=dataplane,
            topology=topology,
            fault_model=fault_model,
        )

    def stats_snapshot(self) -> Dict[str, float]:
        """One immutable view of every observability counter: the RPC
        path, the reconciler, and the journal.  Values only ever grow
        over a controller incarnation's lifetime."""
        s = self.programming_stats
        snap: Dict[str, float] = {
            "attempts": s.attempts,
            "retries": s.retries,
            "transient_faults": s.transient_faults,
            "degraded": s.degraded,
            "skipped_dead_switch": s.skipped_dead_switch,
            "backoff_s": s.backoff_s,
            "unwinds": s.unwinds,
            "reconcile_rounds": s.reconcile_rounds,
            "reconcile_repairs": s.reconcile_repairs,
            "op_timeouts": s.op_timeouts,
            "journal_ops": 0,
            "journal_snapshots": 0,
        }
        if self._journal is not None:
            snap["journal_ops"] = self._journal.ops_appended
            snap["journal_snapshots"] = self._journal.snapshots_written
        return snap

    # -- assignment lifecycle ------------------------------------------------------

    def _solver_key(self) -> SolverKey:
        return (
            frozenset(self.intent.failed_switches),
            frozenset(self.intent.failed_links),
            self.config,
        )

    def _solver(self) -> StickyMigrator:
        """The solver for the network as it is now.  Router, path
        fractions and leg matrices depend on the failure set and the
        config only, so one context is kept and reused for as long as
        its key — compared here, at every solve — still describes the
        controller: consecutive epochs solve warm, and no failure or
        recovery op has to remember to invalidate anything."""
        key = self._solver_key()
        if self._solver_context is None or self._solver_context[0] != key:
            router = EcmpRouter(
                self.topology, failed_switches=key[0], failed_links=key[1],
            )
            self._solver_context = (
                key, StickyMigrator(self.topology, self.config, router=router),
            )
        return self._solver_context[1]

    def run_initial_assignment(self) -> Assignment:
        """Compute and install the first VIP-switch assignment."""
        assignment = self._solver().assigner.assign(self.population.demands())
        self.apply_assignment(assignment)
        return assignment

    def apply_assignment(self, new: Assignment) -> MigrationPlan:
        """Migrate from the current assignment to ``new`` (two-phase,
        through the SMux stepping stone)."""
        plan = diff_assignments(self.intent.assignment, new)
        self._execute_plan(plan, new)
        return plan

    def _execute_plan(self, plan: MigrationPlan, new: Assignment) -> None:
        # All three entry points (apply_assignment, initial install,
        # rebalance) journal here, where the target and plan are fully
        # materialized: demands and assigner heuristics never need to be
        # re-run on replay.  Params capture the PRE-execution target; the
        # degraded reconciliation below is re-derived from the effects.
        params = {
            "target": assignment_to_state(new),
            "plan": [
                [step.kind.value, step.vip_id, step.switch_index]
                for step in plan.steps
            ],
        }
        with self._journal_op("apply_assignment", params) as effects:
            effects["degraded_ids"] = self._execute_plan_steps(plan, new)

    def _execute_plan_steps(self, plan: MigrationPlan, new: Assignment) -> List[int]:
        intent = self.intent
        # Adopt the target first; each step then reconciles it with what
        # actually landed (a degraded VIP drops out of the stored
        # assignment), so the next sticky rebalance retries degraded
        # VIPs instead of believing they are already placed.
        intent.install_assignment(new)
        records = intent.records_by_vip_id()
        degraded_ids: List[int] = []
        for step in plan.steps:
            record = records.get(step.vip_id)
            if record is None:
                continue
            self._crash_point(f"plan:{step.kind.value}:{step.vip_id}")
            if step.kind is StepKind.WITHDRAW:
                self._withdraw(record, step.switch_index)
            elif not self._program_or_degrade(record, step.switch_index):
                degraded_ids.append(step.vip_id)
        return degraded_ids

    def _withdraw(self, record: VipRecord, switch_index: int) -> None:
        """Phase one of the S4.2 migration: onto the SMux stepping stone
        (its /32 withdrawn, traffic falls to the SMux aggregates with
        connection state intact), then off the switch's tables."""
        self.intent.withdraw(record)
        self._converge_hmux(record.addr, switch_index)

    def _program_or_degrade(
        self, record: VipRecord, switch_index: int, servers: Sequence[int] = (),
    ) -> bool:
        """Program + announce a VIP on a switch and record where it
        landed; True when it is now served there.  A dead switch (an
        arbitrary Assignment, or a failure racing the op, must never
        program one and re-announce its routes) or an unprogrammable one
        leaves the VIP degraded on the SMux backstop until a rebalance
        re-homes it — and converging the switch to that sheds whatever
        slice of the VIP landed there."""
        if switch_index in self.intent.failed_switches:
            self.programming_stats.skipped_dead_switch += 1
        elif self._program_vip_with_retry(record, switch_index, servers):
            self.intent.place(record, switch_index)
            return True
        if self.intent.unplace(record, degraded=True):
            self.programming_stats.degraded += 1
        self._converge_hmux(record.addr, switch_index)
        return False

    def _program_vip_with_retry(
        self, record: VipRecord, switch_index: int, servers: Sequence[int] = (),
    ) -> bool:
        """Program + announce a VIP on a switch with bounded retry and
        exponential backoff; True on success.  Each attempt is one
        converge of the VIP ``onto`` the switch, its SMuxes and the hosts
        of ``servers``, so a retry writes only what the last attempt did
        not land.  Transient faults
        (:class:`SwitchProgrammingError`) are retried; a full or invalid
        table (``TableFullError`` / ``TableEntryError``) is deterministic
        and fails fast."""
        agent = self.switch_agents[switch_index]
        stats = self.programming_stats
        ticket = self.ledger.open(
            agent.device_id, "program_vip", vip=record.addr
        )
        schedule = self.retry_policy.start(self._retry_rng)
        while True:
            stats.attempts += 1
            ticket.attempts += 1
            self._crash_point(f"program:{record.vip.vip_id}:{switch_index}")
            try:
                converge(
                    self, [record.addr], switches=[switch_index], servers=servers,
                    onto=switch_index,
                )
            except SwitchProgrammingError:
                stats.transient_faults += 1
                stats.unwinds += 1
                delay = schedule.next_backoff()
                if delay is None:
                    # Retry budget / deadline spent: abandon the op,
                    # degrade to SMux coverage (the caller's job), and
                    # hand the device to the anti-entropy reconciler.
                    stats.op_timeouts += 1
                    self.ledger.timeout(ticket)
                    return False
                stats.retries += 1
                self.ledger.note_retry(ticket)
                stats.backoff_s += delay
            except (TableFullError, TableEntryError):
                # Deterministic capacity NACK, not a channel fault:
                # fail fast, no retry.
                stats.unwinds += 1
                self.ledger.reject(ticket)
                return False
            else:
                self.ledger.ack(ticket)
                return True

    # -- VIP lifecycle (S5.2) ---------------------------------------------------------

    def add_vip(self, vip: Vip) -> None:
        """"A new VIP is first added to SMuxes, and then the migration
        algorithm decides the right destination." """
        if vip.addr in self.intent.records:
            raise ControllerError(f"VIP {format_ip(vip.addr)} already exists")
        self._refuse_pools_if_virtualized(vip)
        with self._journal_op("add_vip", {"vip": vip_to_dict(vip)}):
            self.intent.add_vip(vip)
            converge(self, [vip.addr], switches=(), servers=_servers(vip.dips))

    def remove_vip(self, vip_addr: int) -> None:
        """Remove from its HMux (if any), all SMuxes and its hosts."""
        record = self._require(vip_addr)
        switch = record.assigned_switch
        with self._journal_op("remove_vip", {"vip": vip_addr}):
            self.intent.remove_vip(vip_addr)
            converge(
                self, [vip_addr], switches=() if switch is None else [switch],
                servers=_servers(record.dips),
            )

    def add_dip(self, vip_addr: int, dip: Dip) -> None:
        """DIP addition with the SMux bounce (S5.2): resilient hashing
        cannot protect additions, so the VIP is withdrawn to SMux, the
        DIP set updated, then the VIP is re-programmed on its HMux."""
        record = self._require(vip_addr)
        switch = record.assigned_switch
        params = {"vip": vip_addr, "dip": dip_to_dict(dip), "switch": switch}
        with self._journal_op("add_dip", params) as effects:
            if switch is not None:
                # Step 1: withdraw -> SMuxes take over with connection state.
                self._crash_point("add_dip:withdraw")
                self.intent.withdraw(record)
            # Step 2: add the DIP.
            self._crash_point("add_dip:update")
            self.intent.add_dip(record, dip)
            if switch is None:
                converge(self, [vip_addr], switches=(), servers=[dip.server_id])
            else:
                # Step 3: back onto its HMux through the guarded retry path
                # of plan execution (a dead or unprogrammable switch leaves
                # the VIP on the SMux backstop).  Its first converge carries
                # out steps 1-3 in order: the outgrown entry leaves the
                # switch, the host and the SMuxes take the DIP, then the
                # entry is rebuilt.
                self._crash_point("add_dip:reprogram")
                self._program_or_degrade(record, switch, [dip.server_id])
            effects["assigned"] = record.assigned_switch

    def migrate_vip(self, vip_addr: int, to_switch: int) -> Optional[int]:
        """Move one VIP to a specific switch through the SMux stepping
        stone (the S4.2 migration, as a single operator-invocable op):
        withdraw from the current HMux (traffic falls to the SMux
        aggregates with connection state intact), then program + announce
        on the target.  A degraded/SMux-only VIP migrates too — the
        withdraw phase is simply empty.

        Returns where the VIP actually landed (``to_switch``, or None
        when programming failed and the VIP stayed on the backstop).
        """
        record = self._require(vip_addr)
        if to_switch not in self.switch_agents:
            raise ControllerError(f"unknown switch {to_switch}")
        if to_switch in self.intent.failed_switches:
            raise ControllerError(
                f"cannot migrate {format_ip(vip_addr)} to failed "
                f"switch {to_switch}"
            )
        from_switch = record.assigned_switch
        if from_switch == to_switch:
            return from_switch
        tracer = self._tracer
        params = {"vip": vip_addr, "from": from_switch, "to": to_switch}
        with self._journal_op("migrate_vip", params) as effects:
            if from_switch is not None:
                with maybe_span(
                    tracer, "migrate.withdraw", switch=from_switch,
                ):
                    self._crash_point("migrate:withdraw")
                    self._withdraw(record, from_switch)
            # Stepping stone: between withdraw and reprogram the SMux
            # aggregates carry the VIP (S4.2) — record which mux.
            with maybe_span(
                tracer, "migrate.smux_transit",
                backstop=str(self.route_table.resolve(vip_addr, 0)),
            ):
                self._crash_point("migrate:transit")
            with maybe_span(tracer, "migrate.reprogram", switch=to_switch):
                self._crash_point("migrate:reprogram")
                self._program_or_degrade(record, to_switch)
            effects["assigned"] = record.assigned_switch
        return record.assigned_switch

    def remove_dip(self, vip_addr: int, dip_addr: int) -> None:
        """DIP removal / failure (S5.1-S5.2): resilient hashing on the
        HMux keeps other connections intact — in the VIP's ECMP group
        and in every port pool the DIP served; SMuxes drop only the dead
        DIP's connections."""
        record = self._require(vip_addr)
        dip = self._require_dip(record, dip_addr)
        emptied = self._sole_dip_of(record, dip_addr)
        if emptied is not None:
            raise ControllerError(f"cannot remove the last DIP of {emptied}")
        switch = record.assigned_switch
        with self._journal_op(
            "remove_dip", {"vip": vip_addr, "dip": dip_addr}
        ):
            self.intent.remove_dip(record, dip)
            converge(
                self, [vip_addr], switches=() if switch is None else [switch],
                servers=[dip.server_id],
            )

    def dip_failure(self, vip_addr: int, dip_addr: int) -> None:
        """"The Duet controller monitors DIP health and removes failed
        DIP from the set of DIPs for the corresponding VIP." """
        self.remove_dip(vip_addr, dip_addr)

    # -- failures -------------------------------------------------------------------

    def fail_switch(self, switch_index: int) -> List[int]:
        """An HMux dies: its routes are withdrawn and its VIPs fall back
        to the SMuxes (converged state).  Returns the affected VIPs."""
        if switch_index in self.intent.failed_switches:
            return []
        with self._journal_op("fail_switch", {"switch": switch_index}):
            affected = self.intent.fail_switch(switch_index)
            self.switch_agents[switch_index].fail()
        return affected

    def recover_switch(self, switch_index: int) -> None:
        """A failed switch comes back (S5.1 recovery): it boots with an
        empty ASIC and announces nothing, so recovery is invisible to
        traffic.  Its displaced VIPs return via the sticky rebalance path
        (S4.2) — call :meth:`rebalance` to re-home them."""
        intent = self.intent
        if switch_index not in intent.failed_switches:
            raise ControllerError(
                f"switch {switch_index} is not failed"
            )
        if switch_index in intent.isolated(
            intent.failed_switches - {switch_index}
        ):
            raise ControllerError(
                f"switch {switch_index} is still isolated by failed "
                "links; restore connectivity first"
            )
        agent = self.switch_agents[switch_index]
        if agent.hmux.vips() or self.route_table.announced_by(agent.mux_ref):
            raise ControllerError(
                f"switch {switch_index} recovered with residual state"
            )
        with self._journal_op("recover_switch", {"switch": switch_index}):
            intent.recover_switch(switch_index)

    def fail_smux(self, smux_id: int) -> None:
        """"SMux failure ... Switches detect SMux failure through BGP,
        and use ECMP to direct traffic to other SMuxes." """
        alive = [s for s in self.smuxes if s.smux_id != smux_id]
        if len(alive) == len(self.smuxes):
            raise ControllerError(f"unknown SMux {smux_id}")
        if not alive:
            raise ControllerError("cannot fail the last SMux")
        with self._journal_op("fail_smux", {"smux": smux_id}):
            ref = MuxRef.smux(smux_id)
            self.route_table.withdraw_all(ref)
            self.intent.remove_smux(smux_id)
            self.smuxes = alive
            # Late duplicates addressed to the dead instance must not
            # be mistaken for commands to a future one (ids are never
            # reused, but the queue should not hold corpses either).
            self.channel.purge_device(f"smux:{smux_id}")

    def add_smux(self) -> SMux:
        """Scale out the backstop: stand up a new SMux, program *every*
        VIP into it, then announce the aggregates (make-before-break —
        a route must never attract traffic the mux cannot serve).
        SMux ids are never reused: lingering state on a crashed instance
        must not be mistaken for the new one."""
        smux_id = self.intent.next_smux_id
        with self._journal_op("add_smux", {"smux_id": smux_id}):
            smux = self._new_smux(smux_id)
            self.intent.add_smux(smux_id)
            self.smuxes.append(smux)
            converge(self, switches=(), servers=(), smuxes=[smux])
        return smux

    def cut_link(self, link_index: int, *, bidirectional: bool = True) -> List[int]:
        """Cut a cable (both directions by default).  VIP routing itself
        is link-agnostic at this abstraction, but "a link failure [that]
        isolates a switch" is treated as a switch failure (S5.1): any
        switch the cut disconnects from every live core is failed, and
        the affected VIPs fall to the SMuxes.  Returns the switches
        promoted to failed."""
        self._require_link(link_index)
        with self._journal_op(
            "cut_link", {"link": link_index, "bidirectional": bidirectional}
        ):
            promoted = self.intent.cut_link(link_index, bidirectional)
            for switch_index in promoted:
                self.switch_agents[switch_index].fail()
        return promoted

    def restore_link(self, link_index: int, *, bidirectional: bool = True) -> None:
        """Repair a cut cable.  Switches that were failed-by-isolation
        stay failed until :meth:`recover_switch` — physical connectivity
        returning does not mean the switch rejoined BGP."""
        self._require_link(link_index)
        with self._journal_op(
            "restore_link",
            {"link": link_index, "bidirectional": bidirectional},
        ):
            self.intent.restore_link(link_index, bidirectional)

    # -- end-to-end forwarding ----------------------------------------------------------

    def resolve_batch(self, batch: FlowBatch) -> List[Optional[MuxRef]]:
        """The mux the fabric's LPM + ECMP delivers each row to (None on
        a blackhole): the one place the route hash meets ``hash_seed``."""
        route_hash = batch.hashes(self.hash_seed ^ ROUTE_HASH_SALT).tolist()
        hops = map(self.route_table.next_hops, batch.dst_ip.tolist())
        return [h[flow % len(h)] if h else None for h, flow in zip(hops, route_hash)]

    def forward_batch(self, batch: FlowBatch) -> ForwardResult:
        """Emulate the fabric for client (bare) packets: LPM + ECMP picks a
        mux per row, one gather over every mux's layouts
        (:class:`FleetLayouts`) and the SMuxes' connection tables pick the
        target, its host agent delivers.  Effects (counters, pins, meters,
        tap) and results are the rows' one by one, in order; ``pin`` is
        read before them all."""
        n = len(batch)
        muxes = self.resolve_batch(batch)
        device = np.array([
            NO_DEVICE if mux is None else mux.ident if mux.kind is MuxKind.HMUX
            else SMUX_DEVICE | mux.ident for mux in muxes
        ], np.uint64)
        held = {i: agent.hmux for i, agent in self.switch_agents.items()}
        held.update((SMUX_DEVICE | s.smux_id, s) for s in self.smuxes)
        fleet = self._fleet.refresh(held)
        flow_hash = batch.hashes(self.hash_seed)
        ported, target, _ = fleet.ports.lookup(
            device << np.uint64(48) | batch.dst_ip << np.uint64(16)
            | batch.dst_port, flow_hash,
        )
        _, vip_target, _ = fleet.vips.lookup(
            device << np.uint64(32) | batch.dst_ip, flow_hash,
        )
        target = np.where(ported, target, vip_target)
        pin = np.full(n, -1, np.int64)
        fields = batch.fields()
        for smux in self.smuxes:
            rows = np.flatnonzero(device == SMUX_DEVICE | smux.smux_id)
            if rows.size:
                target[rows], pin[rows] = smux.lookup_or_pin(
                    flow_hash[rows], fields[:, rows], target[rows],
                )
        result = ForwardResult(
            muxes, np.full(n, -1, np.int64), np.zeros(n, np.uint8), pin,
        )
        rows = zip(
            muxes, device.tolist(), target.tolist(), flow_hash.tolist(),
            *fields[:4].tolist(), batch.size_bytes.tolist(),
        )
        for i, (mux, dev, tgt, h, src, vip, sport, dport, size) in enumerate(rows):
            record = None if self._tap is None else self._tap.begin(batch.flow_at(i))
            try:
                if mux is None:
                    raise RouteResolutionError(f"no route for VIP {format_ip(vip)}")
                if record is not None:
                    PacketTap.hop(record, "route.resolve", mux=str(mux))
                if dev not in held:
                    raise ControllerError(
                        f"route names SMux {mux.ident}, which the controller "
                        "does not hold"
                    )
                counters = held[dev].counters
                if tgt < 0 and mux.kind is MuxKind.HMUX:
                    counters.no_match += 1
                    raise ControllerError(
                        f"HMux {mux.ident} had no entry for {format_ip(vip)}"
                    )
                if tgt < 0:
                    counters.drops_no_vip += 1
                    raise ControllerError(
                        f"SMux {mux.ident} dropped packet for {format_ip(vip)}"
                    )
                counters.count(vip, size)
                if record is not None:
                    PacketTap.hop(
                        record, f"{mux.kind.value}.encap", mux=str(mux),
                        target=format_ip(tgt),
                    )
                if not self.virtualized:
                    server = self._dip_to_server.get(tgt)
                elif HOST_POOL.contains(tgt):
                    server = tgt - HOST_POOL.network
                else:
                    raise ControllerError(
                        "virtualized cluster produced a non-host encap target"
                    )
                if server not in self.host_agents:
                    raise ControllerError(
                        f"encap target {format_ip(tgt)} reaches no host agent"
                    )
                result.dip[i] = self.host_agents[server].deliver(
                    tgt, (src, sport, vip, dport), h, size + IPV4_HEADER_BYTES,
                )
                PacketTap.hop(record, "host.decap", server=server)
            except (RouteResolutionError, ControllerError, HostAgentError) as error:
                result.errors[i] = error
                result.status[i] = _STATUS_OF[type(error)]
        return result

    def forward(self, packet: Packet) -> Tuple[Packet, MuxRef]:
        """One client packet through :meth:`forward_batch`: returns (the
        packet as the server sees it, the mux that handled it), or raises
        what stopped it — :class:`~repro.net.bgp.RouteResolutionError`,
        :class:`ControllerError` or
        :class:`~repro.dataplane.hostagent.HostAgentError`."""
        result = self.forward_batch(FlowBatch.from_packets([packet]))
        if result.status[0] != FORWARD_OK:
            raise result.errors[0]
        return packet.rewrite_dst(int(result.dip[0])), result.mux[0]

    def rebalance(
        self,
        demands: Optional[List] = None,
        *,
        delta: Optional[float] = None,
    ) -> MigrationPlan:
        """Periodic sticky re-assignment (S4.2): "From time to time, Duet
        needs to re-calculate the VIP assignment to see if it can handle
        more VIP traffic through HMux and/or reduce the MRU."

        Uses the latest measured/configured demands, excludes failed
        switches from the candidate set, and executes the two-phase
        migration through the SMux stepping stone.
        """
        if demands is None:
            demands = [v.demand() for v in self.population]
        new, plan = self._solver().reassign(
            self.intent.assignment, demands, delta,
        )
        self._execute_plan(plan, new)
        return plan

    # -- SNAT management (S5.2) ------------------------------------------------------

    def enable_snat(self, vip_addr: int) -> None:
        """Set up SNAT for a VIP: carve disjoint port ranges, compute the
        ECMP slots pointing at each DIP, and push a
        :class:`~repro.dataplane.hostagent.SnatConfig` to every HA."""
        from repro.core.snat import SnatPortManager

        record = self._require(vip_addr)
        probe = self.intent.snat.get(vip_addr) or SnatPortManager(vip_addr)
        # Validate exhaustion before journaling: each allocation takes
        # min(range_size, remaining), so n allocations need
        # (n-1)*range_size + 1 ports.  A journaled op must not fail
        # partway — replay treats its intent as fully applied.
        needed = (len(record.dips) - 1) * probe.range_size + 1
        if probe.remaining_ports < needed:
            raise ControllerError(
                f"SNAT port space of VIP {format_ip(vip_addr)} cannot "
                f"cover {len(record.dips)} DIPs"
            )
        with self._journal_op("enable_snat", {"vip": vip_addr}):
            for dip in record.dips:
                self.intent.allocate_snat(vip_addr, dip.addr)
            converge(
                self, [vip_addr], switches=(), smuxes=(),
                servers=_servers(record.dips),
            )

    def grant_snat_range(self, vip_addr: int, dip_addr: int):
        """Hand a port-exhausted HA another disjoint range ("If an HA
        runs out of available ports, it receives another set from the
        Duet controller", S5.2).  Returns the new range and re-pushes the
        config."""
        record = self._require(vip_addr)
        manager = self.intent.snat.get(vip_addr)
        if manager is None:
            raise ControllerError(
                f"SNAT not enabled for VIP {format_ip(vip_addr)}"
            )
        dip = self._require_dip(record, dip_addr)
        if manager.remaining_ports < 1:
            raise ControllerError(
                f"SNAT port space of VIP {format_ip(vip_addr)} exhausted"
            )
        with self._journal_op(
            "grant_snat_range", {"vip": vip_addr, "dip": dip_addr}
        ):
            port_range = self.intent.allocate_snat(vip_addr, dip_addr)
            converge(self, [vip_addr], switches=(), smuxes=(), servers=[dip.server_id])
        return port_range

    # -- datacenter monitoring (S6, Figure 9) -------------------------------------------

    def collect_traffic_reports(self) -> Dict[int, int]:
        """Aggregate per-VIP byte counters from every host agent — the
        "traffic metering" feed of the monitoring module."""
        totals: Dict[int, int] = {}
        # Sorted iteration: the result dict's key order (and thus every
        # downstream consumer) is identical across runs and across a
        # journal-restored controller, whose host_agents dict was built
        # in a different insertion order.
        for server in sorted(self.host_agents):
            report = self.host_agents[server].traffic_report()
            for vip_addr in sorted(report):
                _packets, size = report[vip_addr]
                totals[vip_addr] = totals.get(vip_addr, 0) + size
        return totals

    def measured_demands(self, window_s: float) -> List:
        """Turn metered bytes into fresh :class:`VipDemand`\\ s for the
        next assignment epoch.  VIPs with no observed traffic keep their
        configured volume (monitoring gaps must not zero out a service).
        """
        if window_s <= 0:
            raise ControllerError("metering window must be positive")
        observed = self.collect_traffic_reports()
        demands = []
        for vip in self.population:
            base = vip.demand()
            size = observed.get(vip.addr)
            if size is None:
                demands.append(base)
            else:
                measured_bps = size * 8 / window_s
                demands.append(base.scaled(
                    measured_bps / base.traffic_bps
                    if base.traffic_bps > 0 else 0.0
                ))
        return demands

    def collect_health_reports(self) -> Dict[int, bool]:
        """DIP health across the fleet ("It receives the VIP health
        status periodically from the host agents")."""
        health: Dict[int, bool] = {}
        # Sorted for the same reason as collect_traffic_reports: bit-
        # reproducible iteration order regardless of how the host_agents
        # dict was populated (boot order vs recovery order).
        for server in sorted(self.host_agents):
            report = self.host_agents[server].health_report()
            for dip_addr in sorted(report):
                health[dip_addr] = report[dip_addr]
        return health

    def reap_failed_dips(self) -> List[int]:
        """Remove DIPs the health feed marks dead (S5.1: "The Duet
        controller monitors DIP health and removes failed DIP from the
        set of DIPs").  Returns the removed DIP addresses; a VIP's (or a
        port pool's) last DIP is never reaped (the VIP would be dead
        anyway, and removal would leave dangling state)."""
        reaped: List[int] = []
        for dip_addr, healthy in sorted(self.collect_health_reports().items()):
            if healthy:
                continue
            records = self.intent.records
            record = next(
                (records[addr] for addr in sorted(records)
                 if records[addr].dip(dip_addr) is not None),
                None,
            )
            if record is None or self._sole_dip_of(record, dip_addr):
                continue
            self.remove_dip(record.addr, dip_addr)
            reaped.append(dip_addr)
        return reaped

    # -- introspection ------------------------------------------------------------------

    def record(self, vip_addr: int) -> VipRecord:
        return self._require(vip_addr)

    def records(self) -> Dict[int, VipRecord]:
        """Read-only view: VIP address -> controller record."""
        return dict(self.intent.records)

    @property
    def population(self) -> VipPopulation:
        """Read-only view: the VIPs of the records, in the order they
        were added."""
        return VipPopulation(
            self.topology, [r.vip for r in self.intent.records.values()],
        )

    @property
    def assignment(self) -> Optional[Assignment]:
        """The stored assignment the next sticky rebalance diffs against."""
        return self.intent.assignment

    @property
    def degraded_vips(self) -> Set[int]:
        """VIPs served by the SMux backstop although the assignment
        wanted them on an HMux (S3.3.2)."""
        return self.intent.degraded

    @property
    def failed_switches(self) -> Set[int]:
        return set(self.intent.failed_switches)

    @property
    def failed_links(self) -> Set[int]:
        return set(self.intent.failed_links)

    @property
    def fault_model(self) -> Optional[FaultModel]:
        return self._fault_model

    def live_mux_refs(self) -> Set[MuxRef]:
        """Every mux a route may legitimately point at right now."""
        refs: Set[MuxRef] = {MuxRef.smux(s.smux_id) for s in self.smuxes}
        refs.update(
            MuxRef.hmux(index)
            for index in self.switch_agents
            if index not in self.intent.failed_switches
        )
        return refs

    def snat_enabled(self, vip_addr: int) -> bool:
        return vip_addr in self.intent.snat

    def snat_managers(self) -> Dict[int, object]:
        """Read-only view of the per-VIP SNAT port managers."""
        return dict(self.intent.snat)

    def vip_location(self, vip_addr: int) -> Optional[int]:
        """Switch hosting the VIP, or None when it is SMux-only."""
        return self._require(vip_addr).assigned_switch

    def _require_link(self, link_index: int) -> None:
        if not 0 <= link_index < self.topology.n_links:
            raise ControllerError(f"unknown link {link_index}")

    def _require(self, vip_addr: int) -> VipRecord:
        record = self.intent.records.get(vip_addr)
        if record is None:
            raise ControllerError(f"VIP {format_ip(vip_addr)} unknown")
        return record

    def _refuse_pools_if_virtualized(self, vip: Vip) -> None:
        if vip.port_pools and self.virtualized:
            raise ControllerError(
                "port-based pools are not supported on virtualized "
                "clusters (the ACL pools address DIPs directly)"
            )

    def _sole_dip_of(self, record: VipRecord, dip_addr: int) -> Optional[str]:
        """What removing ``dip_addr`` would leave without a DIP — the
        VIP or one of its port pools — or None when the removal is safe."""
        if len(record.dips) == 1:
            return format_ip(record.addr)
        for port, pool in record.port_pools():
            if pool == [dip_addr]:
                return f"{format_ip(record.addr)}:{port}"
        return None

    def _require_dip(self, record: VipRecord, dip_addr: int) -> Dip:
        dip = record.dip(dip_addr)
        if dip is None:
            raise ControllerError(
                f"{format_ip(dip_addr)} is not a DIP of "
                f"{format_ip(record.addr)}"
            )
        return dip


def _servers(dips: List[Dip]) -> List[int]:
    """The servers hosting ``dips``, each once, in DIP order."""
    return list(dict.fromkeys(dip.server_id for dip in dips))
