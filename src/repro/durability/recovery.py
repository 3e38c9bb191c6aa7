"""Crash-restart recovery: journal -> intent -> restored controller.

Recovery has three layers:

1. :func:`snapshot_state` — the checkpoint the journal stores: the
   controller's :class:`~repro.core.intent.ControllerIntent` serialized
   by its own ``to_state`` (records, assignment, SNAT grants, SMux
   fleet, failure sets).
2. :meth:`ControllerIntent.from_journal
   <repro.core.intent.ControllerIntent.from_journal>` — rebuild intent
   from snapshot + log replay, through the same transitions the live
   ops ran.  Committed ops replay from their params plus recorded
   effects; an op record with no commit is an op the controller died
   inside and is **rolled forward**.
3. :func:`restore_controller` — construct a
   :class:`~repro.core.controller.DuetController` around the recovered
   intent through its normal initializer, adopting the surviving
   dataplane (switches, SMuxes and host agents outlive a controller
   crash) or building an empty one for the cold-restart path
   (``repro recover``).

The restored controller is *not* reconciled yet — run
:class:`~repro.durability.reconcile.AntiEntropyReconciler` to repair
drift between intent and dataplane.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional

from repro.core.assignment import AssignmentConfig
from repro.core.controller import PROGRAM_RETRY_META, DuetController
from repro.core.intent import ControllerIntent, RecoveryError
from repro.durability.journal import WriteAheadJournal
from repro.net.topology import Topology
from repro.workload.serialization import params_from_dict


def snapshot_state(controller) -> Dict[str, Any]:
    """Serialize a controller's full intent as a checkpoint."""
    return controller.intent.to_state()


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


# -- restore -----------------------------------------------------------------

def restore_controller(
    journal: WriteAheadJournal,
    *,
    dataplane: Optional[SurvivingDataplane] = None,
    topology: Optional[Topology] = None,
) -> DuetController:
    """Materialize a controller from a journal.

    With ``dataplane`` (a :func:`harvest_dataplane` result) this is a
    warm restart: the restored controller adopts the surviving switches,
    SMuxes, host agents and route table.  Without it, the dataplane is
    rebuilt empty (cold restart) and the reconciler programs everything
    from intent.

    The returned controller's dataplane may still drift from its intent
    — run :class:`~repro.durability.reconcile.AntiEntropyReconciler`
    before serving.  A journal whose meta records a retry policy other
    than :data:`~repro.core.controller.PROGRAM_RETRY_META` is refused:
    the controller has one retry schedule.
    """
    meta = journal.meta
    if meta is None:
        raise RecoveryError("journal has no meta record")
    retry = meta.get("retry_policy", PROGRAM_RETRY_META)
    if retry != PROGRAM_RETRY_META:
        raise RecoveryError(
            f"journal retry policy {retry!r} is not the controller's "
            f"{PROGRAM_RETRY_META!r}"
        )
    if topology is None:
        topology = Topology(params_from_dict(meta["topology"]))
    # Journals outlive releases: drop config keys this version has
    # retired (the old ``engine`` selector; ``host_table_budget`` and
    # ``dip_capacity``, now read off the topology's table spec) instead
    # of refusing to restore.  The meta's ``max_program_attempts`` / ``retry_backoff_s``
    # are not read: ``retry_policy`` holds both.
    known = {f.name for f in fields(AssignmentConfig)}
    config = AssignmentConfig(**{
        key: value for key, value in meta.get("config", {}).items()
        if key in known
    })
    intent = ControllerIntent.from_journal(journal, topology, config)
    controller = DuetController(
        topology,
        config=config,
        hash_seed=meta.get("hash_seed", 0),
        virtualized=meta.get("virtualized", False),
        intent=intent,
        dataplane=dataplane,
    )
    # Resume journaling: the attach checkpoint absorbs the replayed tail
    # (including any rolled-forward op) into a fresh snapshot.
    controller.attach_journal(
        journal, snapshot_interval=meta.get("snapshot_interval", 64),
    )
    return controller
