"""The controller's intent: everything the journal makes durable.

The Duet controller "knows where every VIP lives" (S6, Figure 9), and
S3.3/S5.1 lean on that knowledge being right after any failure.
:class:`ControllerIntent` is that knowledge, kept **once**: the VIP
records, the stored assignment, the degraded set, the failure sets, the
SMux fleet's ids and the SNAT grants.  It is

* the only code that writes those fields — a live
  :class:`~repro.core.controller.DuetController` op calls the named
  transitions below, then converges the dataplane to them;
* their one serialization (:meth:`ControllerIntent.to_state` /
  :meth:`~ControllerIntent.from_state`, the journal's snapshot schema);
* and their one replay (:meth:`ControllerIntent.replay`): each journaled
  op has a ``_replay_<op>`` entry that calls *the same transitions*,
  taking the outcome from the commit record's effects — or, for an op
  the controller died inside, from the roll-forward rule.

Because the live path and the replay share the transitions, "journal
replay == never-crashed twin" does not depend on two copies of the
bookkeeping being kept in step; and because the controller refuses to
journal an op without a replay entry, a new op cannot reach the journal
before it can be replayed.

Derived state is deliberately absent: the DIP -> server index, the
solver context and the programming counters are rebuilt or restarted by
every incarnation, and the dataplane is re-derived from intent by
:func:`~repro.core.converge.converge`.  The intent's own indexes (DIP
-> VIPs, switch -> VIPs) are written only by its transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import Assignment, AssignmentConfig
from repro.core.migration import StepKind
from repro.core.snat import PortRange, SnatPortManager
from repro.net.failures import FailureScenario, isolated_switches
from repro.net.topology import Topology
from repro.workload.serialization import (
    dip_from_dict,
    dip_to_dict,
    vip_from_dict,
    vip_to_dict,
)
from repro.workload.vips import Dip, Vip, host_address


class RecoveryError(Exception):
    """The journal cannot be turned back into a controller."""


def assignment_to_state(
    assignment: Optional[Assignment],
) -> Optional[Dict[str, Any]]:
    """The durable part of an assignment: the map (in insertion order)
    and the unassigned list.  Utilization vectors are not intent — the
    next rebalance recomputes them, reading only these two."""
    if assignment is None:
        return None
    return {
        "map": [[vid, sw] for vid, sw in assignment.vip_to_switch.items()],
        "unassigned": list(assignment.unassigned),
    }


@dataclass
class VipRecord:
    """Controller-side state for one VIP.  Only the intent's transitions
    replace the ``dips`` tuple or set ``assigned_switch``: both are indexed."""

    vip: Vip
    dips: Tuple[Dip, ...]
    assigned_switch: Optional[int] = None  # None: SMux-only
    _rendered = None  # not a field: the memo of :meth:`rendered`

    @property
    def addr(self) -> int:
        return self.vip.addr

    @cached_property
    def vip_state(self) -> Dict[str, Any]:
        """``vip_to_dict(vip)``, shared by every snapshot (``vip`` is frozen)."""
        return vip_to_dict(self.vip)

    def dip_addrs(self) -> List[int]:
        return [d.addr for d in self.dips]

    def dip(self, dip_addr: int) -> Optional[Dip]:
        return next((d for d in self.dips if d.addr == dip_addr), None)

    def encap_targets(self, virtualized: bool) -> List[int]:
        """What the muxes encapsulate toward: DIP addresses on physical
        clusters, host addresses (one entry per VM, Figure 6) when the
        cluster is virtualized and switches cannot double-encapsulate."""
        if virtualized:
            return [host_address(d.server_id) for d in self.dips]
        return self.dip_addrs()

    def encap_weights(self) -> Optional[List[float]]:
        """WCMP weights for heterogeneous pools (S5.2); None when all
        DIPs are equal."""
        weights = [d.weight for d in self.dips]
        return None if weights.count(weights[0]) == len(weights) else weights

    def rendered(self, virtualized: bool) -> Tuple[tuple, Optional[tuple]]:
        """This VIP's mux entries (VIP-wide targets, then port pools) and
        VIP-wide WCMP weights, immutable, computed once per DIP set: the
        memo holds the ``dips`` tuple it was built from, by identity."""
        memo = self._rendered
        if memo is None or memo[0] is not self.dips or memo[1] != virtualized:
            weights = self.encap_weights()
            memo = self._rendered = (self.dips, virtualized, (
                ((self.addr, None), tuple(self.encap_targets(virtualized))),
                *(((self.addr, p), tuple(pool)) for p, pool in self.port_pools()),
            ), None if weights is None else tuple(weights))
        return memo[2], memo[3]

    def port_pools(self) -> List[Tuple[int, List[int]]]:
        """The per-port pools (Figure 8) over the *live* DIPs: the
        static ``vip.port_pools`` minus every removed DIP.  Derived from
        the journaled DIP list, so it needs no journal field of its own."""
        live = set(self.dip_addrs()) if self.vip.port_pools else ()
        return [
            (port, [dip for dip in pool if dip in live])
            for port, pool in self.vip.port_pools
        ]


class ControllerIntent:
    """What the controller wants the deployment to look like."""

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig,
        smux_ids: Iterable[int] = (),
    ) -> None:
        self.topology = topology
        #: Stamped on assignments rebuilt from the journal; live ones
        #: arrive from the solver already carrying theirs.
        self.config = config
        #: VIP address -> record, in insertion order — replay-order
        #: fidelity is what makes a restored controller's dict iteration
        #: match a twin that never crashed.
        self.records: Dict[int, VipRecord] = {}
        #: The stored assignment the next sticky rebalance diffs against.
        self.assignment: Optional[Assignment] = None
        #: VIPs the assignment wanted on an HMux but that are served by
        #: the SMux backstop instead (programming ultimately failed or
        #: the target switch was dead) — the overflow set of S3.3.2.
        self.degraded: Set[int] = set()
        self.failed_switches: Set[int] = set()
        self.failed_links: Set[int] = set()
        self.smux_ids: List[int] = list(smux_ids)
        #: SMux ids are never reused: lingering state on a crashed
        #: instance must not be mistaken for a new one.
        self.next_smux_id: int = max(self.smux_ids, default=-1) + 1
        self.snat: Dict[int, SnatPortManager] = {}
        #: DIP -> VIPs holding it, switch -> VIPs assigned to it: what the
        #: reaper and ``fail_switch`` read instead of every record.
        self.vips_of_dip: Dict[int, Set[int]] = {}
        self.vips_on_switch: Dict[int, Set[int]] = {}

    # -- serialization (the journal's snapshot schema) ----------------------

    def to_state(self) -> Dict[str, Any]:
        """The full intent as a JSON-safe checkpoint.

        Both the static VIP definition and the *live* DIP list are kept:
        after ``add_dip`` they diverge, and demand computation reads the
        static one while programming reads the live one.  Only the live
        list is serialized afresh (see :attr:`VipRecord.vip_state`).
        """
        return {
            "records": [
                {
                    "vip": record.vip_state,
                    "dips": [dip_to_dict(d) for d in record.dips],
                    "assigned": record.assigned_switch,
                }
                for record in self.records.values()
            ],
            "assignment": assignment_to_state(self.assignment),
            "degraded": sorted(self.degraded),
            "failed_switches": sorted(self.failed_switches),
            "failed_links": sorted(self.failed_links),
            "smux_ids": list(self.smux_ids),
            "next_smux_id": self.next_smux_id,
            "snat": [
                [vip, manager.to_state()]
                for vip, manager in self.snat.items()
            ],
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        topology: Topology,
        config: AssignmentConfig,
    ) -> "ControllerIntent":
        intent = cls(topology, config, state.get("smux_ids", ()))
        for entry in state["records"]:
            vip = vip_from_dict(entry["vip"], topology)
            # The live DIPs are the VIP's own until a DIP is added or
            # removed: parse them once.
            dips = entry["dips"]
            record = intent.records[vip.addr] = VipRecord(
                vip=vip,
                dips=vip.dips if dips == entry["vip"]["dips"] else tuple(
                    dip_from_dict(d, topology) for d in dips
                ),
                assigned_switch=entry["assigned"],
            )
            intent._index(record, _link)
        if state.get("assignment") is not None:
            intent.assignment = intent._assignment_from_state(
                state["assignment"]
            )
        intent.degraded = set(state.get("degraded", ()))
        intent.failed_switches = set(state.get("failed_switches", ()))
        intent.failed_links = set(state.get("failed_links", ()))
        intent.next_smux_id = state.get("next_smux_id", intent.next_smux_id)
        for vip, manager_state in state.get("snat", ()):
            intent.snat[vip] = SnatPortManager.from_state(manager_state)
        return intent

    @classmethod
    def from_journal(
        cls, journal, topology: Topology, config: AssignmentConfig,
    ) -> "ControllerIntent":
        """Snapshot + log replay.  Committed ops replay from their
        params plus recorded effects; an op record with no commit is an
        op the controller died inside and is **rolled forward**: its
        intent was durable before the first side effect, so the
        recovered state adopts the op's target and the reconciler drives
        the dataplane there."""
        if journal.snapshot is None:
            raise RecoveryError("journal has no snapshot checkpoint")
        intent = cls.from_state(journal.snapshot, topology, config)
        tail = journal.tail()
        commits = {
            r["seq"]: r.get("effects") for r in tail if r["type"] == "commit"
        }
        for record in tail:
            if record["type"] == "op":
                seq = record["seq"]
                intent.replay(
                    record["op"], record["params"],
                    commits.get(seq), seq in commits,
                )
        return intent

    def _assignment_from_state(self, state: Dict[str, Any]) -> Assignment:
        return Assignment(
            topology=self.topology,
            config=self.config,
            vip_to_switch={vid: sw for vid, sw in state["map"]},
            unassigned=list(state["unassigned"]),
            link_utilization=np.zeros(self.topology.n_links),
            memory_utilization=np.zeros(self.topology.n_switches),
            demands={},
        )

    # -- reads ---------------------------------------------------------------

    def records_by_vip_id(self) -> Dict[int, VipRecord]:
        return {r.vip.vip_id: r for r in self.records.values()}

    def isolated(self, failed_switches: Iterable[int]) -> Set[int]:
        """Live switches the cut links disconnect from every live core,
        were exactly ``failed_switches`` down ("a link failure [that]
        isolates a switch" is treated as a switch failure, S5.1)."""
        return isolated_switches(self.topology, FailureScenario(
            name="isolation-check",
            failed_switches=frozenset(failed_switches),
            failed_links=frozenset(self.failed_links),
        ))

    def _index(self, record: VipRecord, write) -> None:
        """Link (``write=_link``) or unlink a record in both indexes."""
        for dip in record.dips:
            write(self.vips_of_dip, dip.addr, record.addr)
        write(self.vips_on_switch, record.assigned_switch, record.addr)

    def _assign(self, record: VipRecord, switch: Optional[int]) -> None:
        _unlink(self.vips_on_switch, record.assigned_switch, record.addr)
        record.assigned_switch = switch
        _link(self.vips_on_switch, switch, record.addr)

    def _directions(self, link_index: int, bidirectional: bool) -> List[int]:
        if not bidirectional:
            return [link_index]
        link = self.topology.links[link_index]
        return [
            link_index, self.topology.link_between(link.dst, link.src).index,
        ]

    # -- transitions: VIP placement ------------------------------------------

    def _store(self, vip_id: int, switch: Optional[int]) -> None:
        """Keep the stored assignment in step with what actually landed:
        the sticky rebalance diffs against it, so a VIP it still maps to
        a switch that no longer serves it would look already-placed and
        never be re-programmed."""
        stored = self.assignment
        if stored is None:
            return
        if switch is None:
            stored.vip_to_switch.pop(vip_id, None)
            if vip_id not in stored.unassigned:
                stored.unassigned.append(vip_id)
        else:
            stored.vip_to_switch[vip_id] = switch
            if vip_id in stored.unassigned:
                stored.unassigned.remove(vip_id)

    def install_assignment(self, assignment: Assignment) -> None:
        """Adopt a new target; the plan's ``place``/``unplace`` calls
        then reconcile it with what each step actually achieved."""
        self.assignment = assignment

    def withdraw(self, record: VipRecord) -> None:
        """Onto the SMux stepping stone (S4.2), mid-op: the stored
        assignment still names where the VIP is headed."""
        self._assign(record, None)

    def place(self, record: VipRecord, switch: int) -> None:
        """The VIP is programmed and announced on ``switch``."""
        self._assign(record, switch)
        self.degraded.discard(record.addr)
        self._store(record.vip.vip_id, switch)

    def unplace(self, record: VipRecord, *, degraded: bool = False) -> bool:
        """Leave a VIP SMux-only and unassigned, so the next rebalance
        retries the placement.  ``degraded`` marks it as one the
        assignment wanted on an HMux (the overflow path of S3.3.2: the
        SMux aggregates already cover it — degraded, not down); returns
        whether that newly degraded it."""
        self._assign(record, None)
        self._store(record.vip.vip_id, None)
        if not degraded or record.addr in self.degraded:
            return False
        self.degraded.add(record.addr)
        return True

    # -- transitions: VIP/DIP lifecycle --------------------------------------

    def add_vip(self, vip: Vip) -> VipRecord:
        record = VipRecord(vip=vip, dips=tuple(vip.dips))
        self.records[vip.addr] = record
        self._index(record, _link)
        return record

    def remove_vip(self, vip_addr: int) -> VipRecord:
        self.degraded.discard(vip_addr)
        self.snat.pop(vip_addr, None)
        record = self.records.pop(vip_addr)
        self._index(record, _unlink)
        return record

    def add_dip(self, record: VipRecord, dip: Dip) -> None:
        record.dips = (*record.dips, dip)
        _link(self.vips_of_dip, dip.addr, record.addr)

    def remove_dip(self, record: VipRecord, dip: Dip) -> None:
        at = record.dips.index(dip)
        record.dips = record.dips[:at] + record.dips[at + 1:]
        if all(d.addr != dip.addr for d in record.dips):
            _unlink(self.vips_of_dip, dip.addr, record.addr)

    # -- transitions: failures -----------------------------------------------

    def fail_switch(self, switch: int) -> List[int]:
        """A switch is down: every VIP it hosted falls to the SMuxes.
        Returns their addresses."""
        self.failed_switches.add(switch)
        affected = sorted(self.vips_on_switch.get(switch, ()))
        for addr in affected:
            self.unplace(self.records[addr])
        return affected

    def recover_switch(self, switch: int) -> None:
        self.failed_switches.discard(switch)

    def cut_link(self, link_index: int, bidirectional: bool = True) -> List[int]:
        """Cut a cable; any switch the cut isolates is failed with it.
        Returns the switches promoted to failed."""
        self.failed_links.update(self._directions(link_index, bidirectional))
        promoted = sorted(self.isolated(self.failed_switches))
        for switch in promoted:
            self.fail_switch(switch)
        return promoted

    def restore_link(self, link_index: int, bidirectional: bool = True) -> None:
        self.failed_links.difference_update(
            self._directions(link_index, bidirectional)
        )

    # -- transitions: SMux fleet and SNAT ------------------------------------

    def add_smux(self, smux_id: int) -> None:
        self.smux_ids.append(smux_id)
        self.next_smux_id = max(self.next_smux_id, smux_id + 1)

    def remove_smux(self, smux_id: int) -> None:
        self.smux_ids.remove(smux_id)

    def allocate_snat(self, vip_addr: int, dip_addr: int) -> PortRange:
        """Grant ``dip_addr`` the next disjoint port range of the VIP
        (S5.2), standing up the VIP's manager on first use."""
        manager = self.snat.get(vip_addr)
        if manager is None:
            manager = self.snat[vip_addr] = SnatPortManager(vip_addr)
        return manager.allocate(dip_addr)

    # -- replay ---------------------------------------------------------------

    def replay(
        self,
        op: str,
        params: Dict[str, Any],
        effects: Optional[Dict[str, Any]] = None,
        committed: bool = True,
    ) -> None:
        """Apply one journaled op to the intent — the transitions the
        live op ran, minus the dataplane side effects (the reconciler
        re-derives those)."""
        handler = getattr(self, f"_replay_{op}", None)
        if handler is None:
            raise RecoveryError(f"journal op {op!r} has no replay entry")
        handler(params, effects or {}, committed)

    def _settle(
        self,
        record: VipRecord,
        target: int,
        effects: Dict[str, Any],
        committed: bool,
    ) -> None:
        """Where a bounced VIP ended up: the recorded outcome of a
        committed op; for an op the controller died inside, the op's
        target — unless the intent knows that switch is dead, in which
        case the VIP degrades exactly as the interrupted op would have."""
        if committed:
            landed = effects.get("assigned")
        else:
            landed = None if target in self.failed_switches else target
        if landed is None:
            self.unplace(record, degraded=True)
        else:
            self.place(record, landed)

    def _replay_add_vip(self, params, effects, committed) -> None:
        self.add_vip(vip_from_dict(params["vip"], self.topology))

    def _replay_remove_vip(self, params, effects, committed) -> None:
        self.remove_vip(params["vip"])

    def _replay_add_dip(self, params, effects, committed) -> None:
        record = self.records[params["vip"]]
        self.add_dip(record, dip_from_dict(params["dip"], self.topology))
        # A VIP that was SMux-only before the bounce stays SMux-only.
        if params["switch"] is not None:
            self._settle(record, params["switch"], effects, committed)

    def _replay_remove_dip(self, params, effects, committed) -> None:
        record = self.records[params["vip"]]
        self.remove_dip(record, record.dip(params["dip"]))

    def _replay_migrate_vip(self, params, effects, committed) -> None:
        self._settle(
            self.records[params["vip"]], params["to"], effects, committed,
        )

    def _replay_apply_assignment(self, params, effects, committed) -> None:
        self.install_assignment(self._assignment_from_state(params["target"]))
        degraded_ids = effects.get("degraded_ids", ())
        records = self.records_by_vip_id()
        for kind, vip_id, switch in params["plan"]:
            record = records.get(vip_id)
            if record is None:
                continue
            if kind == StepKind.WITHDRAW.value:
                self.withdraw(record)
            # Roll forward adopts the full target; placements on a
            # switch the intent knows is dead degrade, exactly as the
            # interrupted plan would have.
            elif (
                vip_id in degraded_ids if committed
                else switch in self.failed_switches
            ):
                self.unplace(record, degraded=True)
            else:
                self.place(record, switch)

    def _replay_fail_switch(self, params, effects, committed) -> None:
        self.fail_switch(params["switch"])

    def _replay_recover_switch(self, params, effects, committed) -> None:
        self.recover_switch(params["switch"])

    def _replay_fail_smux(self, params, effects, committed) -> None:
        self.remove_smux(params["smux"])

    def _replay_add_smux(self, params, effects, committed) -> None:
        self.add_smux(params["smux_id"])

    def _replay_cut_link(self, params, effects, committed) -> None:
        self.cut_link(params["link"], params.get("bidirectional", True))

    def _replay_restore_link(self, params, effects, committed) -> None:
        self.restore_link(params["link"], params.get("bidirectional", True))

    def _replay_enable_snat(self, params, effects, committed) -> None:
        for dip in self.records[params["vip"]].dips:
            self.allocate_snat(params["vip"], dip.addr)

    def _replay_grant_snat_range(self, params, effects, committed) -> None:
        self.allocate_snat(params["vip"], params["dip"])


def _link(index: Dict[int, Set[int]], key: Optional[int], addr: int) -> None:
    if key is not None:
        index.setdefault(key, set()).add(addr)


def _unlink(index: Dict[int, Set[int]], key: Optional[int], addr: int) -> None:
    held = index.get(key)
    if held is not None:
        held.discard(addr)
        if not held:
            del index[key]


#: Every op name the journal may carry: the controller refuses to
#: journal anything else.
REPLAYABLE_OPS: FrozenSet[str] = frozenset(
    name[len("_replay_"):]
    for name in vars(ControllerIntent) if name.startswith("_replay_")
)
