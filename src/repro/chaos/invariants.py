"""Invariant battery checked after every chaos event.

Each check returns structured :class:`Violation`\\ s instead of raising,
so one broken invariant never masks another and the engine can attach
the full list to the reproduction artifact.  The invariants are the
paper's availability and consistency claims made executable:

* **reachability** — every VIP still forwards end-to-end (S3.3.1: the
  SMux aggregates backstop everything); delivery may only fail toward a
  DIP currently reported unhealthy (a flap the controller has not yet
  reaped).
* **route-liveness** — no route points at a dead mux (a withdrawn HMux
  or a failed SMux attracting traffic would be a blackhole).
* **table-capacity** — no switch table exceeds its ASIC capacity.
* **snat-disjoint** — per-VIP SNAT port ranges never overlap (S5.2).
* **intent-matches-dataplane** — every device holds exactly what the
  controller intends: the anti-entropy diff of
  :mod:`repro.core.converge` is empty.  That one statement covers HMux,
  SMux and host entries, a /32 announced by anyone but the serving HMux
  (or missing from it), stale or missing SMux aggregates (full SMux
  coverage, S3.3.1), and residual state on a failed switch (S5.1).
* **channel-fencing** — no stale or duplicate control command applied.
* **metrics-conservation** — the telemetry registry's conservation laws.
* **flow-affinity** (stateful, via :class:`FlowAffinityTracker`) —
  established flows keep their DIP across events unrelated to their
  VIP's pool: resilient hashing on HMuxes, connection state on SMuxes.

What the diff cannot see is guaranteed by the intent's own transitions:
a degraded VIP is never placed, a failed switch holds no record, and
``DuetController.population`` is a view of the records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.controller import DuetController
from repro.dataplane.batch import FORWARD_OK, HOST_REFUSED, FlowBatch
from repro.dataplane.packet import PROTO_TCP, FiveTuple, Packet
from repro.net.addressing import format_ip
from repro.net.bgp import MuxKind
from repro.workload.vips import CLIENT_POOL

from repro.chaos.events import ChaosEvent, EventKind


@dataclass(frozen=True)
class Violation:
    """One broken invariant, human-readable and artifact-serializable."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


#: Reachability probes (distinct flows) sent to each VIP per check.
PROBES_PER_VIP = 2


class InvariantChecker:
    """Stateless invariants over the controller's current state."""

    def __init__(
        self,
        controller: DuetController,
        registry=None,
    ) -> None:
        self.controller = controller
        #: Optional :class:`repro.obs.registry.MetricsRegistry` — when
        #: set, the battery also asserts the metric conservation laws.
        self.registry = registry

    def check(self) -> List[Violation]:
        violations: List[Violation] = []
        violations += self.check_route_liveness()
        violations += self.check_reachability()
        violations += self.check_table_capacity()
        violations += self.check_snat_disjoint()
        violations += self.check_intent_matches_dataplane()
        violations += self.check_channel_fencing()
        violations += self.check_metrics_conservation()
        return violations

    # -- individual invariants ---------------------------------------------

    def check_route_liveness(self) -> List[Violation]:
        live = self.controller.live_mux_refs()
        return [
            Violation(
                "route-liveness",
                f"{prefix} still announced by dead mux {mux}",
            )
            for prefix, mux in self.controller.route_table.stale_routes(live)
        ]

    def check_reachability(self) -> List[Violation]:
        c = self.controller
        unhealthy = {
            dip for dip, ok in c.collect_health_reports().items() if not ok
        }
        records = sorted(c.records().items())
        n = len(records) * PROBES_PER_VIP
        index = np.tile(np.arange(PROBES_PER_VIP), len(records))
        result = c.forward_batch(FlowBatch.from_fields(
            CLIENT_POOL.network + 0x4000 + index,
            np.repeat([addr for addr, _ in records], PROBES_PER_VIP),
            33000 + index, np.full(n, 80), np.full(n, PROTO_TCP),
        ))
        violations: List[Violation] = []
        for row, (status, dip) in enumerate(zip(
            result.status.tolist(), result.dip.tolist(),
        )):
            vip_row, index = divmod(row, PROBES_PER_VIP)
            addr, record = records[vip_row]
            dip_addrs = set(record.dip_addrs())
            if status == HOST_REFUSED:
                # Delivery toward a DIP the health feed currently
                # marks dead: expected while the flap is unreaped.
                if dip_addrs & unhealthy:
                    continue
                violations.append(Violation(
                    "reachability",
                    f"VIP {format_ip(addr)} probe {index} failed at "
                    "the host agent with no unhealthy DIPs",
                ))
            elif status != FORWARD_OK:
                error = result.errors[row]
                violations.append(Violation(
                    "reachability",
                    f"VIP {format_ip(addr)} probe {index} failed: "
                    f"{type(error).__name__}: {error}",
                ))
            elif dip not in dip_addrs:
                violations.append(Violation(
                    "reachability",
                    f"VIP {format_ip(addr)} probe {index} landed "
                    f"on {format_ip(dip)}, not one of its DIPs",
                ))
        return violations

    def check_table_capacity(self) -> List[Violation]:
        c = self.controller
        violations: List[Violation] = []
        for index, agent in sorted(c.switch_agents.items()):
            hmux = agent.hmux
            usage = (
                ("host", len(hmux.host_table), hmux.host_table.capacity),
                ("ecmp", hmux.ecmp_table.used_entries,
                 hmux.ecmp_table.capacity),
                ("tunnel", len(hmux.tunnel_table),
                 hmux.tunnel_table.capacity),
            )
            for table, used, capacity in usage:
                if used > capacity:
                    violations.append(Violation(
                        "table-capacity",
                        f"switch {index} {table} table {used}/{capacity}",
                    ))
        return violations

    def check_intent_matches_dataplane(self) -> List[Violation]:
        """The anti-entropy reconciler's diff, run in audit mode: the
        controller's intended state (records, assignment, SNAT grants)
        must be exactly what the live dataplane implements.  Any drift a
        crash-restart would have to repair is a violation *now*."""
        from repro.durability.reconcile import AntiEntropyReconciler

        return [
            Violation("intent-matches-dataplane", detail)
            for detail in AntiEntropyReconciler(self.controller).diff()
        ]

    def check_snat_disjoint(self) -> List[Violation]:
        return [
            Violation(
                "snat-disjoint",
                f"VIP {format_ip(vip_addr)} has overlapping SNAT port ranges",
            )
            for vip_addr, manager in sorted(
                self.controller.snat_managers().items()
            )
            if not manager.validate_disjoint()
        ]

    def check_channel_fencing(self) -> List[Violation]:
        """No stale or duplicate control-channel delivery may ever
        mutate a device: the channel's ``stale_applied`` counter records
        every delivery that got past the (epoch, seq) fence and still
        applied.  It must stay 0 for the life of the deployment."""
        stale_applied = self.controller.channel.stats.stale_applied
        if stale_applied == 0:
            return []
        return [Violation(
            "channel-fencing",
            f"{stale_applied} stale/duplicate control "
            "command(s) were applied past the (epoch, seq) fence",
        )]

    def check_metrics_conservation(self) -> List[Violation]:
        """Conservation laws computed purely from the metrics registry
        (no controller state): per mux, ``packets_total`` must equal the
        sum of its per-VIP attribution, and fleet-wide deliveries can
        never exceed the cumulative forwarded count.  Skipped (empty)
        when no registry is wired in."""
        if self.registry is None:
            return []
        from repro.obs.instrument import conservation_violations

        self.registry.collect()
        return [
            Violation("metrics-conservation", detail)
            for detail in conservation_violations(self.registry)
        ]


@dataclass
class _Expectation:
    """Where a flow's expected DIP came from.

    ``mux_key`` is the resolving mux at establishment time and
    ``dip_set`` the VIP's DIP set then (``None`` when the expectation
    was inherited from pre-existing SMux connection state, whose
    provenance — the DIP set it was hashed over — is unknowable).
    Together they decide whether a later remap is a legitimate
    consequence of state that does not transfer between muxes, or a
    broken-affinity violation.
    """

    dip: int
    mux_key: Tuple[str, int]
    dip_set: Optional[FrozenSet[int]]


class FlowAffinityTracker:
    """Stateful invariant: established flows keep their DIP.

    The tracker pins a few synthetic flows per VIP to the DIP they first
    delivered to, then re-forwards them after every event.  The paper's
    claim (S3.3.1, S4.2) is hash consistency across planes: HMuxes and
    SMuxes make the same stateless choice over the same DIP set, so
    migration, switch failure, and SMux fleet churn do not move
    established flows.  What legitimately *can* move a flow:

    * its DIP was removed/reaped — resilient hashing remaps exactly
      those flows (detected by the expected DIP leaving the record);
    * it lands on a *different* mux whose view differs from where the
      expectation was established: a fresh HMux table is built over the
      current DIP set (resilient-hashing history does not transfer
      between switches), and an SMux serves from its own connection
      table (Ananta state is per-instance).  Concretely, a remap is
      excused iff the resolving mux changed AND either the VIP's DIP
      set changed since the expectation was established (the new mux
      hashes over a set the old one never saw) or the delivery matches
      a pre-existing pin on the new SMux (connection state from an
      older epoch of this same synthetic flow).

    Same mux, same DIP set, different DIP — or same mux remapping a
    flow whose own DIP survived a removal — is always a violation:
    that is resilient hashing or connection affinity breaking.
    """

    def __init__(
        self,
        controller: DuetController,
        seed: int = 0,
        flows_per_vip: int = 2,
    ) -> None:
        self.controller = controller
        self.flows_per_vip = flows_per_vip
        self.rng = random.Random(seed)
        self._expected: Dict[FiveTuple, _Expectation] = {}
        self._vip_of: Dict[FiveTuple, int] = {}

    # -- expectation management --------------------------------------------

    def prime(self) -> None:
        """Establish expectations for every VIP that lacks them."""
        tracked = set(self._vip_of.values())
        self._prime([
            (flow, addr) for addr in sorted(self.controller.records())
            if addr not in tracked for flow in self._flows_for(addr)
        ])

    def _flows_for(self, vip_addr: int) -> List[FiveTuple]:
        return [
            FiveTuple(
                src_ip=CLIENT_POOL.network + 0x8000 + (vip_addr + i) % 0x3FFF,
                dst_ip=vip_addr,
                src_port=20000 + i,
                dst_port=80,
                protocol=6,
            )
            for i in range(self.flows_per_vip)
        ]

    def _prime_vip(self, vip_addr: int) -> None:
        self._prime([(flow, vip_addr) for flow in self._flows_for(vip_addr)])

    def _prime(self, flows: List[Tuple[FiveTuple, int]]) -> None:
        """(Re-)establish the expectation of each ``(flow, vip)``: one
        batch through the controller."""
        result = self.controller.forward_batch(
            FlowBatch.from_packets([Packet(flow) for flow, _ in flows])
        )
        for row, (flow, vip_addr) in enumerate(flows):
            self._establish(flow, vip_addr, result, row)

    def _establish(
        self, flow: FiveTuple, vip_addr: int, result, row: int,
    ) -> None:
        """Expect ``flow`` to stay where row ``row`` of ``result``
        delivered it."""
        self._vip_of[flow] = vip_addr
        if result.status[row] != FORWARD_OK:
            # Unreachable right now (e.g. all DIPs flapped down); try
            # again after the next event.
            self._expected.pop(flow, None)
            return
        mux = result.mux[row]
        self._expected[flow] = _Expectation(
            dip=int(result.dip[row]),
            mux_key=(mux.kind.value, mux.ident),
            dip_set=self._provenance(
                mux, int(result.pin[row]), vip_addr,
                self.controller.intent.records.get(vip_addr),
            ),
        )

    def _provenance(self, mux, pin: int, vip_addr, record):
        """The DIP set a fresh delivery's choice was hashed over, or
        ``None`` when the choice came from non-transferable state: a
        pre-existing SMux pin (``pin`` >= 0), or an HMux layout evolved
        by resilient removals (which protects flows in place but matches
        no fresh build)."""
        if pin >= 0 or record is None:
            return None
        if mux.kind is MuxKind.HMUX:
            agent = self.controller.switch_agents.get(mux.ident)
            if agent is not None and agent.hmux.has_evolved_layout(vip_addr):
                return None
        return frozenset(record.dip_addrs())

    def _drop_vip(self, vip_addr: int) -> None:
        for flow in [f for f, v in self._vip_of.items() if v == vip_addr]:
            self._vip_of.pop(flow, None)
            self._expected.pop(flow, None)

    def note(self, event: ChaosEvent) -> None:
        """Absorb an applied event before the next check."""
        kind = event.kind
        if kind is EventKind.REMOVE_VIP:
            self._drop_vip(event.params["vip"])
        elif kind is EventKind.ADD_VIP:
            self._prime_vip(event.params["addr"])
        elif kind is EventKind.ADD_DIP:
            # The bounce rebuilt every table for this VIP over the grown
            # set (S5.2: additions defeat resilient hashing), so prior
            # expectations lost their provenance — re-establish them.
            self._prime_vip(event.params["vip"])

    # -- the check ---------------------------------------------------------

    def check(self) -> List[Violation]:
        """Forward every tracked flow once, as one batch (flows are
        distinct, so each row sees the state it would alone), then judge
        each; flows a legitimate remap re-establishes are forwarded
        again, as a second batch, as the re-establishing packet."""
        c = self.controller
        records = c.records()
        unhealthy = {
            dip for dip, ok in c.collect_health_reports().items() if not ok
        }
        # (flow, vip, expectation or None to establish one, DIP set)
        plan: List[Tuple[FiveTuple, int, Optional[_Expectation], Set[int]]] = []
        for flow, vip_addr in list(self._vip_of.items()):
            record = records.get(vip_addr)
            if record is None:
                # VIP vanished without a REMOVE_VIP event reaching
                # note(); treat as stale tracking, not a violation.
                self._drop_vip(vip_addr)
                continue
            expectation = self._expected.get(flow)
            dip_addrs = set(record.dip_addrs())
            if expectation is None or expectation.dip not in dip_addrs:
                # Untracked, or the flow's DIP was removed (resilient
                # hashing remaps exactly these flows): establish anew.
                plan.append((flow, vip_addr, None, dip_addrs))
                continue
            if (
                expectation.dip_set is not None
                and expectation.dip_set - dip_addrs
                and not dip_addrs - expectation.dip_set
            ):
                # Another DIP of this VIP was removed.  The serving HMux
                # table evolved *resiliently* (this flow's DIP is
                # protected in place), but that evolved layout differs
                # from any fresh build over the shrunk set — the
                # protection does not transfer to another mux.  Keep
                # enforcing the DIP on this mux; mark the provenance
                # non-transferable.
                expectation = _Expectation(
                    dip=expectation.dip,
                    mux_key=expectation.mux_key,
                    dip_set=None,
                )
                self._expected[flow] = expectation
            if expectation.dip in unhealthy:
                continue  # delivery would fail; re-check once healthy
            plan.append((flow, vip_addr, expectation, dip_addrs))

        result = c.forward_batch(
            FlowBatch.from_packets([Packet(flow) for flow, *_ in plan])
        )
        violations: List[Violation] = []
        again: List[Tuple[FiveTuple, int]] = []
        for row, (flow, vip_addr, expectation, dip_addrs) in enumerate(plan):
            if expectation is None:
                self._establish(flow, vip_addr, result, row)
                continue
            status = result.status[row]
            if status != FORWARD_OK:
                if status == HOST_REFUSED and dip_addrs & unhealthy:
                    # The flow was remapped onto a flapped-down DIP the
                    # controller has not reaped yet; re-establish once
                    # the pool heals.
                    self._expected.pop(flow, None)
                    continue
                error = result.errors[row]
                violations.append(Violation(
                    "flow-affinity",
                    f"established flow to VIP {format_ip(vip_addr)} "
                    f"stopped forwarding: {type(error).__name__}: {error}",
                ))
                continue
            mux, pin = result.mux[row], int(result.pin[row])
            got = int(result.dip[row])
            mux_key = (mux.kind.value, mux.ident)
            if got == expectation.dip:
                if mux_key != expectation.mux_key:
                    # Same DIP, new serving mux: re-anchor the
                    # expectation's provenance to the mux now holding
                    # the flow (its table/pin is what future checks
                    # must stay consistent with).
                    self._expected[flow] = _Expectation(
                        dip=got,
                        mux_key=mux_key,
                        dip_set=self._provenance(
                            mux, pin, vip_addr, records[vip_addr]
                        ),
                    )
                continue
            moved_mux = mux_key != expectation.mux_key
            set_drifted = (
                expectation.dip_set is None
                or frozenset(dip_addrs) != expectation.dip_set
            )
            dips_added = (
                expectation.dip_set is not None
                and bool(dip_addrs - expectation.dip_set)
            )
            stale_pin = pin == got
            if (moved_mux and (set_drifted or stale_pin)) or (
                not moved_mux and dips_added
            ):
                # Legitimate remap (see class docstring): the flow
                # landed on a mux whose view of the VIP differs from
                # where the expectation was established — or a DIP was
                # added since, and the add_dip bounce rebuilt this mux's
                # table over a set it never hashed before (S5.2 —
                # additions defeat resilient hashing).
                again.append((flow, vip_addr))
                continue
            violations.append(Violation(
                "flow-affinity",
                f"flow to VIP {format_ip(vip_addr)} moved from DIP "
                f"{format_ip(expectation.dip)} to {format_ip(got)} "
                f"via {mux}",
            ))
        if again:
            self._prime(again)
        return violations
