"""Anti-entropy reconciliation: drive the dataplane back to intent.

After a crash-restart (:func:`repro.durability.recovery.restore_controller`)
the recovered intent and the surviving dataplane can disagree: an
interrupted plan left a VIP withdrawn but not re-announced, a
rolled-forward ``add_dip`` never reached the switch, a cold restart has
no dataplane at all.  :class:`AntiEntropyReconciler` diffs intent
against every layer — switch tables, /32 and aggregate announcements,
SMux coverage, host-agent registrations, SNAT configs — and repairs
drift through the controller's own machinery (``_program_or_degrade``:
the guarded retry path plus the intent's ``place``/``unplace``
transitions), so repairs obey the same retry/backoff/degrade semantics
as normal operation.

Convergence: each round re-checks every category and repairs what it
finds; a round that makes zero repairs proves a fixed point.  Repairs
are monotone toward intent (programming a VIP cannot un-register a host
agent; a repair that *fails* degrades the VIP, shrinking intent), so the
loop terminates within ``max_rounds`` in practice after one repair round
plus one verification round.

:func:`controller_fingerprint` digests a controller's intent *and*
dataplane into one comparable structure — the differential recovery
tests hold a crashed-and-recovered controller to fingerprint equality
with a never-crashed twin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.intent import assignment_to_state
from repro.net.addressing import Prefix, format_ip
from repro.net.bgp import MuxRef
from repro.workload.vips import SMUX_AGGREGATES


@dataclass
class ReconcileReport:
    """What a convergence pass did."""

    rounds: int
    repairs: List[str] = field(default_factory=list)
    converged: bool = True

    @property
    def n_repairs(self) -> int:
        return len(self.repairs)


class AntiEntropyReconciler:
    """Diff recovered intent against the live dataplane; repair drift."""

    def __init__(self, controller, *, max_rounds: int = 5) -> None:
        self.controller = controller
        self.max_rounds = max_rounds

    # -- public API --------------------------------------------------------

    def diff(self) -> List[str]:
        """Describe every intent/dataplane divergence without repairing
        (the ``intent-matches-dataplane`` invariant)."""
        return self._run_round(repair=False)

    def converge(self) -> ReconcileReport:
        """Repair drift in bounded rounds; stops at a zero-repair round."""
        from repro.obs.tracing import maybe_span

        tracer = self.controller.tracer
        stats = self.controller.programming_stats
        repairs: List[str] = []
        rounds = 0
        made: List[str] = []
        with maybe_span(tracer, "reconcile.converge"):
            while rounds < self.max_rounds:
                rounds += 1
                stats.reconcile_rounds += 1
                with maybe_span(
                    tracer, "reconcile.round", round=rounds,
                ) as span:
                    made = self._run_round(repair=True)
                    if span is not None:
                        span.attrs["repairs"] = len(made)
                stats.reconcile_repairs += len(made)
                repairs.extend(made)
                if not made:
                    break
            self.controller.checkpoint()
        converged = not made
        if converged:
            # Devices handed to anti-entropy after an op deadline are
            # now provably back at intent: close the hand-off.
            self.controller.ledger.mark_reconciled()
        return ReconcileReport(
            rounds=rounds, repairs=repairs, converged=converged,
        )

    # -- one round ---------------------------------------------------------

    def _run_round(self, repair: bool) -> List[str]:
        found: List[str] = []
        found += self._sync_failed_switches(repair)
        found += self._sync_host_agents(repair)
        found += self._sync_switch_programming(repair)
        found += self._sync_announcements(repair)
        found += self._sync_smux_coverage(repair)
        found += self._sync_snat(repair)
        return found

    def _sync_failed_switches(self, repair: bool) -> List[str]:
        """A switch the intent knows is dead must hold nothing (S5.1:
        state is lost with the switch)."""
        c = self.controller
        found = []
        for index in sorted(c.intent.failed_switches):
            agent = c.switch_agents[index]
            residual = (
                agent.hmux.vips()
                or len(agent.hmux.host_table)
                or c.route_table.announced_by(agent.mux_ref)
            )
            if residual:
                found.append(f"failed switch {index} holds residual state")
                if repair:
                    agent.fail()
        return found

    def _sync_host_agents(self, repair: bool) -> List[str]:
        c = self.controller
        records = c.intent.records
        found = []
        # Registrations the intent wants.
        for addr in sorted(records):
            record = records[addr]
            for dip in record.dips:
                agent = c.host_agents.get(dip.server_id)
                if agent is None or dip.addr not in agent._dip_to_vip:
                    found.append(
                        f"DIP {format_ip(dip.addr)} of VIP {format_ip(addr)} "
                        f"not registered on server {dip.server_id}"
                    )
                    if repair:
                        c._attach_dip(addr, dip)
        # Registrations the intent no longer has.
        intended = {d.addr for r in records.values() for d in r.dips}
        for server in sorted(c.host_agents):
            agent = c.host_agents[server]
            for dip_addr in agent.dips():
                if dip_addr not in intended:
                    found.append(
                        f"server {server} still registers removed DIP "
                        f"{format_ip(dip_addr)}"
                    )
                    if repair:
                        c.send_command(
                            f"host:{server}",
                            "host_unregister_dip",
                            lambda a=agent, d=dip_addr: a.unregister_dip(d),
                        )
        return found

    def _sync_switch_programming(self, repair: bool) -> List[str]:
        c = self.controller
        records = c.intent.records
        found = []
        by_switch: Dict[int, List[int]] = {}
        for addr in sorted(records):
            record = records[addr]
            if record.assigned_switch is not None:
                by_switch.setdefault(record.assigned_switch, []).append(addr)
        for index in sorted(c.switch_agents):
            agent = c.switch_agents[index]
            if index in c.intent.failed_switches:
                # Intent-failed switches were wiped above; anything the
                # intent still maps here is an intent bug, not drift.
                continue
            expected = by_switch.get(index, [])
            programmed = set(agent.hmux.vips())
            for addr in sorted(programmed - set(expected)):
                found.append(
                    f"switch {index} programs VIP {format_ip(addr)} the "
                    "intent does not place there"
                )
                if repair:
                    installed = [
                        port for vip, port in agent.hmux.port_rules()
                        if vip == addr
                    ]
                    if installed:
                        agent.remove_vip_port_rules(addr, installed)
                    agent.remove_vip(addr)
            for addr in expected:
                found += self._sync_one_vip(agent, records[addr], repair)
        return found

    def _sync_one_vip(self, agent, record, repair: bool) -> List[str]:
        """Bring one (switch, VIP) pair to intent: programming, targets,
        and port rules."""
        c = self.controller
        addr = record.addr
        vip = record.vip
        target = record.encap_targets(c.virtualized)
        if not agent.hmux.has_vip(addr):
            desc = (
                f"VIP {format_ip(addr)} intended on switch "
                f"{agent.switch_index} but not programmed"
            )
            if repair:
                c._program_or_degrade(record, agent.switch_index)
            return [desc]
        found = []
        current = agent.hmux.dips_of(addr)
        if sorted(current) != sorted(target):
            extra = _multiset_difference(current, target)
            missing = _multiset_difference(target, current)
            if extra and not missing:
                # Pure shrink: resilient removal keeps surviving flows
                # pinned in place — the same path a live remove_dip
                # takes, so the evolved layout matches a twin's.
                for encap in extra:
                    found.append(
                        f"switch {agent.switch_index} VIP {format_ip(addr)} "
                        f"still targets removed DIP {format_ip(encap)}"
                    )
                    if repair:
                        agent.remove_dip(addr, encap)
            else:
                # Growth or mixed drift: additions defeat resilient
                # hashing (S5.2), so rebuild from scratch — exactly what
                # the add_dip bounce does.
                found.append(
                    f"switch {agent.switch_index} VIP {format_ip(addr)} "
                    "targets diverge from intent"
                )
                if repair:
                    installed = [
                        port for v, port in agent.hmux.port_rules()
                        if v == addr
                    ]
                    if installed:
                        agent.remove_vip_port_rules(addr, installed)
                    agent.remove_vip(addr)
                    c._program_or_degrade(record, agent.switch_index)
                    return found
        expected_ports = {port for port, _ in vip.port_pools}
        installed_ports = {
            port for v, port in agent.hmux.port_rules() if v == addr
        }
        for port in sorted(expected_ports - installed_ports):
            found.append(
                f"switch {agent.switch_index} VIP {format_ip(addr)}:{port} "
                "port pool missing"
            )
            if repair:
                pools = [(p, pool) for p, pool in vip.port_pools if p == port]
                agent.add_vip_port_rules(addr, pools)
        for port in sorted(installed_ports - expected_ports):
            found.append(
                f"switch {agent.switch_index} VIP {format_ip(addr)}:{port} "
                "stray port pool"
            )
            if repair:
                agent.remove_vip_port_rules(addr, [port])
        return found

    def _sync_announcements(self, repair: bool) -> List[str]:
        c = self.controller
        found = []
        records = c.intent.records
        live_smux_refs = {MuxRef.smux(s.smux_id) for s in c.smuxes}
        aggregates = set(SMUX_AGGREGATES)
        # /32s: exactly the assigned record's agent announces it.
        for addr in sorted(records):
            record = records[addr]
            host = Prefix.host(addr)
            announcers = set(c.route_table.announcers(host))
            expected = set()
            if record.assigned_switch is not None:
                agent = c.switch_agents[record.assigned_switch]
                if agent.hmux.has_vip(addr):
                    expected = {agent.mux_ref}
            for mux in sorted(announcers - expected, key=str):
                found.append(
                    f"stray /32 for VIP {format_ip(addr)} announced by {mux}"
                )
                if repair:
                    c.route_table.withdraw(host, mux)
            for mux in sorted(expected - announcers, key=str):
                found.append(
                    f"missing /32 for VIP {format_ip(addr)} from {mux}"
                )
                if repair:
                    c.route_table.announce(host, mux)
        # /32s for VIPs the intent no longer has.
        for prefix, muxes in list(c.route_table.routes()):
            if prefix in aggregates or prefix.length != 32:
                continue
            if prefix.network not in records:
                for mux in muxes:
                    found.append(
                        f"route {format_ip(prefix.network)}/32 for removed "
                        f"VIP announced by {mux}"
                    )
                    if repair:
                        c.route_table.withdraw(prefix, mux)
        # Aggregates: every live SMux, and nothing else.
        for aggregate in SMUX_AGGREGATES:
            announcers = set(c.route_table.announcers(aggregate))
            for ref in sorted(live_smux_refs - announcers, key=str):
                found.append(f"SMux {ref.ident} missing aggregate {aggregate}")
                if repair:
                    c.route_table.announce(aggregate, ref)
            for ref in sorted(announcers - live_smux_refs, key=str):
                found.append(f"stale aggregate announcer {ref}")
                if repair:
                    c.route_table.withdraw(aggregate, ref)
        return found

    def _sync_smux_coverage(self, repair: bool) -> List[str]:
        """Every SMux serves every VIP with the intended targets —
        the full-coverage backstop property (S3.3.1)."""
        c = self.controller
        records = c.intent.records
        found = []
        expected_ports = {
            (addr, port): list(pool)
            for addr, record in records.items()
            for port, pool in record.vip.port_pools
        }
        for smux in c.smuxes:
            for addr in sorted(records):
                record = records[addr]
                target = record.encap_targets(c.virtualized)
                if (
                    not smux.has_vip(addr)
                    or smux.dips_of(addr) != target
                ):
                    found.append(
                        f"SMux {smux.smux_id} VIP {format_ip(addr)} "
                        "targets diverge from intent"
                    )
                    if repair:
                        c.send_command(
                            f"smux:{smux.smux_id}",
                            "smux_set_vip",
                            lambda s=smux, a=addr, t=target, r=record:
                                s.set_vip(a, t, r.encap_weights()),
                        )
            installed = set(smux.port_vips())
            for key in sorted(set(expected_ports) - installed):
                addr, port = key
                found.append(
                    f"SMux {smux.smux_id} missing port pool "
                    f"{format_ip(addr)}:{port}"
                )
                if repair:
                    c.send_command(
                        f"smux:{smux.smux_id}",
                        "smux_set_vip_port",
                        lambda s=smux, a=addr, p=port, pool=expected_ports[key]:
                            s.set_vip_port(a, p, pool),
                    )
            for addr, port in sorted(installed - set(expected_ports)):
                found.append(
                    f"SMux {smux.smux_id} stray port pool "
                    f"{format_ip(addr)}:{port}"
                )
                if repair:
                    c.send_command(
                        f"smux:{smux.smux_id}",
                        "smux_remove_vip_port",
                        lambda s=smux, a=addr, p=port: s.remove_vip_port(a, p),
                    )
            for addr in sorted(set(smux.vips()) - set(records)):
                found.append(
                    f"SMux {smux.smux_id} still serves removed VIP "
                    f"{format_ip(addr)}"
                )
                if repair:
                    c.send_command(
                        f"smux:{smux.smux_id}",
                        "smux_remove_vip",
                        lambda s=smux, a=addr: s.remove_vip(a),
                    )
        return found

    def _sync_snat(self, repair: bool) -> List[str]:
        """Each granted DIP's host agent holds a config for the *latest*
        allocated range.  Older configs with the right range are left
        alone even when their slot snapshot is stale — re-pushing would
        diverge from a twin that never re-pushed either."""
        c = self.controller
        found = []
        for vip_addr in sorted(c.intent.snat):
            manager = c.intent.snat[vip_addr]
            record = c.intent.records.get(vip_addr)
            if record is None:
                continue
            for dip in record.dips:
                ranges = manager.ranges_of(dip.addr)
                if not ranges:
                    continue
                agent = c.host_agents.get(dip.server_id)
                have = None if agent is None else agent.snat_config_of(dip.addr)
                if (
                    have is not None
                    and have.port_range == ranges[-1].as_tuple()
                ):
                    continue
                found.append(
                    f"SNAT config for DIP {format_ip(dip.addr)} of VIP "
                    f"{format_ip(vip_addr)} missing or stale"
                )
                if repair and agent is not None:
                    c.push_snat_config(record, dip, ranges[-1])
        return found


def _multiset_difference(left: List[int], right: List[int]) -> List[int]:
    """Elements of ``left`` beyond their multiplicity in ``right``."""
    from collections import Counter

    remaining = Counter(right)
    out = []
    for item in left:
        if remaining[item] > 0:
            remaining[item] -= 1
        else:
            out.append(item)
    return out


# -- fingerprints ------------------------------------------------------------

def _hmux_table_fingerprint(agent) -> Dict[str, Any]:
    hmux = agent.hmux
    return {
        "vips": {
            str(vip): sorted(hmux.dips_of(vip)) for vip in hmux.vips()
        },
        "ports": sorted(
            (str(vip), port, sorted(set(hmux.port_slot_targets(vip, port))))
            for vip, port in hmux.port_rules()
        ),
    }


def _smux_table_fingerprint(smux) -> Dict[str, Any]:
    return {
        "vips": {str(vip): list(smux.dips_of(vip)) for vip in smux.vips()},
        "ports": sorted(smux.port_vips()),
    }


def controller_fingerprint(controller) -> Dict[str, Any]:
    """A comparable digest of a controller's intent plus its dataplane.

    Covers everything the differential recovery test holds equal between
    a crashed-and-recovered controller and its never-crashed twin:
    records (in insertion order — replay fidelity), the stored
    assignment, degraded/failed sets, the SMux fleet and id high-water
    mark, every route, every switch table, every SMux table, and SNAT
    manager state.
    """
    c = controller
    intent = c.intent
    return {
        "records": [
            [
                record.addr,
                record.vip.vip_id,
                record.assigned_switch,
                [d.addr for d in record.dips],
            ]
            for record in intent.records.values()
        ],
        "population": [v.vip_id for v in c.population],
        "assignment": assignment_to_state(intent.assignment),
        "degraded": sorted(intent.degraded),
        "failed_switches": sorted(intent.failed_switches),
        "failed_links": sorted(intent.failed_links),
        "smux_ids": [s.smux_id for s in c.smuxes],
        "next_smux_id": intent.next_smux_id,
        "routes": sorted(
            (
                f"{format_ip(prefix.network)}/{prefix.length}",
                sorted(str(m) for m in muxes),
            )
            for prefix, muxes in c.route_table.routes()
        ),
        "switch_tables": {
            str(index): _hmux_table_fingerprint(agent)
            for index, agent in sorted(c.switch_agents.items())
            if agent.hmux.vips() or agent.hmux.port_rules()
        },
        "smux_tables": {
            str(s.smux_id): _smux_table_fingerprint(s) for s in c.smuxes
        },
        "snat": [
            [vip, intent.snat[vip].to_state()]
            for vip in sorted(intent.snat)
        ],
    }
