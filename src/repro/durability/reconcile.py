"""Anti-entropy reconciliation: drive the dataplane back to intent.

After a crash-restart (:func:`repro.durability.recovery.restore_controller`)
the recovered intent and the surviving dataplane can disagree: an
interrupted plan left a VIP withdrawn but not re-announced, a
rolled-forward ``add_dip`` never reached the switch, a cold restart has
no dataplane at all.  A healed channel partition leaves the same kind of
drift behind.  :class:`AntiEntropyReconciler` is the controller's one
writer, :func:`~repro.core.converge.converge`, run over every VIP and
every device: :meth:`~AntiEntropyReconciler.diff` in report-only mode
(the ``intent-matches-dataplane`` invariant), and
:meth:`~AntiEntropyReconciler.converge` in repair mode — so a repair
takes exactly the path, ordering and retry/backoff/degrade semantics of
the op that should have made it.

Convergence: each round re-checks everything and repairs what it finds;
a round that makes zero repairs proves a fixed point.  Repairs are
monotone toward intent (programming a VIP cannot un-register a host
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

from repro.core.converge import converge
from repro.core.intent import assignment_to_state
from repro.net.addressing import format_ip


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

    def diff(self) -> List[str]:
        """Describe every intent/dataplane divergence without repairing
        (the ``intent-matches-dataplane`` invariant)."""
        found: List[str] = []
        converge(self.controller, repair=False, found=found)
        return found

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
                made = []
                with maybe_span(tracer, "reconcile.round", round=rounds) as span:
                    converge(self.controller, found=made)
                    if span is not None:
                        span.attrs["repairs"] = len(made)
                stats.reconcile_repairs += len(made)
                repairs.extend(made)
                if not made:
                    break
            self.controller.checkpoint()
        if not made:
            # Devices handed to anti-entropy after an op deadline are
            # now provably back at intent: close the hand-off.
            self.controller.ledger.mark_reconciled()
        return ReconcileReport(rounds=rounds, repairs=repairs, converged=not made)


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
