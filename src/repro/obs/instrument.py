"""Collector adapters: existing counter structs -> the metrics registry.

The dataplane and controller keep their plain-int counters
(:class:`~repro.dataplane.hmux.HMuxCounters`,
:class:`~repro.dataplane.smux.SMuxCounters`,
:class:`~repro.dataplane.hostagent.VipMeter`,
:class:`~repro.core.controller.ProgrammingStats`, the journal's lifetime
counters) — this module *registers them into* the registry by installing
one named collector that mirrors them into typed instruments at scrape
time.  The hot paths never see the registry.

:class:`ControllerInstrumentation` also maintains the two fleet-level
series the conservation laws need:

* ``duet_forwarded_packets_total`` — cumulative packets counted by any
  mux, **reset-proof**: a failed switch wipes its ``HMuxCounters`` and a
  failed SMux leaves the fleet, but each count is folded into a retired
  total at that moment (:attr:`HMux.wiped_packets
  <repro.dataplane.hmux.HMux.wiped_packets>`,
  :attr:`DuetController.retired_smux_packets
  <repro.core.controller.DuetController.retired_smux_packets>`), so no
  scrape has to run before a wipe.  The total survives controller
  crash-restarts because the instrumentation object outlives the
  controller it observes (:meth:`~ControllerInstrumentation.rebind`).
* ``duet_delivered_packets_total`` — per-VIP deliveries metered by host
  agents (which are never wiped).

Programming, reconcile and ledger counters start over with each
controller incarnation; ``rebind`` carries the dying one's counts, so
they too stay monotone across crash-restarts.

Conservation laws (:func:`conservation_violations`), computed purely
from registry samples:

1. Per mux, per plane: ``packets == sum(per-VIP packets)`` — every
   counted packet is attributed to exactly one VIP (drops/no-match are
   counted separately and excluded on both sides).
2. Fleet-wide: ``delivered <= forwarded`` — a host agent can only meter
   a packet some mux first counted (the strict inequality absorbs
   deliveries that fail *after* the mux counted, e.g. unhealthy DIPs).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.addressing import format_ip
from repro.obs.registry import MetricsRegistry

#: Default metric-name prefix (see docs/OBSERVABILITY.md for the naming
#: conventions).
DEFAULT_PREFIX = "duet"

#: Post-heal convergence runs one in-process anti-entropy pass: usually
#: sub-millisecond on test fabrics, seconds on north-star shapes.
CHANNEL_CONVERGENCE_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5,
)


class _MuxSeries:
    """One mux's bound children, and the counters object they mirror."""

    __slots__ = ("label", "children", "per_vip", "counters")

    def __init__(self, label: str, instruments: Sequence[Any]) -> None:
        self.label = label
        self.children = tuple(instr.labels(label) for instr in instruments)
        self.per_vip: Dict[int, Any] = {}
        self.counters: Any = None


_LEDGER_KEYS = ("opened", "acked", "retries", "timeouts", "rejected")


def _incarnation_counts(controller) -> Dict[str, float]:
    """The counters ``controller`` started from zero: every
    :class:`~repro.core.controller.ProgrammingStats` field by name, then
    the ledger's as ``ledger_<key>``."""
    counts = dict(vars(controller.programming_stats))
    for key in _LEDGER_KEYS:
        counts[f"ledger_{key}"] = getattr(controller.ledger, key)
    return counts


def _mux_packets(controller) -> int:
    """Packets counted, over their lifetimes, by every mux ``controller``
    holds or has retired."""
    return (
        controller.retired_smux_packets
        + sum(
            agent.hmux.wiped_packets + agent.hmux.counters.packets
            for agent in controller.switch_agents.values()
        )
        + sum(smux.counters.packets for smux in controller.smuxes)
    )


class ControllerInstrumentation:
    """One controller (and its successors, across crash-restarts)
    mirrored into a registry under the ``controller`` collector name."""

    def __init__(self, controller, registry: MetricsRegistry) -> None:
        self.controller = controller
        self.registry = registry
        # What earlier controller incarnations counted (see rebind):
        # forwarded packets of their retired muxes, and their
        # per-incarnation counters.
        self._carried_packets = 0
        self._carried = dict.fromkeys(_incarnation_counts(controller), 0)
        # Bound children, keyed by switch index / SMux id / VIP address
        # (a VIP's: its delivered packets and bytes children).
        self._hmuxes: Dict[int, _MuxSeries] = {}
        self._smuxes: Dict[int, _MuxSeries] = {}
        self._delivered: Dict[int, Tuple[Any, Any]] = {}
        self._journal: Optional[Tuple[Any, ...]] = None

        p = DEFAULT_PREFIX
        r = registry
        # Per-HMux (label: switch).
        self.hmux_packets = r.counter(
            f"{p}_hmux_packets_total",
            "Packets forwarded by each HMux", ("switch",))
        self.hmux_bytes = r.counter(
            f"{p}_hmux_bytes_total",
            "Bytes forwarded by each HMux", ("switch",))
        self.hmux_no_match = r.counter(
            f"{p}_hmux_no_match_total",
            "Packets an HMux had no entry for", ("switch",))
        self.hmux_vip_packets = r.counter(
            f"{p}_hmux_vip_packets_total",
            "Per-VIP packets forwarded by each HMux", ("switch", "vip"))
        self.hmux_vips = r.gauge(
            f"{p}_hmux_vips",
            "VIPs currently programmed on each HMux", ("switch",))
        # Per-SMux (label: smux).
        self.smux_packets = r.counter(
            f"{p}_smux_packets_total",
            "Packets forwarded by each SMux", ("smux",))
        self.smux_bytes = r.counter(
            f"{p}_smux_bytes_total",
            "Bytes forwarded by each SMux", ("smux",))
        self.smux_drops = r.counter(
            f"{p}_smux_drops_no_vip_total",
            "Packets an SMux dropped for an unknown VIP", ("smux",))
        self.smux_connections = r.counter(
            f"{p}_smux_connections_total",
            "Connections ever pinned by each SMux", ("smux",))
        self.smux_vip_packets = r.counter(
            f"{p}_smux_vip_packets_total",
            "Per-VIP packets forwarded by each SMux", ("smux", "vip"))
        self.smux_conn_count = r.gauge(
            f"{p}_smux_connection_count",
            "Live connection-table entries per SMux", ("smux",))
        # Host agents (delivery side of the conservation law).
        self.delivered_packets = r.counter(
            f"{p}_delivered_packets_total",
            "Packets delivered to DIPs of each VIP (host-agent meters)",
            ("vip",))
        self.delivered_bytes = r.counter(
            f"{p}_delivered_bytes_total",
            "Bytes delivered to DIPs of each VIP", ("vip",))
        # Fleet-level cumulative (reset-proof; see module docstring).
        self.forwarded_packets = r.counter(
            f"{p}_forwarded_packets_total",
            "Cumulative packets counted by any mux, surviving mux "
            "resets and retirements").labels()
        # Controller state gauges.
        # Unlabelled instruments are held by their one child.
        self.g_vips = r.gauge(
            f"{p}_controller_vips", "VIPs under management").labels()
        self.g_hmux_assigned = r.gauge(
            f"{p}_controller_hmux_assigned_vips",
            "VIPs currently assigned to an HMux").labels()
        self.g_degraded = r.gauge(
            f"{p}_controller_degraded_vips",
            "VIPs degraded to SMux-only service").labels()
        self.g_failed_switches = r.gauge(
            f"{p}_controller_failed_switches",
            "Switches currently failed").labels()
        self.g_failed_links = r.gauge(
            f"{p}_controller_failed_links",
            "Directional links currently cut").labels()
        self.g_smuxes = r.gauge(
            f"{p}_controller_smuxes", "Live SMux instances").labels()
        self.g_routes = r.gauge(
            f"{p}_routes", "Prefixes in the BGP route table").labels()
        # Programming / reconcile / ledger counters, keyed as totals()
        # keys their counts.
        self.carried_counters = {
            key: r.counter(f"{p}_programming_{key}_total", help_text).labels()
            for key, help_text in (
                ("attempts", "Switch programming RPC attempts"),
                ("retries", "Programming attempts beyond the first"),
                ("transient_faults", "Injected transient RPC faults"),
                ("degraded", "VIPs degraded to SMux-only"),
                ("skipped_dead_switch", "Plan steps that targeted a "
                                        "failed switch"),
                ("unwinds", "Programming attempts abandoned to a fault"),
            )
        }
        self.carried_counters["backoff_s"] = r.counter(
            f"{p}_programming_backoff_seconds_total",
            "Cumulative modelled retry backoff").labels()
        self.carried_counters["reconcile_rounds"] = r.counter(
            f"{p}_reconcile_rounds_total", "Anti-entropy rounds run").labels()
        self.carried_counters["reconcile_repairs"] = r.counter(
            f"{p}_reconcile_repairs_total",
            "Anti-entropy repairs made").labels()
        # Bound at the first collect that sees a journal: a controller
        # without one exports no journal series.
        self.journal_ops = r.counter(
            f"{p}_journal_ops_total", "Ops appended to the journal")
        self.journal_snapshots = r.counter(
            f"{p}_journal_snapshots_total", "Journal snapshot checkpoints")
        self.journal_truncated = r.counter(
            f"{p}_journal_records_truncated_total",
            "Journal records dropped by snapshot truncation")
        self.journal_tail = r.gauge(
            f"{p}_journal_tail_records",
            "Op/commit records since the last snapshot")
        # Control channel + pending-ops ledger.  The channel belongs to
        # the deployment (it survives crash-restarts with the
        # dataplane); the ledger starts over with each incarnation, like
        # the programming stats, and rebind carries both.  Every counter
        # here is monotone across crashes.
        self.channel_counters = {
            key: r.counter(f"{p}_ctrl_channel_{key}_total", help_text).labels()
            for key, help_text in (
                ("sends", "Commands handed to the control channel"),
                ("applied", "Channel deliveries that mutated a device"),
                ("losses", "Programming commands lost in flight"),
                ("partition_drops", "Programming commands dropped at a "
                                    "partitioned device"),
                ("delayed_dups", "Duplicate command copies queued for "
                                 "redelivery"),
                ("dup_drops", "Duplicate deliveries dropped by the "
                              "(epoch, seq) fence"),
                ("fence_rejects", "Stale-epoch deliveries dropped by "
                                  "the fence"),
                ("stale_applied", "Fencing violations: stale or "
                                  "duplicate commands that applied"),
                ("pumps", "Duplicate-redelivery sweeps"),
                ("heals", "Channel partitions or loss/delay weather "
                          "healed"),
            )
        }
        self.carried_counters.update(
            (f"ledger_{key}", r.counter(
                f"{p}_ctrl_channel_ledger_{key}_total", help_text,
            ).labels())
            for key, help_text in (
                ("opened", "Programming op tickets opened"),
                ("acked", "Programming ops acknowledged"),
                ("retries", "Programming op retries issued"),
                ("timeouts", "Programming ops abandoned once their "
                             "retries ran out (VIP degraded to SMux)"),
                ("rejected", "Programming ops NACKed deterministically"),
            )
        )
        self.g_channel_pending = r.gauge(
            f"{p}_ctrl_channel_pending_ops",
            "Programming ops awaiting acknowledgement").labels()
        self.g_channel_partitioned = r.gauge(
            f"{p}_ctrl_channel_partitioned_devices",
            "Devices currently cut off from the control channel").labels()
        self.g_channel_queued = r.gauge(
            f"{p}_ctrl_channel_queued_dups",
            "Duplicate command copies still queued in flight").labels()
        self.g_channel_epoch = r.gauge(
            f"{p}_ctrl_channel_epoch",
            "Current controller fencing epoch").labels()
        # Observed where a convergence is measured (the chaos engine's
        # heal), not by the collector, so a partial recorder tick sees
        # it without a scrape; its child appears with the first one.
        self.channel_convergence = r.histogram(
            f"{p}_ctrl_channel_convergence_seconds",
            "Post-heal anti-entropy convergence latency",
            buckets=CHANNEL_CONVERGENCE_BUCKETS)

        registry.register_collector("controller", self._collect)

    # -- lifecycle ----------------------------------------------------------

    def rebind(self, controller) -> None:
        """Point the collector at a new controller incarnation (the
        chaos engine's crash-restart path), carrying over what the dying
        one counted, which is the whole point: telemetry history
        survives the crash.  A mux the new incarnation adopts counts in
        both forwarded totals and one it builds starts at zero, so the
        difference is what only the dying one held; its programming and
        ledger counters die with it and are carried whole."""
        dying = self.controller
        self._carried_packets += _mux_packets(dying) - _mux_packets(controller)
        for key, value in _incarnation_counts(dying).items():
            self._carried[key] += value
        self.controller = controller

    def close(self) -> None:
        self.registry.unregister_collector("controller")

    def totals(self) -> Dict[str, float]:
        """Per-incarnation counters (keyed as :func:`_incarnation_counts`
        keys them) summed over every incarnation observed."""
        return {
            key: self._carried[key] + value
            for key, value in _incarnation_counts(self.controller).items()
        }

    # -- the collector ------------------------------------------------------

    def _mirror_mux(
        self, series: _MuxSeries, counters: Any, per_vip_packets: Any,
    ) -> None:
        """Mirror one mux's per-VIP packets into ``per_vip_packets``.  A
        new counters object (a wiped switch) starts a new life: the
        mux's per-VIP children are pruned and rebuilt from what it
        holds."""
        if counters is not series.counters:
            if series.per_vip:
                label = series.label
                per_vip_packets.prune(lambda key: key[0] != label)
                series.per_vip = {}
            series.counters = counters
        children = series.per_vip
        for vip, packets in counters.per_vip_packets.items():
            child = children.get(vip)
            if child is None:
                child = children[vip] = per_vip_packets.labels(
                    series.label, format_ip(vip),
                )
            child.set_total(packets)

    def _collect(self, registry: MetricsRegistry) -> None:
        c = self.controller
        self.forwarded_packets.set_total(
            self._carried_packets + _mux_packets(c)
        )

        for index in sorted(c.switch_agents):
            hmux = c.switch_agents[index].hmux
            counters = hmux.counters
            series = self._hmuxes.get(index)
            if series is None:
                series = self._hmuxes[index] = _MuxSeries(str(index), (
                    self.hmux_packets, self.hmux_bytes, self.hmux_no_match,
                    self.hmux_vips,
                ))
            packets, size, no_match, vips = series.children
            packets.set_total(counters.packets)
            size.set_total(counters.bytes)
            no_match.set_total(counters.no_match)
            vips.set(len(hmux.vips()))
            self._mirror_mux(series, counters, self.hmux_vip_packets)

        live = set()
        for smux in c.smuxes:
            counters = smux.counters
            live.add(smux.smux_id)
            series = self._smuxes.get(smux.smux_id)
            if series is None:
                series = self._smuxes[smux.smux_id] = _MuxSeries(
                    str(smux.smux_id), (
                        self.smux_packets, self.smux_bytes, self.smux_drops,
                        self.smux_connections, self.smux_conn_count,
                    ),
                )
            packets, size, drops, connections, conn_count = series.children
            packets.set_total(counters.packets)
            size.set_total(counters.bytes)
            drops.set_total(counters.drops_no_vip)
            connections.set_total(counters.connections)
            conn_count.set(smux.connection_count())
            self._mirror_mux(series, counters, self.smux_vip_packets)
        if len(self._smuxes) != len(live):
            # SMuxes that left the fleet (fail_smux) stop being scraped.
            for smux_id in [i for i in self._smuxes if i not in live]:
                del self._smuxes[smux_id]
            labels = {series.label for series in self._smuxes.values()}
            for instr in (
                self.smux_packets, self.smux_bytes, self.smux_drops,
                self.smux_connections, self.smux_conn_count,
                self.smux_vip_packets,
            ):
                instr.prune(lambda key: key[0] in labels)

        # Host-agent delivery meters, aggregated per VIP.
        delivered: Dict[int, Tuple[int, int]] = {}
        for agent in c.host_agents.values():
            for vip_addr, meter in agent.meters.items():
                prev = delivered.get(vip_addr, (0, 0))
                delivered[vip_addr] = (
                    prev[0] + meter.packets, prev[1] + meter.bytes,
                )
        for vip_addr in sorted(delivered):
            children = self._delivered.get(vip_addr)
            if children is None:
                label = format_ip(vip_addr)
                children = self._delivered[vip_addr] = (
                    self.delivered_packets.labels(label),
                    self.delivered_bytes.labels(label),
                )
            packets_child, bytes_child = children
            packets, size = delivered[vip_addr]
            packets_child.set_total(packets)
            bytes_child.set_total(size)

        # Controller gauges.
        records = c.records()
        self.g_vips.set(len(records))
        self.g_hmux_assigned.set(sum(
            1 for r in records.values() if r.assigned_switch is not None
        ))
        self.g_degraded.set(len(c.degraded_vips))
        self.g_failed_switches.set(len(c.failed_switches))
        self.g_failed_links.set(len(c.failed_links))
        self.g_smuxes.set(len(c.smuxes))
        self.g_routes.set(len(c.route_table))

        # Programming / reconcile / ledger, then the journal.
        totals = self.totals()
        for key, counter in self.carried_counters.items():
            counter.set_total(totals[key])
        journal = c.journal
        if journal is not None:
            if self._journal is None:
                self._journal = tuple(instr.labels() for instr in (
                    self.journal_ops, self.journal_snapshots,
                    self.journal_truncated, self.journal_tail,
                ))
            ops, snapshots, truncated, tail = self._journal
            ops.set_total(journal.ops_appended)
            snapshots.set_total(journal.snapshots_written)
            truncated.set_total(journal.records_truncated)
            tail.set(len(journal.tail()))

        # Control channel + ledger.
        channel = c.channel
        channel_stats = channel.stats.as_dict()
        for key, counter in self.channel_counters.items():
            counter.set_total(channel_stats[key])
        self.g_channel_partitioned.set(len(channel.partitioned))
        self.g_channel_queued.set(channel.queued_dups())
        self.g_channel_epoch.set(channel.epoch)
        self.g_channel_pending.set(len(c.ledger.pending()))


def instrument_controller(
    controller, registry: MetricsRegistry,
) -> ControllerInstrumentation:
    """Register collectors for every component a controller owns (HMuxes,
    SMuxes, host agents, programming stats, journal) and return the
    instrumentation handle (keep it: ``rebind`` re-observes a restored
    controller)."""
    return ControllerInstrumentation(controller, registry)


#: Epoch solves range from sub-millisecond smoke topologies to multi-
#: second scalar solves on north-star fabrics; span both.
ASSIGN_SOLVE_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


def register_assignment_metrics(
    registry: MetricsRegistry,
    *,
    prefix: str = DEFAULT_PREFIX,
    collector_name: str = "assignment",
) -> None:
    """Mirror the per-engine assignment-solver stats
    (:data:`repro.core.fastassign.ASSIGN_STATS`) into the registry.

    Same collector idiom as the dataplane counters: the solver hot path
    only bumps plain ints on its :class:`AssignStats`; this installs a
    named collector that mirrors them into typed instruments at scrape
    time.  Solve latencies buffered since the last scrape drain into the
    histogram here.
    """
    from repro.core.fastassign import ASSIGN_STATS

    p = prefix
    solve_seconds = registry.histogram(
        f"{p}_assign_solve_seconds",
        "Epoch assignment solve latency by engine", ("engine",),
        buckets=ASSIGN_SOLVE_BUCKETS)
    solves = registry.counter(
        f"{p}_assign_solves_total",
        "Epoch assignment solves by engine", ("engine",))
    evaluations = registry.counter(
        f"{p}_assign_candidate_evaluations_total",
        "Candidate switches scored during placement", ("engine",))
    rows_built = registry.counter(
        f"{p}_assign_rows_built_total",
        "Delta-matrix rows (VIP structures) built", ("engine",))
    rows_invalidated = registry.counter(
        f"{p}_assign_rows_invalidated_total",
        "Delta-matrix rows dropped by invalidation or cache pressure",
        ("engine",))
    fallbacks = registry.counter(
        f"{p}_assign_engine_fallbacks_total",
        "Solves that fell back to the scalar engine", ("engine",))
    sticky_keeps = registry.counter(
        f"{p}_assign_sticky_keeps_total",
        "VIPs the sticky rule kept without a search", ("engine",))
    cache_hits = registry.counter(
        f"{p}_assign_cache_hits_total",
        "Solver cache lookups served from a kept entry",
        ("engine", "cache"))
    cache_misses = registry.counter(
        f"{p}_assign_cache_misses_total",
        "Solver cache lookups that had to build their entry",
        ("engine", "cache"))

    def collect(_registry: MetricsRegistry) -> None:
        for name, stats in ASSIGN_STATS.items():
            solves.labels(name).set_total(stats.solves)
            evaluations.labels(name).set_total(stats.candidate_evaluations)
            rows_built.labels(name).set_total(stats.rows_built)
            rows_invalidated.labels(name).set_total(stats.rows_invalidated)
            fallbacks.labels(name).set_total(stats.fallbacks)
            sticky_keeps.labels(name).set_total(stats.sticky_keeps)
            cache_hits.labels(name, "leg").set_total(stats.leg_hits)
            cache_misses.labels(name, "leg").set_total(stats.leg_misses)
            cache_hits.labels(name, "structure").set_total(
                stats.structure_hits)
            cache_misses.labels(name, "structure").set_total(
                stats.rows_built)
            for seconds in stats.drain_pending_solves():
                solve_seconds.labels(name).observe(seconds)

    registry.register_collector(collector_name, collect)


def conservation_violations(
    registry: MetricsRegistry, *, prefix: str = DEFAULT_PREFIX,
) -> List[str]:
    """Check the conservation laws over *already scraped* registry state
    (callers run ``registry.collect()`` first so the
    observation is consistent).  Returns human-readable violations."""
    out: List[str] = []
    for plane, label in (("hmux", "switch"), ("smux", "smux")):
        totals = registry.get(f"{prefix}_{plane}_packets_total")
        per_vip = registry.get(f"{prefix}_{plane}_vip_packets_total")
        if totals is None or per_vip is None:
            continue
        attributed: Dict[str, float] = {}
        for values, child in per_vip.items():
            attributed[values[0]] = attributed.get(values[0], 0.0) + child.value
        for values, child in totals.items():
            mux = values[0]
            total = child.value
            vip_sum = attributed.pop(mux, 0.0)
            if total != vip_sum:
                out.append(
                    f"{plane} {label}={mux}: packets_total {total:g} != "
                    f"sum of per-VIP packets {vip_sum:g}"
                )
        for mux, vip_sum in sorted(attributed.items()):
            out.append(
                f"{plane} {label}={mux}: per-VIP packets {vip_sum:g} "
                "attributed to a mux with no packets_total sample"
            )

    forwarded = registry.get(f"{prefix}_forwarded_packets_total")
    delivered = registry.get(f"{prefix}_delivered_packets_total")
    if forwarded is not None and delivered is not None:
        forwarded_total = forwarded.total()
        delivered_total = delivered.total()
        if delivered_total > forwarded_total:
            out.append(
                f"fleet: delivered packets {delivered_total:g} exceed "
                f"cumulative forwarded packets {forwarded_total:g}"
            )
    return out
