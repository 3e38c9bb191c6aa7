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
  failed SMux leaves the fleet, but the cumulative view folds the lost
  epoch in (per-key high-watermark accounting that survives controller
  crash-restarts, because the instrumentation object outlives the
  controller it observes — :meth:`~ControllerInstrumentation.rebind`).
* ``duet_delivered_packets_total`` — per-VIP deliveries metered by host
  agents (which are never wiped).

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

from typing import Dict, List, Tuple

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


class ControllerInstrumentation:
    """One controller (and its successors, across crash-restarts)
    mirrored into a registry under the ``controller`` collector name."""

    def __init__(
        self,
        controller,
        registry: MetricsRegistry,
        *,
        prefix: str = DEFAULT_PREFIX,
        collector_name: str = "controller",
    ) -> None:
        self.controller = controller
        self.registry = registry
        self.prefix = prefix
        self.collector_name = collector_name
        # High-watermark state for the reset-proof cumulative counter:
        # mux key ("hmux:3" / "smux:1") -> last observed packet count.
        self._last_mux_packets: Dict[str, int] = {}
        self._retired_packets = 0

        p = prefix
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
            "resets and retirements")
        # Controller state gauges.
        self.g_vips = r.gauge(f"{p}_controller_vips", "VIPs under management")
        self.g_hmux_assigned = r.gauge(
            f"{p}_controller_hmux_assigned_vips",
            "VIPs currently assigned to an HMux")
        self.g_degraded = r.gauge(
            f"{p}_controller_degraded_vips",
            "VIPs degraded to SMux-only service")
        self.g_failed_switches = r.gauge(
            f"{p}_controller_failed_switches", "Switches currently failed")
        self.g_failed_links = r.gauge(
            f"{p}_controller_failed_links",
            "Directional links currently cut")
        self.g_smuxes = r.gauge(
            f"{p}_controller_smuxes", "Live SMux instances")
        self.g_routes = r.gauge(
            f"{p}_routes", "Prefixes in the BGP route table")
        # Programming / reconcile / journal counters.
        self.prog = {
            key: r.counter(f"{p}_programming_{key}_total", help_text)
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
        self.prog_backoff = r.counter(
            f"{p}_programming_backoff_seconds_total",
            "Cumulative modelled retry backoff")
        self.reconcile_rounds = r.counter(
            f"{p}_reconcile_rounds_total", "Anti-entropy rounds run")
        self.reconcile_repairs = r.counter(
            f"{p}_reconcile_repairs_total", "Anti-entropy repairs made")
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
        # dataplane), so its counters are monotone; ledger counters are
        # per-incarnation, like the programming stats.
        self.channel_counters = {
            key: r.counter(f"{p}_ctrl_channel_{key}_total", help_text)
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
        self.ledger_counters = {
            key: r.counter(
                f"{p}_ctrl_channel_ledger_{key}_total", help_text,
            )
            for key, help_text in (
                ("opened", "Programming op tickets opened"),
                ("acked", "Programming ops acknowledged"),
                ("retries", "Programming op retries issued"),
                ("timeouts", "Programming ops abandoned at the retry "
                             "deadline (VIP degraded to SMux)"),
                ("rejected", "Programming ops NACKed deterministically"),
            )
        }
        self.g_channel_pending = r.gauge(
            f"{p}_ctrl_channel_pending_ops",
            "Programming ops awaiting acknowledgement")
        self.g_channel_partitioned = r.gauge(
            f"{p}_ctrl_channel_partitioned_devices",
            "Devices currently cut off from the control channel")
        self.g_channel_queued = r.gauge(
            f"{p}_ctrl_channel_queued_dups",
            "Duplicate command copies still queued in flight")
        self.g_channel_epoch = r.gauge(
            f"{p}_ctrl_channel_epoch",
            "Current controller fencing epoch")
        self.channel_convergence = r.histogram(
            f"{p}_ctrl_channel_convergence_seconds",
            "Post-heal anti-entropy convergence latency",
            buckets=CHANNEL_CONVERGENCE_BUCKETS)

        registry.register_collector(collector_name, self._collect)

    # -- lifecycle ----------------------------------------------------------

    def rebind(self, controller) -> None:
        """Point the collector at a new controller incarnation (the
        chaos engine's crash-restart path).  Cumulative state — the
        forwarded-packets high watermarks — carries over, which is the
        whole point: telemetry history survives the crash."""
        self.controller = controller

    def close(self) -> None:
        self.registry.unregister_collector(self.collector_name)

    # -- the collector ------------------------------------------------------

    def _collect(self, registry: MetricsRegistry) -> None:
        c = self.controller
        observed: Dict[str, int] = {}

        for index in sorted(c.switch_agents):
            hmux = c.switch_agents[index].hmux
            counters = hmux.counters
            self.hmux_packets.labels(index).set_total(counters.packets)
            self.hmux_bytes.labels(index).set_total(counters.bytes)
            self.hmux_no_match.labels(index).set_total(counters.no_match)
            self.hmux_vips.labels(index).set(len(hmux.vips()))
            for vip, packets in counters.per_vip_packets.items():
                self.hmux_vip_packets.labels(
                    index, format_ip(vip)
                ).set_total(packets)
            observed[f"hmux:{index}"] = counters.packets
            # A wiped HMux (switch failure) clears per-VIP children too.
            if not counters.per_vip_packets:
                self.hmux_vip_packets.prune(
                    lambda key, i=str(index): key[0] != i
                )

        live_smuxes = set()
        for smux in c.smuxes:
            counters = smux.counters
            sid = smux.smux_id
            live_smuxes.add(str(sid))
            self.smux_packets.labels(sid).set_total(counters.packets)
            self.smux_bytes.labels(sid).set_total(counters.bytes)
            self.smux_drops.labels(sid).set_total(counters.drops_no_vip)
            self.smux_connections.labels(sid).set_total(counters.connections)
            self.smux_conn_count.labels(sid).set(smux.connection_count())
            for vip, packets in counters.per_vip_packets.items():
                self.smux_vip_packets.labels(
                    sid, format_ip(vip)
                ).set_total(packets)
            observed[f"smux:{sid}"] = counters.packets
        # SMuxes that left the fleet (fail_smux) stop being scraped.
        for instr in (
            self.smux_packets, self.smux_bytes, self.smux_drops,
            self.smux_connections, self.smux_conn_count,
            self.smux_vip_packets,
        ):
            instr.prune(lambda key: key[0] in live_smuxes)

        # Reset-proof cumulative forwarded count.
        for key, current in observed.items():
            last = self._last_mux_packets.get(key, 0)
            if current < last:
                # The mux was wiped (switch failure) — fold the lost
                # epoch into the retired pool.
                self._retired_packets += last
            self._last_mux_packets[key] = current
        for key in list(self._last_mux_packets):
            if key not in observed:
                # The mux left the fleet entirely (fail_smux).
                self._retired_packets += self._last_mux_packets.pop(key)
        self.forwarded_packets.set_total(
            self._retired_packets + sum(observed.values())
        )

        # Host-agent delivery meters, aggregated per VIP.
        delivered: Dict[int, Tuple[int, int]] = {}
        for server in sorted(c.host_agents):
            report = c.host_agents[server].traffic_report()
            for vip_addr, (packets, size) in report.items():
                prev = delivered.get(vip_addr, (0, 0))
                delivered[vip_addr] = (prev[0] + packets, prev[1] + size)
        for vip_addr in sorted(delivered):
            packets, size = delivered[vip_addr]
            label = format_ip(vip_addr)
            self.delivered_packets.labels(label).set_total(packets)
            self.delivered_bytes.labels(label).set_total(size)

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

        # Programming / reconcile / journal.
        stats = c.programming_stats
        for key, counter in self.prog.items():
            counter.set_total(getattr(stats, key))
        self.prog_backoff.set_total(stats.backoff_s)
        self.reconcile_rounds.set_total(stats.reconcile_rounds)
        self.reconcile_repairs.set_total(stats.reconcile_repairs)
        journal = c.journal
        if journal is not None:
            self.journal_ops.set_total(journal.ops_appended)
            self.journal_snapshots.set_total(journal.snapshots_written)
            self.journal_truncated.set_total(journal.records_truncated)
            self.journal_tail.set(len(journal.tail()))

        # Control channel + ledger.
        channel = c.channel
        channel_stats = channel.stats.as_dict()
        for key, counter in self.channel_counters.items():
            counter.set_total(channel_stats[key])
        self.g_channel_partitioned.set(len(channel.partitioned))
        self.g_channel_queued.set(channel.queued_dups())
        self.g_channel_epoch.set(channel.epoch)
        for seconds in channel.drain_convergences():
            self.channel_convergence.observe(seconds)
        for key, counter in self.ledger_counters.items():
            counter.set_total(getattr(c.ledger, key))
        self.g_channel_pending.set(len(c.ledger.pending()))


def instrument_controller(
    controller,
    registry: MetricsRegistry,
    *,
    prefix: str = DEFAULT_PREFIX,
) -> ControllerInstrumentation:
    """Register collectors for every component a controller owns (HMuxes,
    SMuxes, host agents, programming stats, journal) and return the
    instrumentation handle (keep it: ``rebind`` re-observes a restored
    controller)."""
    return ControllerInstrumentation(controller, registry, prefix=prefix)


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
    (callers run ``registry.collect()`` / ``scrape()`` first so the
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
