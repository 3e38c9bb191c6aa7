"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list                       # what can I run?
    python -m repro figures fig16 fig18        # regenerate figures
    python -m repro figures --all --scale small
    python -m repro topology --containers 6 --tors 8
    python -m repro quickstart --vips 100

Installed as the ``duet-repro`` console script as well.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro.experiments import (
    ALL_FIGURES,
    medium_scale,
    paper_scale_experiment,
    small_scale,
)

_SCALES = {
    "small": small_scale,
    "medium": medium_scale,
    "paper": paper_scale_experiment,
}

#: One-line description per figure (shown by ``list``).
_DESCRIPTIONS = {
    "fig01": "SMux latency CDFs and CPU utilization vs offered load",
    "fig11": "HMux capacity: one switch vs three saturated SMuxes",
    "fig12": "VIP availability during HMux failure (~38 ms outage)",
    "fig13": "VIP availability during zero-loss migration",
    "fig14": "migration latency breakdown (FIB update dominates)",
    "fig15": "traffic and DIP distribution across VIPs (skew)",
    "fig16": "#SMuxes needed: Duet vs Ananta across a traffic sweep",
    "fig17": "median latency vs #SMuxes (Ananta curve, Duet point)",
    "fig18": "Duet's MRU-greedy vs Random VIP assignment",
    "fig19": "max link utilization under switch/container failures",
    "fig20": "migration strategies: Sticky / Non-sticky / One-time",
}

#: Figures whose run() takes an ExperimentScale first argument.
_SCALED_FIGURES = {"fig15", "fig16", "fig17", "fig18", "fig19", "fig20"}


#: The flags the soak verbs (chaos / health / slo / alerts) share,
#: declared once; a verb names the ones it takes and the defaults that
#: differ for it (:func:`_add_soak_options`).
_SOAK_OPTIONS = {
    "seed": dict(type=int, default=0,
                 help="soak seed (first seed of a --seeds corpus)"),
    "events": dict(type=int, help="number of chaos events to inject"),
    "vips": dict(type=int),
    "smuxes": dict(type=int, default=3),
    "crash-prob": dict(type=float, default=0.0,
                       help="per-step probability of killing the controller "
                            "and restoring it from its write-ahead journal"),
    "background-loss": dict(type=float,
                            help="benign probe loss rate (budget noise "
                                 "floor; exercises false-positive "
                                 "suppression)"),
    "keep-going": dict(action="store_true",
                       help="continue past the first violation"),
    "seeds": dict(type=int, default=1, metavar="N",
                  help="soak a corpus of N seeds (seed .. seed+N-1) "
                       "through the sharded fleet runner"),
    "workers": dict(type=int, default=1, metavar="N",
                    help="worker processes for the fleet runner; the "
                         "merged report is byte-identical for any N"),
    "report": dict(metavar="PATH", default=None,
                   help="write the merged fleet report (canonical JSON) "
                        "here"),
    "tail": dict(type=int, metavar="N",
                 help="print the last N timeline entries"),
}


def _add_soak_options(
    parser: argparse.ArgumentParser, names: str, **defaults
) -> None:
    """Declare the shared soak flags listed in ``names`` (space
    separated) on ``parser``; ``defaults`` overrides a flag's default by
    its ``args`` attribute name."""
    for name in names.split():
        spec = dict(_SOAK_OPTIONS[name])
        dest = name.replace("-", "_")
        if dest in defaults:
            spec["default"] = defaults[dest]
        parser.add_argument(f"--{name}", **spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duet-repro",
        description=(
            "Duet (SIGCOMM 2014) reproduction: hybrid hardware/software "
            "cloud load balancing"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list available figures")

    figures = sub.add_parser("figures", help="run paper-figure experiments")
    figures.add_argument(
        "names", nargs="*", metavar="FIG",
        help=f"figure ids ({', '.join(sorted(ALL_FIGURES))})",
    )
    figures.add_argument("--all", action="store_true", help="run every figure")
    figures.add_argument(
        "--scale", choices=sorted(_SCALES), default="small",
        help="experiment scale for the simulation figures",
    )
    figures.add_argument("--seed", type=int, default=0)
    figures.add_argument(
        "--export", metavar="DIR", default=None,
        help="also write each figure's rows as CSV under DIR",
    )

    topo = sub.add_parser("topology", help="describe a container FatTree")
    topo.add_argument("--containers", type=int, default=4)
    topo.add_argument("--tors", type=int, default=4,
                      help="ToRs per container")
    topo.add_argument("--aggs", type=int, default=2,
                      help="Aggs per container")
    topo.add_argument("--cores", type=int, default=4)
    topo.add_argument("--servers", type=int, default=16,
                      help="servers per ToR")

    quick = sub.add_parser("quickstart", help="mini end-to-end Duet demo")
    quick.add_argument("--vips", type=int, default=60)
    quick.add_argument("--seed", type=int, default=0)

    workload = sub.add_parser(
        "workload", help="generate / inspect workload files",
    )
    workload_sub = workload.add_subparsers(dest="workload_command",
                                           required=True)
    gen = workload_sub.add_parser(
        "generate", help="synthesize a population (+ optional trace)",
    )
    gen.add_argument("--out", required=True, help="population JSON path")
    gen.add_argument("--vips", type=int, default=200)
    gen.add_argument("--tbps", type=float, default=0.2,
                     help="total VIP traffic in Tbps")
    gen.add_argument("--containers", type=int, default=6)
    gen.add_argument("--tors", type=int, default=6)
    gen.add_argument("--aggs", type=int, default=3)
    gen.add_argument("--cores", type=int, default=6)
    gen.add_argument("--servers", type=int, default=24)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--trace-out", default=None,
                     help="also synthesize a trace to this path")
    gen.add_argument("--epochs", type=int, default=18)
    info = workload_sub.add_parser("info", help="describe a workload file")
    info.add_argument("path", help="population JSON path")

    chaos = sub.add_parser(
        "chaos",
        help="randomized fault injection against a live controller",
    )
    _add_soak_options(
        chaos,
        "seed events vips smuxes crash-prob keep-going seeds workers report",
        events=500, vips=24,
    )
    chaos.add_argument("--broken-switch", type=int, action="append",
                       default=[], metavar="INDEX",
                       help="switch partitioned from the control channel, "
                            "so it rejects every programming op "
                            "(repeatable; forces SMux-only degradation)")
    chaos.add_argument("--sabotage-at", type=int, default=None,
                       metavar="STEP",
                       help="deliberately corrupt state at STEP to prove "
                            "the checker and artifact pipeline work")
    chaos.add_argument("--artifact", metavar="PATH", default=None,
                       help="where to write the reproduction artifact on "
                            "violation (default: chaos-artifact.json)")
    chaos.add_argument("--replay", metavar="PATH", default=None,
                       help="replay a previously saved artifact instead "
                            "of generating events")
    chaos.add_argument("--channel-loss", type=float, default=0.0,
                       metavar="PROB",
                       help="ceiling on injected control-channel command "
                            "loss probability (programming ops only)")
    chaos.add_argument("--channel-delay", type=float, default=0.0,
                       metavar="PROB",
                       help="ceiling on injected control-channel duplicate-"
                            "delivery probability (fencing must absorb the "
                            "redelivered copies)")
    chaos.add_argument("--channel-partition", type=int, default=0,
                       metavar="N",
                       help="max switches concurrently partitioned from "
                            "the control channel")
    chaos.add_argument("--journal", metavar="PATH", default=None,
                       help="write the final write-ahead journal (JSONL) "
                            "here; feed it to 'recover' to audit restores")
    chaos.add_argument("--snapshot-interval", type=int, default=32,
                       help="journal ops between snapshot checkpoints")
    chaos.add_argument("--quarantine-dir", metavar="DIR",
                       default="fleet-quarantine",
                       help="where poison-seed artifacts land (replay "
                            "with: chaos --replay DIR/seedN.json)")
    chaos.add_argument("--timeout-s", type=float, default=None,
                       metavar="S",
                       help="per-seed wall-clock budget; a wedged worker "
                            "is killed, retried, then quarantined")
    chaos.add_argument("--retries", type=int, default=None, metavar="N",
                       help="worker attempts per seed before quarantine "
                            "(default: shared RetryPolicy budget)")
    chaos.add_argument("--inject-worker-crash", type=int, action="append",
                       default=[], metavar="SEED",
                       help="kill the worker for SEED on every attempt "
                            "(CI quarantine-path smoke; repeatable)")

    health = sub.add_parser(
        "health",
        help="no-oracle soak: silent faults injected behind the "
             "controller's back; the probe-driven detector must find "
             "and remediate them",
    )
    _add_soak_options(
        health,
        "seed events vips smuxes background-loss crash-prob keep-going "
        "tail seeds workers report",
        events=120, vips=24, background_loss=0.0, tail=12,
    )
    health.add_argument("--rounds-per-step", type=int, default=3,
                        help="probe rounds run after every event")
    health.add_argument("--timeline", metavar="PATH", default=None,
                        help="always write the detector timeline here "
                             "(default: health-timeline.json, on "
                             "violation only)")

    recover = sub.add_parser(
        "recover",
        help="restore a controller from a write-ahead journal and "
             "reconcile it (crash-recovery drill)",
    )
    recover.add_argument("journal", help="journal JSONL path "
                                         "(from chaos --journal)")
    recover.add_argument("--max-rounds", type=int, default=5,
                         help="anti-entropy convergence round limit")

    metrics = sub.add_parser(
        "metrics",
        help="run a scenario under the telemetry recorder and export "
             "the metric series",
    )
    metrics.add_argument(
        "--scenario",
        choices=["quickstart", "hmux-capacity", "failover", "migration",
                 "smux-failure"],
        default="quickstart",
    )
    metrics.add_argument("--export", choices=["prom", "jsonl", "both"],
                         default="prom", dest="export_format",
                         help="Prometheus text, JSON lines, or both")
    metrics.add_argument("--out", metavar="PATH", default=None,
                         help="write the export here instead of stdout "
                              "(used as a prefix for --export both)")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--vips", type=int, default=24,
                         help="quickstart scenario: number of VIPs")
    metrics.add_argument("--flows", type=int, default=2,
                         help="quickstart scenario: flows forwarded per VIP")

    trace = sub.add_parser(
        "trace",
        help="trace one VIP migration end to end and print the causal "
             "span tree",
    )
    trace.add_argument("--vips", type=int, default=24)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--json", action="store_true",
                       help="emit spans as JSON lines instead of the tree")
    trace.add_argument("--tap", action="store_true",
                       help="also sample forwarded packets and print their "
                            "hop-by-hop decap/encap paths")
    trace.add_argument("--tap-every", type=int, default=1, metavar="N",
                       help="sample every Nth forwarded packet")
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write the output here instead of stdout")

    slo = sub.add_parser(
        "slo",
        help="no-oracle soak with the SLO engine: per-SLO error budgets "
             "and burn rates judged over the run",
    )
    _add_soak_options(
        slo, "seed events vips background-loss",
        events=60, vips=16, background_loss=0.02,
    )
    slo.add_argument("--fault-free", action="store_true",
                     help="keep the fault plane empty: only background "
                          "loss burns budget")

    alerts = sub.add_parser(
        "alerts",
        help="burn-rate alerting soak: fire alerts over a no-oracle "
             "chaos run, score them against fault-plane ground truth",
    )
    _add_soak_options(
        alerts, "seed seeds workers events vips background-loss tail",
        events=60, vips=16, background_loss=0.02, tail=5,
    )
    alerts.add_argument("--fault-free", action="store_true",
                        help="no injected faults: every incident is a "
                             "false positive and fails the run")
    alerts.add_argument("--min-precision", type=float, default=None,
                        help="fail (exit 1) if aggregate incident "
                             "precision falls below this")
    alerts.add_argument("--min-recall", type=float, default=None,
                        help="fail (exit 1) if aggregate eligible-fault "
                             "recall falls below this")
    alerts.add_argument("--incident-dir", metavar="DIR", default=None,
                        help="save every incident artifact (JSON) here")

    incident = sub.add_parser(
        "incident",
        help="inspect a saved incident artifact (what broke, when, why) "
             "or verify it replays bit-for-bit",
    )
    incident.add_argument("artifact", help="incident JSON path "
                                           "(from alerts --incident-dir)")
    incident.add_argument("--replay", action="store_true",
                          help="re-run the embedded config + event "
                               "prefix and verify the regenerated "
                               "incident is byte-identical")
    incident.add_argument("--tail", type=int, default=0, metavar="N",
                          help="print only the last N timeline entries "
                               "(0 = all)")
    return parser


def _cmd_list() -> int:
    width = max(len(name) for name in _DESCRIPTIONS)
    for name in sorted(_DESCRIPTIONS):
        print(f"{name.ljust(width)}  {_DESCRIPTIONS[name]}")
    return 0


def _cmd_figures(
    names: List[str],
    run_all: bool,
    scale_name: str,
    seed: int,
    export_dir: Optional[str] = None,
) -> int:
    if run_all:
        names = sorted(ALL_FIGURES)
    if not names:
        print("no figures requested (use --all or name some)", file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        return 2
    scale = _SCALES[scale_name](seed)
    status = 0
    for name in names:
        module = ALL_FIGURES[name]
        started = time.monotonic()
        if name in _SCALED_FIGURES:
            result = module.run(scale)
        else:
            result = module.run()
        elapsed = time.monotonic() - started
        print(result.render())
        print(f"[{name} completed in {elapsed:.1f}s]\n")
        if export_dir is not None and hasattr(result, "rows"):
            import pathlib

            from repro.analysis import export_rows_csv

            rows = result.rows()
            headers = tuple(f"col{i}" for i in range(len(rows[0]))) if rows else ()
            path = export_rows_csv(
                pathlib.Path(export_dir) / f"{name}.csv", headers, rows,
            )
            print(f"[rows exported to {path}]\n")
    return status


def _cmd_topology(containers: int, tors: int, aggs: int, cores: int,
                  servers: int) -> int:
    from repro.analysis import format_si
    from repro.net.topology import FatTreeParams, Topology

    try:
        topology = Topology(FatTreeParams(
            n_containers=containers,
            tors_per_container=tors,
            aggs_per_container=aggs,
            n_cores=cores,
            servers_per_tor=servers,
        ))
    except Exception as error:
        print(f"invalid topology: {error}", file=sys.stderr)
        return 2
    p = topology.params
    bisection = p.n_aggs * p.cores_per_agg * p.agg_core_gbps * 1e9
    print(f"switches:  {topology.n_switches} "
          f"({p.n_tors} ToR + {p.n_aggs} Agg + {p.n_cores} Core)")
    print(f"links:     {topology.n_links} directional "
          f"({p.tor_agg_gbps:g}G ToR-Agg, {p.agg_core_gbps:g}G Agg-Core)")
    print(f"servers:   {p.n_servers}")
    print(f"bisection: {format_si(bisection, 'bps')} toward the core")
    spec = p.tables
    print(f"per-switch tables: host {spec.host_table}, "
          f"ECMP {spec.ecmp_table}, tunneling {spec.tunnel_table} "
          f"(=> {spec.dip_capacity} DIPs/switch)")
    return 0


def _build_quickstart_controller(n_vips: int, seed: int):
    """The ``quickstart`` deployment: a 4-container FatTree, a generated
    population, a controller with its initial assignment installed.
    Returns ``(controller, assignment)``."""
    from repro.core import DuetController
    from repro.net.topology import FatTreeParams, Topology
    from repro.workload import generate_population

    topology = Topology(FatTreeParams(
        n_containers=4, tors_per_container=4,
        aggs_per_container=2, n_cores=4, servers_per_tor=16,
    ))
    population = generate_population(
        topology, n_vips=n_vips,
        total_traffic_bps=topology.params.n_servers * 300e6,
        seed=seed,
    )
    controller = DuetController(topology, population, n_smuxes=2)
    assignment = controller.run_initial_assignment()
    return controller, assignment


def _cmd_quickstart(n_vips: int, seed: int) -> int:
    from repro.analysis import format_si
    from repro.core import ananta_smux_count, duet_provisioning

    controller, assignment = _build_quickstart_controller(n_vips, seed)
    topology = controller.topology
    population = controller.population
    duet = duet_provisioning(assignment, topology)
    ananta = ananta_smux_count(population.total_traffic_bps)
    print(f"{topology}")
    print(f"{len(population)} VIPs, "
          f"{format_si(population.total_traffic_bps, 'bps')} of traffic")
    print(f"HMux coverage: {assignment.hmux_traffic_fraction():.1%} "
          f"(MRU {assignment.mru:.2f})")
    print(f"SMuxes: Duet {duet.n_smuxes} vs Ananta {ananta} "
          f"({ananta / max(1, duet.n_smuxes):.1f}x reduction)")
    return 0


def _cmd_workload_generate(args) -> int:
    from repro.net.topology import FatTreeParams, Topology
    from repro.workload import (
        TraceConfig,
        TraceGenerator,
        generate_population,
        save_population,
        save_trace,
    )

    try:
        topology = Topology(FatTreeParams(
            n_containers=args.containers,
            tors_per_container=args.tors,
            aggs_per_container=args.aggs,
            n_cores=args.cores,
            servers_per_tor=args.servers,
        ))
    except Exception as error:
        print(f"invalid topology: {error}", file=sys.stderr)
        return 2
    population = generate_population(
        topology, n_vips=args.vips,
        total_traffic_bps=args.tbps * 1e12,
        seed=args.seed,
    )
    path = save_population(population, args.out)
    print(f"population: {len(population)} VIPs, "
          f"{population.total_dips()} DIPs -> {path}")
    if args.trace_out:
        epochs = TraceGenerator(
            population, TraceConfig(n_epochs=args.epochs), seed=args.seed,
        ).epochs()
        trace_path = save_trace(epochs, args.trace_out)
        print(f"trace: {len(epochs)} epochs -> {trace_path}")
    return 0


def _cmd_workload_info(path: str) -> int:
    from repro.analysis import format_si
    from repro.workload import SerializationError, load_population

    try:
        population = load_population(path)
    except SerializationError as error:
        print(f"cannot load workload: {error}", file=sys.stderr)
        return 2
    traffic = sorted(
        (v.traffic_bps for v in population), reverse=True
    )
    topology = population.topology
    print(f"topology:  {topology}")
    print(f"VIPs:      {len(population)}")
    print(f"DIPs:      {population.total_dips()}")
    print(f"traffic:   {format_si(population.total_traffic_bps, 'bps')} "
          f"(top VIP {format_si(traffic[0], 'bps')})")
    top10 = sum(traffic[:max(1, len(traffic) // 10)])
    print(f"skew:      top 10% of VIPs carry "
          f"{top10 / max(1e-12, sum(traffic)):.0%} of the bytes")
    return 0


def _print_violations(report) -> None:
    print(f"violations ({len(report.violations)}), first at step "
          f"{report.first_violation_step}:")
    for violation in report.violations:
        print(f"  {violation}")


def _run_fleet(args, config, *, mode: str) -> int:
    """Shared sharded-soak path for ``chaos``/``health`` fleet modes."""
    from repro.control.retry import RetryPolicy
    from repro.fleet import DEFAULT_FLEET_RETRY, FleetConfig, SoakFleet

    seeds = list(range(args.seed, args.seed + args.seeds))
    retries = getattr(args, "retries", None)
    retry = (
        DEFAULT_FLEET_RETRY if retries is None
        else RetryPolicy(max_attempts=max(1, retries), base_backoff_s=0.0)
    )
    fleet_cfg = FleetConfig(
        workers=max(1, args.workers),
        timeout_s=getattr(args, "timeout_s", None),
        retry=retry,
        quarantine_dir=getattr(args, "quarantine_dir", "fleet-quarantine"),
        crash_seeds=tuple(getattr(args, "inject_worker_crash", ()) or ()),
    )
    fleet = SoakFleet(config, seeds, fleet=fleet_cfg)
    started = time.monotonic()
    report = fleet.run()
    elapsed = time.monotonic() - started
    totals = report.totals
    print(f"fleet: {len(seeds)} seed(s) over {fleet_cfg.workers} "
          f"worker(s) in {elapsed:.1f}s "
          f"({fleet.metrics.seeds_retried.value():g} retried, "
          f"{totals['seeds_quarantined']} quarantined)")
    print(f"  {totals['steps_run']} events total, "
          f"{totals['crashes']:g} controller crashes survived, "
          f"{totals['violations']} violations")
    width = max((len(k) for k in totals["event_counts"]), default=1)
    for kind in sorted(totals["event_counts"]):
        print(f"  {kind.ljust(width)}  {totals['event_counts'][kind]:g}")
    if mode == "health" and "health" in totals:
        health = totals["health"]
        print(f"  detection: {health['faults_detected']:g}/"
              f"{health['faults_injected']:g} faults, "
              f"{health['false_positives']:g} false positives")
    for q in report.quarantined:
        where = q.get("artifact_path")
        print(f"  QUARANTINED seed {q['seed']}: {q['reason']} after "
              f"{q['attempts']} attempt(s)"
              + (f" -> {where}" if where else ""))
        if where:
            print(f"    replay with: python -m repro chaos "
                  f"--replay {where}")
    if args.report is not None:
        report.save(args.report)
        print(f"merged fleet report -> {args.report} "
              f"(sha256 {report.sha256()})")
    if report.ok:
        print("invariants: all held across the corpus")
        return 0
    print("violating seeds: "
          + ", ".join(str(s) for s in report.violating_seeds))
    for result in report.results:
        for violation in result["violations"]:
            print(f"  seed {result['seed']}: {violation}")
    return 1


def _replay_chaos(path: str) -> int:
    """``chaos --replay``: re-run a violation artifact (exit 1 when it
    reproduces, 2 when not) or a fleet quarantine artifact."""
    import json

    from repro.chaos import replay_artifact

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "quarantine" in payload:
        # A fleet quarantine artifact: re-run the poison seed
        # in-process so its failure (if deterministic) surfaces here.
        from repro.fleet import replay_quarantine

        q = payload["quarantine"]
        print(f"replaying quarantined seed {q['seed']} "
              f"(reason: {q['reason']}, {q['attempts']} worker "
              f"attempt(s), exit code {q['exitcode']})")
        report = replay_quarantine(payload)
        print(f"{report.steps_run} events replayed in-process")
        if report.ok:
            print("invariants: all held — the failure was in the "
                  "worker environment, not the seed")
            return 0
        _print_violations(report)
        return 1
    report = replay_artifact(path)
    if report.first_violation_step is not None:
        print(f"artifact reproduces: violation at step "
              f"{report.first_violation_step}")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print(f"artifact did NOT reproduce after {report.steps_run} events")
    return 2


def _cmd_chaos(args) -> int:
    from repro.chaos import ChaosConfig, ChaosEngine

    if args.replay is not None:
        # Exit 1 means "reproduced", so an artifact that cannot be
        # replayed at all must not crash out with it.
        try:
            return _replay_chaos(args.replay)
        except (OSError, ValueError, KeyError) as error:
            print(f"cannot replay artifact: {error}", file=sys.stderr)
            return 2

    config = ChaosConfig(
        seed=args.seed,
        n_events=args.events,
        n_vips=args.vips,
        n_smuxes=args.smuxes,
        broken_switches=tuple(args.broken_switch),
        stop_on_violation=not args.keep_going,
        sabotage_step=args.sabotage_at,
        crash_prob=args.crash_prob,
        snapshot_interval=args.snapshot_interval,
        channel_loss=args.channel_loss,
        channel_delay=args.channel_delay,
        channel_partitions=args.channel_partition,
    )
    if args.seeds > 1 or args.workers > 1 or args.inject_worker_crash:
        return _run_fleet(args, config, mode="chaos")
    engine = ChaosEngine(config)
    started = time.monotonic()
    report = engine.run()
    elapsed = time.monotonic() - started
    print(f"{report.steps_run} events in {elapsed:.1f}s "
          f"(seed {config.seed}):")
    width = max((len(k) for k in report.event_counts), default=1)
    for kind in sorted(report.event_counts):
        print(f"  {kind.ljust(width)}  {report.event_counts[kind]}")
    stats = report.stats
    print(f"programming: {stats['attempts']:g} attempts, "
          f"{stats['transient_faults']:g} transient faults, "
          f"{stats['degraded']:g} degradations, "
          f"{stats['skipped_dead_switch']:g} dead-switch skips")
    if report.crashes:
        print(f"controller crashes survived: {report.crashes} "
              f"({stats['reconcile_rounds']:g} reconcile rounds, "
              f"{stats['reconcile_repairs']:g} repairs, "
              f"{stats['journal_ops']:g} journaled ops, "
              f"{stats['journal_snapshots']:g} snapshots)")
    if (
        config.channel_loss > 0
        or config.channel_delay > 0
        or config.channel_partitions > 0
    ):
        ch = report.channel
        print(f"control channel: {ch['sends']} sends, "
              f"{ch['losses']} lost, {ch['partition_drops']} partition "
              f"drops, {ch['delayed_dups']} dup deliveries "
              f"({ch['dup_drops']} fence-dropped), "
              f"{ch['fence_rejects']} stale-epoch rejects, "
              f"{ch['stale_applied']} fencing violations")
        print(f"pending-ops ledger: {ch['ledger_opened']} opened, "
              f"{ch['ledger_acked']} acked, {ch['ledger_retries']} "
              f"retries, {ch['ledger_timeouts']} timeouts "
              f"(degraded to SMux), {ch['ledger_rejected']} rejected; "
              f"epoch {ch['epoch']}")
    if report.metric_deltas:
        print("top metric deltas over the soak:")
        for name, delta in report.metric_deltas:
            print(f"  {delta:+12g}  {name}")
    if args.journal is not None:
        engine.controller.journal.save(args.journal)
        print(f"write-ahead journal -> {args.journal} "
              f"(audit with: python -m repro recover {args.journal})")
    degraded = sorted(engine.controller.degraded_vips)
    if degraded:
        from repro.net.addressing import format_ip

        print("degraded to SMux-only: "
              + ", ".join(format_ip(a) for a in degraded))
    if report.ok:
        print("invariants: all held")
        return 0
    _print_violations(report)
    artifact_path = args.artifact or "chaos-artifact.json"
    report.artifact.save(artifact_path)
    print(f"reproduction artifact -> {artifact_path} "
          f"(replay with: python -m repro chaos --replay {artifact_path})")
    return 1


def _cmd_health(args) -> int:
    import json

    from repro.chaos import ChaosConfig, ChaosEngine

    config = ChaosConfig(
        seed=args.seed,
        n_events=args.events,
        n_vips=args.vips,
        n_smuxes=args.smuxes,
        stop_on_violation=not args.keep_going,
        crash_prob=args.crash_prob,
        no_oracle=True,
        monitor_rounds_per_step=args.rounds_per_step,
        background_loss=args.background_loss,
    )
    if args.seeds > 1 or args.workers > 1:
        return _run_fleet(args, config, mode="health")
    engine = ChaosEngine(config)
    started = time.monotonic()
    report = engine.run()
    elapsed = time.monotonic() - started

    monitor, health = engine.monitor, report.health
    print(f"{report.steps_run} events, "
          f"{monitor.detector.rounds_seen} probe rounds in {elapsed:.1f}s "
          f"(seed {config.seed}):")
    width = max((len(k) for k in report.event_counts), default=1)
    for kind in sorted(report.event_counts):
        print(f"  {kind.ljust(width)}  {report.event_counts[kind]}")
    detected, injected = health["faults_detected"], health["faults_injected"]
    print(f"detection: {detected}/{injected} faults "
          f"(budget {health['detection_budget_s'] * 1e3:.0f} ms)")
    if health["median_detection_latency_s"] is not None:
        print(f"  median latency {health['median_detection_latency_s'] * 1e3:.1f} ms, "
              f"max {health['max_detection_latency_s'] * 1e3:.1f} ms")
    print(f"  false positives: {health['false_positives']}")
    actions = monitor.remediation.actions
    by_op: dict = {}
    for action in actions:
        by_op[action["op"]] = by_op.get(action["op"], 0) + 1
    summary = ", ".join(f"{op} x{n}" for op, n in sorted(by_op.items()))
    print(f"remediation: {len(actions)} ops ({summary or 'none'})")
    if report.crashes:
        print(f"controller crashes survived mid-loop: {report.crashes}")
    states = monitor.detector.state_counts()
    print("final states: " + ", ".join(
        f"{state}={count}" for state, count in sorted(states.items()) if count
    ))
    if args.tail > 0 and monitor.timeline:
        print(f"timeline (last {min(args.tail, len(monitor.timeline))} "
              f"of {len(monitor.timeline)}):")
        for entry in monitor.timeline[-args.tail:]:
            t = entry.get("t", 0.0)
            if entry["type"] == "transition":
                line = (f"{entry['target']}: {entry['from']} -> "
                        f"{entry['to']} ({entry['detail']})")
            elif entry["type"] == "verdict":
                line = f"verdict {entry['kind']} {entry['target']}"
            else:
                ok = "ok" if entry.get("ok") else "FAILED"
                line = f"remediation {entry['op']} {entry['target']} [{ok}]"
            print(f"  {t * 1e3:9.1f} ms  {line}")

    timeline_path = args.timeline
    if timeline_path is not None or not report.ok:
        timeline_path = timeline_path or "health-timeline.json"
        with open(timeline_path, "w", encoding="utf-8") as handle:
            json.dump({
                "config": config.to_dict(),
                "stats": health,
                "fault_log": engine.fault_plane.to_dict(),
                "timeline": monitor.timeline,
                "violations": [str(v) for v in report.violations],
            }, handle, indent=2, default=str)
            handle.write("\n")
        print(f"detector timeline -> {timeline_path}")

    if report.ok:
        print("invariants: all held (detect -> failover -> recover closed)")
        return 0
    _print_violations(report)
    return 1


def _slo_config(args, seed: int):
    from repro.chaos import ChaosConfig

    return ChaosConfig(
        seed=seed,
        n_events=args.events,
        n_vips=args.vips,
        no_oracle=True,
        slo=True,
        background_loss=args.background_loss,
        inject_faults=not args.fault_free,
    )


def _print_incident_timeline(incident_dict, tail: int) -> None:
    timeline = incident_dict["timeline"]
    shown = timeline[-tail:] if tail > 0 else timeline
    if len(shown) < len(timeline):
        print(f"  ... {len(timeline) - len(shown)} earlier entries")
    for entry in shown:
        extra = ", ".join(
            f"{k}={v}" for k, v in sorted(entry.items())
            if k not in ("t", "source", "kind") and v not in (None, {}, "")
        )
        print(f"  {entry['t'] * 1e3:9.1f} ms  [{entry['source']}] "
              f"{entry['kind']}" + (f"  ({extra})" if extra else ""))


def _cmd_slo(args) -> int:
    from repro.chaos import ChaosEngine

    config = _slo_config(args, args.seed)
    engine = ChaosEngine(config)
    report = engine.run()
    slo = report.slo
    print(f"{report.steps_run} events, "
          f"{engine.monitor.detector.rounds_seen} probe rounds "
          f"(seed {config.seed}"
          f"{', fault-free' if args.fault_free else ''}):")
    print(f"{'SLO':<24} {'objective':>9} {'good/total':>15} "
          f"{'budget left':>11}")
    for name, budget in slo["budgets"].items():
        good, total = budget["good"], budget["total"]
        print(f"{name:<24} {budget['objective']:>9.3f} "
              f"{f'{good:.0f}/{total:.0f}':>15} "
              f"{budget['budget_remaining']:>10.1%}")
    fired = slo["alerts"]
    print(f"alerts fired: {len(fired)}")
    for alert in fired:
        resolved = (
            f"resolved {alert['resolve_t'] * 1e3:.1f} ms"
            if alert["resolve_t"] is not None else "still firing"
        )
        print(f"  [{alert['severity']}] {alert['slo']} fired at "
              f"{alert['fire_t'] * 1e3:.1f} ms "
              f"(peak burn {alert['peak_long_burn']:.1f}x, {resolved})")
    if not report.ok:
        _print_violations(report)
        return 1
    return 0


def _cmd_alerts(args) -> int:
    import os

    from repro.fleet import FleetConfig, SoakFleet
    from repro.obs import Incident

    base_config = _slo_config(args, args.seed)
    seeds = list(range(args.seed, args.seed + args.seeds))
    fleet = SoakFleet(
        base_config, seeds,
        fleet=FleetConfig(workers=max(1, args.workers)),
    )
    merged = fleet.run()

    saved = 0
    violations = 0
    for result in merged.results:
        seed = result["seed"]
        if not result["ok"]:
            violations += len(result["violations"])
            for violation in result["violations"]:
                print(f"seed {seed}: VIOLATION {violation}")
        for inc_dict in result["incidents"]:
            suspect = inc_dict.get("suspected_cause") or {}
            print(f"seed {seed}: {inc_dict['incident_id']} "
                  f"(suspect: {suspect.get('target', 'none')})")
            _print_incident_timeline(inc_dict, args.tail)
            if args.incident_dir is not None:
                os.makedirs(args.incident_dir, exist_ok=True)
                path = os.path.join(
                    args.incident_dir,
                    f"seed{seed}-"
                    f"{inc_dict['incident_id'].replace(':', '-')}.json",
                )
                Incident.from_dict(inc_dict).save(path)
                saved += 1
    if saved:
        print(f"{saved} incident artifact(s) -> {args.incident_dir}")

    # Summed over the completed seeds by the fleet merge; absent when
    # every seed was quarantined.
    card = merged.totals.get("slo_scorecard", {})
    incidents = card.get("incidents", 0)
    precision = card.get("precision", 1.0)
    recall = card.get("recall", 1.0)
    print(f"{args.seeds} seed(s): {incidents} incidents, "
          f"{card.get('faults_total', 0)} faults injected "
          f"({card.get('eligible_faults', 0)} alert-eligible)")
    kinds = ", ".join(
        f"{kind} x{n}"
        for kind, n in sorted(card.get("matched_by_kind", {}).items())
    )
    print(f"precision {precision:.3f}  recall {recall:.3f}  "
          f"matched kinds: {kinds or 'none'}")
    if card.get("time_to_fire_s"):
        print(f"time to fire: median "
              f"{card['median_time_to_fire_s'] * 1e3:.1f} ms, "
              f"max {card['max_time_to_fire_s'] * 1e3:.1f} ms")

    status = 0
    if violations:
        status = 1
    if args.fault_free and incidents:
        print(f"FAIL: {incidents} alert incident(s) on a "
              "fault-free run (all false positives)")
        status = 1
    if args.min_precision is not None and precision < args.min_precision:
        print(f"FAIL: precision {precision:.3f} < {args.min_precision}")
        status = 1
    if args.min_recall is not None and recall < args.min_recall:
        print(f"FAIL: recall {recall:.3f} < {args.min_recall}")
        status = 1
    return status


def _cmd_incident(args) -> int:
    from repro.obs import Incident, replay_incident

    try:
        incident = Incident.load(args.artifact)
    except (OSError, ValueError, KeyError) as error:
        print(f"cannot replay incident: {error}", file=sys.stderr)
        return 2
    alert = incident.alert
    print(f"{incident.incident_id}: [{alert['severity']}] {alert['slo']} "
          f"fired at {alert['fire_t'] * 1e3:.1f} ms "
          f"(peak burn {alert['peak_long_burn']:.1f}x long / "
          f"{alert['peak_short_burn']:.1f}x short)")
    suspect = incident.suspected_cause
    if suspect is not None:
        cleared = (
            f"cleared {suspect['cleared_t'] * 1e3:.1f} ms"
            if suspect.get("cleared_t") is not None else "still active"
        )
        print(f"suspected cause: {suspect['kind']} {suspect['target']} "
              f"(injected {suspect['injected_t'] * 1e3:.1f} ms, {cleared})")
    print(f"ground-truth faults in window: {len(incident.faults)}, "
          f"ledger pending {incident.ledger.get('pending', 0)}, "
          f"unreconciled {len(incident.ledger.get('unreconciled', []))}, "
          f"spans {len(incident.spans)}")
    print(f"timeline ({len(incident.timeline)} entries):")
    _print_incident_timeline(incident.to_dict(), args.tail)
    if not args.replay:
        return 0
    try:
        regenerated = replay_incident(incident)
    except (ValueError, KeyError) as error:
        print(f"cannot replay incident: {error}", file=sys.stderr)
        return 2
    if regenerated is None:
        print("replay: FAILED — incident did not regenerate")
        return 1
    if regenerated.to_json() != incident.to_json():
        print("replay: FAILED — regenerated incident differs")
        return 1
    print("replay: ok (byte-identical timeline)")
    return 0


def _drive_quickstart_traffic(controller, recorder, flows_per_vip: int) -> None:
    """Forward a deterministic burst of client flows through the live
    deployment, ticking the recorder as the burst progresses so the
    time series has real movement in it.  One batch per VIP; a flow
    that fails to forward is simply not delivered."""
    import numpy as np

    from repro.dataplane.batch import FlowBatch
    from repro.dataplane.packet import PROTO_TCP
    from repro.workload.vips import CLIENT_POOL

    index = 0
    for vip_addr in sorted(controller.records()):
        rows = np.arange(index, index + flows_per_vip)
        controller.forward_batch(FlowBatch.from_fields(
            CLIENT_POOL.network + 0x2000 + rows % 0x3FFF,
            np.full(flows_per_vip, vip_addr), 30000 + rows % 20000,
            np.full(flows_per_vip, 80), np.full(flows_per_vip, PROTO_TCP),
        ))
        index += flows_per_vip
        if index % 64 == 0:
            recorder.tick()
    recorder.tick()


def _cmd_metrics(args) -> int:
    from repro.obs import (
        MetricsRegistry,
        Recorder,
        conservation_violations,
        instrument_controller,
        register_assignment_metrics,
        render_prometheus,
        render_registry_jsonl,
    )

    if args.export_format == "both" and args.out is None:
        print("--export both needs --out (used as the file prefix)",
              file=sys.stderr)
        return 2

    registry = MetricsRegistry()
    recorder = Recorder(registry, capacity=4096)
    register_assignment_metrics(registry)
    if args.scenario == "quickstart":
        controller, _ = _build_quickstart_controller(args.vips, args.seed)
        instrument_controller(controller, registry)
        recorder.tick()
        _drive_quickstart_traffic(controller, recorder, args.flows)
    else:
        from repro.sim import scenarios

        if args.scenario == "hmux-capacity":
            scenarios.run_hmux_capacity(
                scenarios.HMuxCapacityConfig(seed=args.seed), recorder=recorder,
            )
        else:
            run = {
                "failover": scenarios.run_failover,
                "migration": scenarios.run_migration,
                "smux-failure": scenarios.run_smux_failure,
            }[args.scenario]
            run(args.seed, recorder=recorder)
    registry.collect()

    violations = conservation_violations(registry)
    if violations:
        for violation in violations:
            print(f"conservation violated: {violation}", file=sys.stderr)
        return 1

    exports = []  # (suffix, text)
    if args.export_format in ("prom", "both"):
        exports.append((".prom", render_prometheus(registry)))
    if args.export_format in ("jsonl", "both"):
        lines = render_registry_jsonl(registry)
        exports.append((".jsonl", "\n".join(lines) + "\n" if lines else ""))

    if args.out is None:
        # Stdout carries ONLY the export so it can be piped straight
        # into the validator or a scrape endpoint.
        for _, text in exports:
            sys.stdout.write(text)
        return 0
    import pathlib

    for suffix, text in exports:
        path = pathlib.Path(args.out)
        if args.export_format == "both":
            path = path.with_name(path.name + suffix)
        path.write_text(text, encoding="utf-8")
        print(f"{args.scenario}: {len(registry.samples())} samples, "
              f"{len(recorder.series_keys())} recorded series -> {path}")
    return 0


def _cmd_trace(args) -> int:
    import numpy as np

    from repro.dataplane.batch import FlowBatch
    from repro.dataplane.packet import PROTO_TCP
    from repro.durability import WriteAheadJournal
    from repro.net.addressing import format_ip
    from repro.obs import PacketTap, Tracer
    from repro.workload.vips import CLIENT_POOL

    controller, _ = _build_quickstart_controller(args.vips, args.seed)
    controller.attach_journal(WriteAheadJournal())
    tracer = Tracer()
    controller.attach_tracer(tracer)
    tap = None
    if args.tap:
        tap = PacketTap(sample_every=max(1, args.tap_every))
        controller.attach_tap(tap)

    # Pick the first HMux-assigned VIP and walk it to a different switch.
    records = controller.records()
    vip_addr = next(
        (addr for addr in sorted(records)
         if records[addr].assigned_switch is not None),
        None,
    )
    if vip_addr is None:
        print("no VIP is HMux-assigned; nothing to migrate", file=sys.stderr)
        return 2
    from_switch = records[vip_addr].assigned_switch
    to_switch = next(
        index for index in sorted(controller.switch_agents)
        if index != from_switch and index not in controller.failed_switches
    )
    assigned = controller.migrate_vip(vip_addr, to_switch)

    if tap is not None:
        rows = np.arange(8)
        controller.forward_batch(FlowBatch.from_fields(
            CLIENT_POOL.network + 0x1000 + rows, np.full(8, vip_addr),
            41000 + rows, np.full(8, 80), np.full(8, PROTO_TCP),
        ))

    lines = [
        f"migrate {format_ip(vip_addr)}: switch {from_switch} -> "
        f"{to_switch} (now on "
        f"{'SMux only' if assigned is None else f'switch {assigned}'})",
        "",
    ]
    if args.json:
        lines = list(tracer.to_json_lines())
        if tap is not None:
            lines.extend(tap.to_json_lines())
    else:
        lines.append(tracer.render())
        if tap is not None:
            lines.append("")
            lines.append(tap.render())
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        import pathlib

        pathlib.Path(args.out).write_text(text, encoding="utf-8")
        print(f"trace ({len(tracer.spans())} spans) -> {args.out}")
    return 0


def _cmd_recover(args) -> int:
    from repro.chaos.invariants import InvariantChecker
    from repro.core.controller import DuetController
    from repro.durability import (
        AntiEntropyReconciler,
        JournalError,
        RecoveryError,
        WriteAheadJournal,
    )

    try:
        journal = WriteAheadJournal.load(args.journal)
    except (OSError, ValueError, KeyError, JournalError) as error:
        print(f"cannot load journal: {error}", file=sys.stderr)
        return 2
    try:
        controller = DuetController.restore(journal)
    except RecoveryError as error:
        print(f"recovery failed: {error}", file=sys.stderr)
        return 2
    report = AntiEntropyReconciler(
        controller, max_rounds=args.max_rounds
    ).converge()
    print(f"restored {len(controller.records())} VIPs, "
          f"{len(controller.smuxes)} SMuxes "
          f"(journal: {len(journal.tail())} ops since last snapshot)")
    print(f"reconcile: {report.rounds} rounds, {report.n_repairs} repairs, "
          f"{'converged' if report.converged else 'NOT CONVERGED'}")
    violations = InvariantChecker(controller).check()
    if not report.converged:
        return 1
    if violations:
        print(f"invariants after recovery ({len(violations)}):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print("invariants: all held after recovery")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "figures":
        return _cmd_figures(
            args.names, args.all, args.scale, args.seed, args.export,
        )
    if args.command == "topology":
        return _cmd_topology(
            args.containers, args.tors, args.aggs, args.cores, args.servers
        )
    if args.command == "quickstart":
        return _cmd_quickstart(args.vips, args.seed)
    if args.command == "workload":
        if args.workload_command == "generate":
            return _cmd_workload_generate(args)
        return _cmd_workload_info(args.path)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "health":
        return _cmd_health(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "slo":
        return _cmd_slo(args)
    if args.command == "alerts":
        return _cmd_alerts(args)
    if args.command == "incident":
        return _cmd_incident(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
