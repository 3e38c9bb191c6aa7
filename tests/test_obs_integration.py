"""Integration tests: the telemetry layer over live deployments —
controller instrumentation, conservation laws under failures, the chaos
wiring, scenario recording, and the CLI subcommands."""

from __future__ import annotations

import json

import pytest

from repro.chaos.engine import ChaosArtifact, ChaosConfig, ChaosEngine, build_controller
from repro.chaos.events import ChaosEvent, EventKind
from repro.cli import main
from repro.core.controller import DuetController
from repro.dataplane.packet import make_tcp_packet
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    harvest_dataplane,
)
from repro.obs import (
    MetricsRegistry,
    Recorder,
    conservation_violations,
    instrument_controller,
    validate_prometheus_text,
)
from repro.workload.vips import CLIENT_POOL


def make_controller(seed: int = 11, n_vips: int = 12) -> DuetController:
    return build_controller(ChaosConfig(seed=seed, n_vips=n_vips))


def drive_traffic(controller: DuetController, per_vip: int = 3) -> int:
    """Forward ``per_vip`` client packets to every VIP; returns how many
    went through."""
    from repro.core.controller import ControllerError

    sent = 0
    for i, vip in enumerate(sorted(controller.records())):
        for k in range(per_vip):
            packet = make_tcp_packet(
                CLIENT_POOL.network + 100 + i * 7 + k, vip,
                20000 + i * 31 + k, 80,
            )
            try:
                controller.forward(packet)
                sent += 1
            except ControllerError:
                pass
    return sent


class TestControllerInstrumentation:
    def test_mirrors_component_counters(self):
        controller = make_controller()
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        sent = drive_traffic(controller)
        registry.collect()

        forwarded = registry.get("duet_forwarded_packets_total").total()
        assert forwarded == sent
        hmux_total = registry.get("duet_hmux_packets_total").total()
        smux_total = registry.get("duet_smux_packets_total").total()
        assert hmux_total + smux_total == sent
        delivered = registry.get("duet_delivered_packets_total").total()
        assert delivered == sent
        assert registry.get("duet_controller_vips").value() == len(
            controller.records())
        assert conservation_violations(registry) == []

    def test_forwarded_counter_survives_switch_wipe(self):
        """fail_switch zeroes the HMux counters; the fleet-cumulative
        forwarded counter must not go backwards."""
        controller = make_controller()
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        drive_traffic(controller)
        registry.collect()
        before = registry.get("duet_forwarded_packets_total").total()

        victim = next(
            record.assigned_switch
            for record in controller.records().values()
            if record.assigned_switch is not None
        )
        controller.fail_switch(victim)
        registry.collect()
        after = registry.get("duet_forwarded_packets_total").total()
        assert after >= before
        assert conservation_violations(registry) == []
        # The wiped switch's per-VIP children were pruned with it.
        per_vip = registry.get("duet_hmux_vip_packets_total")
        assert all(values[0] != str(victim) for values, _ in per_vip.items())

    def test_forwarded_counter_survives_smux_retirement(self):
        controller = make_controller()
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        drive_traffic(controller)
        registry.collect()
        before = registry.get("duet_forwarded_packets_total").total()

        retired = controller.smuxes[0].smux_id
        controller.fail_smux(retired)
        registry.collect()
        assert registry.get("duet_forwarded_packets_total").total() >= before
        assert conservation_violations(registry) == []
        smux_packets = registry.get("duet_smux_packets_total")
        assert all(
            values[0] != str(retired) for values, _ in smux_packets.items())

    def test_wiped_switch_restarts_its_per_vip_series(self):
        """A switch wiped and serving again before the next scrape
        exports only what its new life counted, as a fresh collector
        would."""
        controller = make_controller()
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        drive_traffic(controller)
        registry.collect()
        victim, vips = max(
            (
                (index, agent.hmux.vips())
                for index, agent in controller.switch_agents.items()
            ),
            key=lambda item: len(item[1]),
        )
        assert len(vips) >= 2
        controller.fail_switch(victim)
        controller.recover_switch(victim)
        controller.migrate_vip(vips[0], victim)
        drive_traffic(controller)
        registry.collect()
        fresh = MetricsRegistry()
        instrument_controller(controller, fresh)
        fresh.collect()
        name = "duet_hmux_vip_packets_total"
        assert {
            key: child.value for key, child in registry.get(name).items()
        } == {key: child.value for key, child in fresh.get(name).items()}
        assert conservation_violations(registry) == []

    def test_rebind_keeps_cumulative_history(self):
        """The instrumentation outlives the controller: after a
        crash-restore (fresh dataplane counters) the cumulative
        forwarded count keeps the pre-crash epoch."""
        controller = make_controller()
        controller.attach_journal(WriteAheadJournal())
        registry = MetricsRegistry()
        instrumentation = instrument_controller(controller, registry)
        sent = drive_traffic(controller)
        registry.collect()

        restored = DuetController.restore(
            controller.journal, topology=controller.topology)
        AntiEntropyReconciler(restored).converge()
        instrumentation.rebind(restored)
        registry.collect()
        assert registry.get("duet_forwarded_packets_total").total() >= sent
        assert conservation_violations(registry) == []

    def test_warm_restart_carries_retired_smux_packets(self):
        """Packets of an SMux retired before a crash stay counted after
        the warm restart (no scrape in between)."""
        controller = make_controller()
        controller.attach_journal(WriteAheadJournal())
        registry = MetricsRegistry()
        instrumentation = instrument_controller(controller, registry)
        for record in list(controller.records().values())[:4]:
            if record.assigned_switch is not None:
                controller.fail_switch(record.assigned_switch)
        drive_traffic(controller)
        registry.collect()
        forwarded = registry.get("duet_forwarded_packets_total").total()
        retired = max(controller.smuxes, key=lambda s: s.counters.packets)
        assert retired.counters.packets
        controller.fail_smux(retired.smux_id)

        restored = DuetController.restore(
            controller.journal, dataplane=harvest_dataplane(controller),
            topology=controller.topology)
        AntiEntropyReconciler(restored).converge()
        instrumentation.rebind(restored)
        registry.collect()
        assert registry.get("duet_forwarded_packets_total").total() == forwarded

    def test_conservation_check_catches_tampering(self):
        controller = make_controller()
        registry = MetricsRegistry()
        instrument_controller(controller, registry)
        drive_traffic(controller)
        hmux = next(iter(controller.switch_agents.values())).hmux
        hmux.counters.packets += 5  # packets no VIP accounts for
        registry.collect()
        violations = conservation_violations(registry)
        assert violations and "packets_total" in violations[0]


def test_wipe_before_scrape_keeps_forwarded_packets():
    """Packets a mux counts after the last scrape are folded in when
    the mux is wiped: no scrape has to come first."""
    controller = build_controller(ChaosConfig(seed=0, n_vips=24))
    registry = MetricsRegistry()
    instrument_controller(controller, registry)
    registry.collect()
    assert drive_traffic(controller, per_vip=1) == 24
    victim = next(
        index for index, agent in sorted(controller.switch_agents.items())
        if agent.hmux.counters.packets
    )
    controller.fail_switch(victim)
    registry.collect()
    assert registry.get("duet_forwarded_packets_total").total() == 24
    assert registry.get("duet_delivered_packets_total").total() == 24
    assert conservation_violations(registry) == []


def forward_one_per_vip(controller: DuetController) -> None:
    """One client packet to every VIP, through the product batch path
    (which records failures instead of raising)."""
    from repro.dataplane.batch import FlowBatch

    controller.forward_batch(FlowBatch.from_packets([
        make_tcp_packet(CLIENT_POOL.network + 100 + i, vip, 20000 + i, 80)
        for i, vip in enumerate(sorted(controller.records()))
    ]))


def wrap_steps(engine, before=None, after=None):
    """Run ``before()`` / ``after()`` around every ``engine.step``."""
    step = engine.step

    def wrapped(event):
        if before is not None:
            before()
        violations = step(event)
        if after is not None:
            after()
        return violations

    engine.step = wrapped


def stacked_config(seed: int, **overrides) -> ChaosConfig:
    """No-oracle chaos with SLOs, a lossy delaying channel and crashes."""
    return ChaosConfig(**{
        "seed": seed, "n_events": 20, "n_vips": 12, "channel_loss": 0.3,
        "channel_delay": 0.2, "crash_prob": 0.05, "no_oracle": True,
        "slo": True, **overrides,
    })


def test_forwarded_series_counts_every_mux_packet(monkeypatch):
    """After every step the forwarded series equals the packets counted
    by every mux counters object the deployment ever made — wiped
    switches, retired SMuxes and crash-restarts included.  Oracle seeds
    forward one packet per VIP between steps, unscraped, and then may
    fail that switch in the step; no-oracle seeds wipe muxes inside
    probe rounds."""
    from repro.dataplane.hmux import HMuxCounters
    from repro.dataplane.smux import SMuxCounters

    made = []
    for cls in (HMuxCounters, SMuxCounters):
        def tracked(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", tracked)

    wipe_steps = 0
    for seed in range(24):
        made.clear()
        oracle = seed % 2 == 0
        config = (
            ChaosConfig(seed=seed, n_events=20, n_vips=12, channel_loss=0.3,
                        crash_prob=0.05)
            if oracle else stacked_config(seed, slo=False)
        )
        engine = ChaosEngine(config)
        retired = 0

        def check():
            nonlocal wipe_steps, retired
            controller = engine.controller
            live = {id(a.hmux.counters) for a in controller.switch_agents.values()}
            live |= {id(s.counters) for s in controller.smuxes}
            now_retired = sum(c.packets for c in made if id(c) not in live)
            if now_retired > retired:
                wipe_steps += 1
            retired = now_retired
            forwarded = engine.registry.get("duet_forwarded_packets_total")
            assert forwarded.total() == sum(c.packets for c in made), seed

        wrap_steps(
            engine,
            before=(lambda: forward_one_per_vip(engine.controller))
            if oracle else None,
            after=check,
        )
        assert engine.run().ok, seed
    assert wipe_steps >= 20


#: Counter families whose sources start over with each controller
#: incarnation: the instrumentation's rebind carries them.
CARRIED = (
    "duet_programming_", "duet_reconcile_", "duet_ctrl_channel_ledger_",
)


@pytest.mark.parametrize("seed", range(5))
def test_registry_counters_survive_crashes(seed):
    """After a run with crash-restarts, the registry's programming,
    reconcile and ledger counters equal the report's totals folded over
    every incarnation, and no deployment-level unlabelled counter ever
    decreased between two recorder ticks.  (Per-mux packet counters are
    not deployment-level: a wiped switch restarts them.)"""
    engine = ChaosEngine(ChaosConfig(
        seed=seed, n_events=60, n_vips=10, crash_prob=0.15,
        channel_loss=0.3, channel_delay=0.2,
    ))
    report = engine.run()
    assert report.ok and report.crashes >= 5, seed
    registry = engine.registry
    registry.collect()
    stats, channel = report.stats, report.channel
    expected = {
        "duet_programming_backoff_seconds_total": stats["backoff_s"],
        "duet_reconcile_rounds_total": stats["reconcile_rounds"],
        "duet_reconcile_repairs_total": stats["reconcile_repairs"],
    }
    for key in ("attempts", "retries", "transient_faults", "degraded",
                "skipped_dead_switch", "unwinds"):
        expected[f"duet_programming_{key}_total"] = stats[key]
    for key in ("opened", "acked", "retries", "timeouts", "rejected"):
        expected[f"duet_ctrl_channel_ledger_{key}_total"] = (
            channel[f"ledger_{key}"])
    got = {name: registry.get(name).total() for name in expected}
    assert got == expected, seed
    assert stats["attempts"] > 0 and channel["ledger_opened"] > 0

    monotone = [
        instrument.name for instrument in registry.instruments()
        if instrument.kind == "counter" and not instrument.label_names
        and instrument.name.startswith(
            CARRIED + ("duet_ctrl_channel_", "duet_forwarded_packets_total"))
    ]
    # The carried counters, ten channel counters and the forwarded one.
    assert len(monotone) == len(expected) + 11
    for name in monotone:
        values = [value for _, value in engine.recorder.series(name)]
        assert len(values) == report.steps_run + 1, name
        assert values == sorted(values), (seed, name)


class TestScrapeFreeRound:
    """A probe round runs no collector.  The oracle is the round as it
    was: a monitor that scrapes right after its probe sweep."""

    @staticmethod
    def scraping_monitor():
        from repro.health import HealthMonitor

        class ScrapingMonitor(HealthMonitor):
            def __init__(self, *args, registry, **kwargs):
                super().__init__(*args, registry=registry, **kwargs)
                sweep = self.scheduler.run_round

                def run_round(t):
                    round_ = sweep(t)
                    registry.collect()
                    return round_

                self.scheduler.run_round = run_round

        return ScrapingMonitor

    @staticmethod
    def observe(engine):
        from repro.fleet import summarize_report

        def points(key):
            items = engine.recorder.buffer(key).items()
            # Convergence latency is wall-clock time: only how many
            # were observed, and when, repeats run to run.
            if key[0].startswith("duet_ctrl_channel_convergence_seconds") \
                    and not key[0].endswith("_count"):
                return [t for t, _value in items]
            return items

        report = engine.run()
        return {
            "series": [
                (key, points(key)) for key in engine.recorder.series_keys()
            ],
            "incidents": [incident.to_dict() for incident in engine.incidents],
            "timeline": engine.monitor.timeline,
            "report": summarize_report(report),
        }

    def test_matches_scraping_round(self, monkeypatch):
        import repro.health

        incidents = crashes = 0
        for seed in range(20):
            engine = ChaosEngine(stacked_config(seed))
            got = self.observe(engine)
            with monkeypatch.context() as patch:
                patch.setattr(
                    repro.health, "HealthMonitor", self.scraping_monitor())
                want = self.observe(ChaosEngine(stacked_config(seed)))
            assert got == want, seed
            incidents += len(got["incidents"])
            crashes += engine.crashes
        assert incidents and crashes

    def test_round_runs_no_collector(self):
        engine = ChaosEngine(stacked_config(3, n_events=10))
        in_round = [False]
        scraped_in_round = []
        engine.registry.register_collector(
            "tripwire", lambda _registry: scraped_in_round.append(in_round[0]))
        run_round = engine.monitor.run_round

        def watched():
            in_round[0] = True
            try:
                return run_round()
            finally:
                in_round[0] = False

        engine.monitor.run_round = watched
        assert engine.run().ok
        assert scraped_in_round and not any(scraped_in_round)


def test_cached_collector_matches_fresh_one():
    """After every step, the long-lived instrumentation mirrors exactly
    what a fresh one on the same controller would.  Exempt: the
    forwarded series and, once a crash happened, the programming,
    reconcile and ledger counters (they carry crash-restart history, see
    the tests above), and the convergence histogram, which is observed
    when a convergence is measured rather than mirrored from state."""
    steps = 0
    for seed in range(6):
        engine = ChaosEngine(stacked_config(seed, slo=False))

        def check():
            nonlocal steps
            exempt = (
                "duet_forwarded_packets_total",
                "duet_ctrl_channel_convergence_seconds",
            ) + (CARRIED if engine.crashes else ())
            fresh = MetricsRegistry()
            instrument_controller(engine.controller, fresh)
            fresh.collect()
            names = {
                instrument.name for instrument in fresh.instruments()
                if not instrument.name.startswith(exempt)
            }
            want = {
                (s.name, s.labels): s.value for s in fresh.samples()
                if s.name.startswith(tuple(names))
                and not s.name.startswith(exempt)
            }
            got = {
                (s.name, s.labels): s.value for s in engine.registry.samples()
                if s.name.startswith(tuple(names))
                and not s.name.startswith(exempt)
            }
            assert got == want, seed
            steps += 1

        wrap_steps(engine, after=check)
        assert engine.run().ok
    assert steps == 6 * 20


class TestChaosWiring:
    def test_checker_reports_metrics_conservation(self):
        engine = ChaosEngine(ChaosConfig(seed=11, n_events=2, n_vips=12))
        rebalance = ChaosEvent(EventKind.REBALANCE)
        assert engine.step(rebalance) == []
        hmux = next(iter(engine.controller.switch_agents.values())).hmux
        hmux.counters.packets += 7  # packets no VIP accounts for
        violations = engine.step(rebalance)
        assert any(
            v.invariant == "metrics-conservation" for v in violations)

    def test_soak_collects_metric_deltas(self):
        engine = ChaosEngine(ChaosConfig(seed=3, n_events=40, n_vips=8))
        report = engine.run()
        assert report.ok
        assert report.metric_deltas
        names = [name for name, _ in report.metric_deltas]
        assert all(name.startswith("duet_") for name in names)
        deltas = [abs(d) for _, d in report.metric_deltas]
        assert deltas == sorted(deltas, reverse=True)
        # The chaos engine's own counters ride in the same registry.
        assert engine.registry.get("duet_chaos_events_total").total() == 40

    def test_artifact_round_trips_metric_deltas(self, tmp_path):
        engine = ChaosEngine(ChaosConfig(
            seed=1, n_events=20, n_vips=8, sabotage_step=9))
        report = engine.run()
        assert not report.ok and report.artifact is not None
        assert report.artifact.metric_deltas
        path = tmp_path / "artifact.json"
        report.artifact.save(str(path))
        loaded = ChaosArtifact.load(str(path))
        assert loaded.metric_deltas == report.artifact.metric_deltas


class TestScenarioRecording:
    def test_recorder_does_not_change_failover_results(self):
        from repro.sim.scenarios import run_failover

        plain = run_failover()
        registry = MetricsRegistry()
        recorder = Recorder(registry)
        recorded = run_failover(recorder=recorder)
        assert recorded.series == plain.series

        probes = registry.get("duet_scenario_probes_total")
        assert probes is not None and probes.total() > 0
        drops = registry.get("duet_scenario_probe_drops_total")
        rtt = registry.get("duet_scenario_rtt_seconds")
        succeeded = sum(
            child.count for _, child in rtt.items())
        # probes_total counts answered probes (labelled by serving mux);
        # drops are counted separately.
        assert probes.total() == succeeded
        assert drops.total() > 0  # the failed HMux loses some probes
        assert recorder.ticks >= 2

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    def test_both_probe_engines_record_identically(self, engine):
        """The one probe path records the same series whether its flow
        hashes come from the batch hash or (test-side oracle) from the
        per-packet scalar hash."""
        from repro.sim.scenarios import run_failover
        from tests.test_figure_golden import scalar_probe_hashing

        def recorded(hashing):
            registry = MetricsRegistry()
            with pytest.MonkeyPatch.context() as patch:
                scalar_probe_hashing(patch, hashing)
                run_failover(recorder=Recorder(registry))
            return {(s.name, s.labels): s.value for s in registry.samples()}

        other = "batch" if engine == "scalar" else "scalar"
        assert recorded(engine) == recorded(other)


class TestCli:
    def test_metrics_quickstart_prom(self, capsys):
        assert main(["metrics", "--scenario", "quickstart",
                     "--vips", "8", "--flows", "1"]) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out) == []
        assert "duet_forwarded_packets_total" in out

    def test_metrics_scenario_jsonl(self, capsys):
        assert main(["metrics", "--scenario", "failover",
                     "--export", "jsonl"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        assert any(r["name"] == "duet_scenario_probes_total" for r in rows)

    def test_metrics_both_to_files(self, tmp_path, capsys):
        prefix = tmp_path / "metrics"
        assert main(["metrics", "--scenario", "failover",
                     "--export", "both", "--out", str(prefix)]) == 0
        prom = (tmp_path / "metrics.prom").read_text()
        assert validate_prometheus_text(prom) == []
        jsonl = (tmp_path / "metrics.jsonl").read_text()
        assert all(json.loads(line) for line in jsonl.splitlines())

    def test_metrics_both_without_out_rejected(self, capsys):
        assert main(["metrics", "--export", "both"]) == 2

    def test_trace_renders_causal_tree(self, capsys):
        assert main(["trace", "--vips", "8"]) == 0
        out = capsys.readouterr().out
        for needle in ("op:migrate_vip", "migrate.withdraw",
                       "bgp.withdraw", "migrate.smux_transit",
                       "migrate.reprogram", "hmux.program", "bgp.announce",
                       "journal.commit"):
            assert needle in out, needle

    def test_trace_json_and_tap(self, capsys):
        assert main(["trace", "--vips", "8", "--json", "--tap"]) == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines()]
        span_names = {r["name"] for r in rows if "name" in r}
        assert "op:migrate_vip" in span_names
        assert any("hops" in r for r in rows)

    def test_chaos_prints_top_deltas(self, capsys):
        assert main(["chaos", "--events", "30", "--seed", "2",
                     "--vips", "8"]) == 0
        out = capsys.readouterr().out
        assert "top metric deltas over the soak:" in out
        assert "duet_" in out
