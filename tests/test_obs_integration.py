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
        from repro.sim.scenarios import FailoverConfig, run_failover

        plain = run_failover(FailoverConfig())
        registry = MetricsRegistry()
        recorder = Recorder(registry)
        recorded = run_failover(FailoverConfig(), recorder=recorder)
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
        from repro.sim.scenarios import FailoverConfig, run_failover
        from tests.test_figure_golden import scalar_probe_hashing

        def recorded(hashing):
            registry = MetricsRegistry()
            with pytest.MonkeyPatch.context() as patch:
                scalar_probe_hashing(patch, hashing)
                run_failover(FailoverConfig(), recorder=Recorder(registry))
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
