"""Tests for repro.cli."""

import json

import pytest

from repro.chaos import ChaosArtifact, ChaosConfig
from repro.cli import main
from repro.experiments import ALL_FIGURES


class TestList:
    def test_lists_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_FIGURES:
            assert name in out


class TestTopology:
    def test_describes(self, capsys):
        assert main([
            "topology", "--containers", "2", "--tors", "2",
            "--aggs", "2", "--cores", "2", "--servers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "switches:  10" in out
        assert "servers:   16" in out

    def test_invalid_topology(self, capsys):
        # cores not a multiple of aggs-per-container.
        assert main([
            "topology", "--aggs", "3", "--cores", "4",
        ]) == 2
        assert "invalid topology" in capsys.readouterr().err


class TestFigures:
    def test_runs_a_cheap_figure(self, capsys):
        assert main(["figures", "fig14"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14" in out
        assert "completed" in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_no_figures_requested(self, capsys):
        assert main(["figures"]) == 2

    def test_scaled_figure_accepts_scale(self, capsys):
        assert main(["figures", "fig15", "--scale", "small"]) == 0
        assert "Figure 15" in capsys.readouterr().out


class TestQuickstart:
    def test_runs(self, capsys):
        assert main(["quickstart", "--vips", "20"]) == 0
        out = capsys.readouterr().out
        assert "HMux coverage" in out
        assert "SMuxes" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestWorkloadCommands:
    def test_generate_and_info(self, tmp_path, capsys):
        out = tmp_path / "pop.json"
        trace = tmp_path / "trace.json"
        assert main([
            "workload", "generate", "--out", str(out),
            "--vips", "20", "--tbps", "0.05",
            "--trace-out", str(trace), "--epochs", "3",
        ]) == 0
        assert out.exists() and trace.exists()
        capsys.readouterr()
        assert main(["workload", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "VIPs:      20" in info

    def test_generate_invalid_topology(self, tmp_path, capsys):
        assert main([
            "workload", "generate", "--out", str(tmp_path / "x.json"),
            "--aggs", "3", "--cores", "4",
        ]) == 2

    def test_info_missing_file(self, tmp_path, capsys):
        assert main(["workload", "info", str(tmp_path / "no.json")]) == 2

    def test_roundtrip_through_cli_files(self, tmp_path):
        from repro.workload import load_population, load_trace

        out = tmp_path / "pop.json"
        trace = tmp_path / "trace.json"
        main([
            "workload", "generate", "--out", str(out),
            "--vips", "15", "--trace-out", str(trace), "--epochs", "2",
        ])
        population = load_population(out)
        epochs = load_trace(trace, population)
        assert len(population) == 15
        assert len(epochs) == 2


class TestChaosReplay:
    """The sabotage -> artifact -> replay round trip (ISSUE 2): a run
    that trips the invariant checker writes a reproduction artifact, and
    replaying that artifact reproduces the violation at the same step."""

    def test_sabotage_artifact_replays_at_same_step(self, tmp_path, capsys):
        artifact = tmp_path / "chaos-artifact.json"
        assert main([
            "chaos", "--seed", "3", "--events", "60",
            "--sabotage-at", "40", "--artifact", str(artifact),
        ]) == 1
        out = capsys.readouterr().out
        assert "first at step 40" in out
        assert artifact.exists()

        assert main(["chaos", "--replay", str(artifact)]) == 1
        replay_out = capsys.readouterr().out
        assert "artifact reproduces: violation at step 40" in replay_out
        # The replay reports the same violations the live run recorded.
        live = {l.strip() for l in out.splitlines() if l.startswith("  [")}
        replayed = {
            l.strip() for l in replay_out.splitlines() if l.startswith("  [")
        }
        assert live == replayed and live

    def test_replay_missing_artifact(self, tmp_path, capsys):
        missing = tmp_path / "no-such.json"
        assert main(["chaos", "--replay", str(missing)]) == 2
        assert "cannot replay artifact" in capsys.readouterr().err

    def test_replay_unknown_config_key_exits_2(self, tmp_path, capsys):
        """An artifact whose config holds a key ``ChaosConfig`` does not
        know (a retired knob) cannot be replayed: exit 2, never exit 1,
        which means "reproduced"."""
        config = {**ChaosConfig(seed=3, n_events=5).to_dict(), "fail_prob": 0.15}
        path = tmp_path / "old-artifact.json"
        ChaosArtifact(
            config=config, events=[], violation_step=0, violations=[],
        ).save(str(path))
        assert main(["chaos", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay artifact" in err and "fail_prob" in err

    def test_replay_bad_quarantine_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seed4.json"
        path.write_text(json.dumps({
            "quarantine": {"seed": 4, "reason": "crash", "attempts": 2,
                           "detail": "", "exitcode": -9},
            "config": {**ChaosConfig(seed=4).to_dict(), "bogus": 1},
        }))
        assert main(["chaos", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay artifact" in err and "bogus" in err

    def test_clean_run_exits_zero(self, capsys):
        assert main(["chaos", "--seed", "1", "--events", "40"]) == 0
        assert "invariants: all held" in capsys.readouterr().out


class TestIncident:
    def test_missing_incident_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such-incident.json"
        assert main(["incident", str(missing), "--replay"]) == 2
        assert "cannot replay incident" in capsys.readouterr().err


class TestRecover:
    """The crash-injection -> journal -> cold-restore drill (ISSUE 3):
    a chaos run with --crash-prob survives its crashes, exports the
    write-ahead journal, and `recover` rebuilds a clean controller from
    that journal alone."""

    def test_crash_run_then_recover(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        assert main([
            "chaos", "--seed", "5", "--events", "80",
            "--crash-prob", "0.1", "--journal", str(journal),
        ]) == 0
        out = capsys.readouterr().out
        assert "controller crashes survived:" in out
        assert "invariants: all held" in out
        assert journal.exists()

        assert main(["recover", str(journal)]) == 0
        recover_out = capsys.readouterr().out
        assert "reconcile:" in recover_out and "converged" in recover_out
        assert "invariants: all held after recovery" in recover_out

    def test_recover_missing_journal(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "no.jsonl")]) == 2
        assert "cannot load journal" in capsys.readouterr().err

    def test_recover_garbage_journal(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        assert main(["recover", str(path)]) == 2
        assert "cannot load journal" in capsys.readouterr().err


class TestHealth:
    """The no-oracle health loop CLI: silent faults in, probe-driven
    detection and remediation out (full coverage in
    tests/test_health_chaos.py; this pins the CLI surface)."""

    def test_clean_run_writes_timeline(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.json"
        assert main([
            "health", "--seed", "0", "--events", "30",
            "--timeline", str(timeline),
        ]) == 0
        out = capsys.readouterr().out
        assert "invariants: all held" in out
        assert "detection" in out
        assert timeline.exists()
