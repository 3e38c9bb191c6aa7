"""Tests for repro.experiments: every figure driver runs and reproduces
the paper's qualitative shape at test scale."""

import pytest

from repro.experiments import (
    ALL_FIGURES,
    ExperimentScale,
    fig01_smux_perf,
    fig11_hmux_capacity,
    fig12_failover,
    fig13_migration_avail,
    fig14_latency_breakdown,
    fig15_trace,
    fig16_smux_reduction,
    fig17_latency_vs_smux,
    fig18_duet_vs_random,
    fig19_failure_util,
    fig20_migration,
)
from repro.experiments.common import build_world, traffic_sweep_points
from repro.net.topology import FatTreeParams
from repro.sim.scenarios import HMuxCapacityConfig
from repro.workload.distributions import DipCountModel
from repro.workload.trace import TraceConfig


@pytest.fixture(scope="module")
def tiny_scale():
    from repro.workload.distributions import TrafficSkew

    # head_cap scales with population: at 60 VIPs the default 3% cap
    # would flatten the skew entirely (60 x 0.03 barely exceeds 1).
    return ExperimentScale(
        name="tiny",
        params=FatTreeParams(
            n_containers=3, tors_per_container=3,
            aggs_per_container=2, n_cores=2, servers_per_tor=8,
        ),
        n_vips=60,
        skew=TrafficSkew(head_cap=0.10),
        dip_model=DipCountModel(median_large=8.0, max_dips=16),
        seed=0,
    )


class TestFig01:
    def test_shapes(self, monkeypatch):
        monkeypatch.setattr(fig01_smux_perf, "N_SAMPLES", 800)
        result = fig01_smux_perf.run()
        no_load = result.latency_cdfs[0.0]
        overload = result.latency_cdfs[450_000.0]
        # Latency explodes past saturation; CPU pegs at 100%.
        assert overload.quantile(0.5) > no_load.quantile(0.5) * 10
        assert result.cpu_utilization[450_000.0] == 100.0
        assert result.cpu_utilization[200_000.0] == pytest.approx(66.7, abs=1)
        assert "Figure 1" in result.render()


class TestFig11:
    def test_shapes(self):
        result = fig11_hmux_capacity.run(HMuxCapacityConfig(phase_seconds=3.0))
        rows = result.rows()
        assert len(rows) == 3
        smux_over = result.series.window(3.0, 6.0)
        hmux = result.series.window(6.0, 9.0)
        assert hmux.median_latency_s() < smux_over.median_latency_s()
        assert "Figure 11" in result.render()


class TestFig12:
    def test_shapes(self):
        result = fig12_failover.run()
        assert result.observed_outage_s() == pytest.approx(
            result.failover_window_s, abs=0.015
        )
        assert result.scenario["vip1-smux"].availability() == 1.0
        assert "Figure 12" in result.render()


class TestFig13:
    def test_shapes(self):
        result = fig13_migration_avail.run()
        for series in result.scenario.series.values():
            assert series.availability() == 1.0
        assert result.first_migration_delay_s > 0.2
        assert "Figure 13" in result.render()


class TestFig14:
    def test_shapes(self, monkeypatch):
        monkeypatch.setattr(fig14_latency_breakdown, "N_TRIALS", 100)
        result = fig14_latency_breakdown.run()
        assert 0.7 <= result.fib_share() <= 0.95
        assert len(result.rows()) == 6
        assert "Figure 14" in result.render()


class TestFig15:
    def test_shapes(self, tiny_scale):
        result = fig15_trace.run(tiny_scale)
        # Traffic markedly more concentrated than DIPs (Figure 15).
        assert result.top_fraction_bytes(0.25) > result.top_fraction_dips(0.25)
        assert result.top_fraction_bytes(0.25) > 0.5
        assert "Figure 15" in result.render()


class TestFig16:
    def test_shapes(self, tiny_scale):
        points = traffic_sweep_points(tiny_scale)[2:]  # the heavier loads
        result = fig16_smux_reduction.run(tiny_scale, points)
        assert len(result.points) == 2
        for point in result.points:
            assert point.duet_36.n_smuxes < point.ananta_36
            assert point.duet_10g.n_smuxes <= point.ananta_10g
            assert point.hmux_coverage > 0.5
        assert "Figure 16" in result.render()


class TestFig17:
    def test_shapes(self, tiny_scale):
        result = fig17_latency_vs_smux.run(tiny_scale)
        # Duet beats Ananta at Duet's own fleet size...
        assert result.ananta_median_at(result.duet_n_smuxes) > result.duet_median_s
        # ...and the Ananta curve is monotone non-increasing.
        latencies = [l for _, l in result.ananta_curve]
        assert all(b <= a * 1.05 for a, b in zip(latencies, latencies[1:]))
        assert "Figure 17" in result.render()


class TestFig18:
    def test_shapes(self, tiny_scale):
        points = traffic_sweep_points(tiny_scale)[1:3]
        result = fig18_duet_vs_random.run(tiny_scale, points)
        for point in result.points:
            assert point.duet_smuxes <= point.random_smuxes
        assert "Figure 18" in result.render()


class TestFig19:
    def test_shapes(self, tiny_scale):
        result = fig19_failure_util.run(tiny_scale, n_trials=3)
        assert 0 < result.normal_max <= 0.8  # within reserved headroom
        assert len(result.switch_fail_max) == 3
        assert max(result.container_fail_max) <= 1.0
        assert "Figure 19" in result.render()


class TestFig20:
    def test_shapes(self, tiny_scale):
        result = fig20_migration.run(
            tiny_scale, TraceConfig(n_epochs=4), traffic_factor=1.5,
        )
        sticky = result.tracks["sticky"]
        nonsticky = result.tracks["non-sticky"]
        onetime = result.tracks["one-time"]
        # (a) adaptive strategies track each other and beat One-time.
        assert sticky.mean_coverage >= onetime.mean_coverage - 0.02
        # (b) Sticky shuffles far less than Non-sticky.
        assert sticky.mean_shuffled < nonsticky.mean_shuffled
        # (c) Ananta needs the most SMuxes.
        assert result.smux_counts["sticky"] <= result.smux_counts["ananta"]
        assert "Figure 20" in result.render()


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(ALL_FIGURES) == {
            "fig01", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18", "fig19", "fig20",
        }

    def test_every_module_has_run(self):
        for module in ALL_FIGURES.values():
            assert hasattr(module, "run")


class TestCommon:
    def test_build_world(self, tiny_scale):
        topology, population = build_world(tiny_scale)
        assert topology.n_switches == 3 * 5 + 2
        assert len(population) == 60

    def test_with_traffic(self, tiny_scale):
        scaled = tiny_scale.with_traffic(5e9)
        assert scaled.total_traffic_bps == pytest.approx(5e9)

    def test_sweep_points_increasing(self, tiny_scale):
        points = traffic_sweep_points(tiny_scale)
        assert points == sorted(points)
        assert len(points) == 4
