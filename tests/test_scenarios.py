"""Tests for repro.sim.scenarios: the Figure 11-13 testbed experiments."""

import pytest

from repro.net.bgp import BgpTimings
from repro.sim.scenarios import (
    HMuxCapacityConfig,
    run_failover,
    run_hmux_capacity,
    run_migration,
)


@pytest.fixture(scope="module")
def capacity_result():
    return run_hmux_capacity(HMuxCapacityConfig(phase_seconds=5.0))


@pytest.fixture(scope="module")
def failover_result():
    return run_failover()


@pytest.fixture(scope="module")
def migration_result():
    return run_migration()


class TestHMuxCapacity:
    """Figure 11: the SMuxes saturate at 400K pps each; the HMux carries
    1.2M pps at sub-millisecond latency."""

    def test_phase1_smux_healthy(self, capacity_result):
        series = capacity_result["unloaded-vip"].window(0.0, 5.0)
        assert series.availability() > 0.99
        assert series.median_latency_s() < 1.5e-3

    def test_phase2_smux_overloaded(self, capacity_result):
        series = capacity_result["unloaded-vip"].window(3.0, 10.0).window(5.0, 10.0)
        # Latency explodes and some probes are lost to tail drop.
        assert series.median_latency_s() > 5e-3
        assert series.availability() < 0.95

    def test_phase3_hmux_fast(self, capacity_result):
        series = capacity_result["unloaded-vip"].window(10.0, 15.0)
        assert series.availability() == 1.0
        assert series.median_latency_s() < 1e-3

    def test_hmux_beats_overloaded_smux(self, capacity_result):
        smux = capacity_result["unloaded-vip"].window(5.0, 10.0)
        hmux = capacity_result["unloaded-vip"].window(10.0, 15.0)
        assert hmux.median_latency_s() < smux.median_latency_s() / 10

    def test_serving_mux_flips_at_t2(self, capacity_result):
        series = capacity_result["unloaded-vip"]
        assert series.serving_mux_at(9.9) == "smux"
        assert series.serving_mux_at(10.1) == "hmux"


class TestFailover:
    """Figure 12: ~38 ms outage for the failed HMux's VIP; zero impact on
    the others."""

    def test_failed_vip_outage_window(self, failover_result):
        outage = failover_result["vip3-failed-hmux"].outage_s()
        expected = BgpTimings().failover_s
        assert outage == pytest.approx(expected, abs=0.012)

    def test_failed_vip_recovers_on_smux(self, failover_result):
        series = failover_result["vip3-failed-hmux"]
        t_recover = failover_result.notes["t_recover_s"]
        assert series.serving_mux_at(t_recover + 0.01) == "smux"

    def test_connections_survive_after_failover(self, failover_result):
        series = failover_result["vip3-failed-hmux"]
        after = series.window(failover_result.notes["t_recover_s"] + 0.005, 10)
        assert after.availability() == 1.0

    def test_healthy_hmux_vip_unaffected(self, failover_result):
        assert failover_result["vip2-healthy-hmux"].availability() == 1.0

    def test_smux_vip_unaffected(self, failover_result):
        assert failover_result["vip1-smux"].availability() == 1.0

    def test_drop_window_positioned_at_failure(self, failover_result):
        windows = failover_result["vip3-failed-hmux"].drop_windows()
        assert len(windows) == 1
        start, _ = windows[0]
        assert start >= failover_result.notes["t_fail_s"]


class TestMigration:
    """Figure 13: zero loss during migration; only the serving mux (and
    latency band) changes."""

    def test_no_loss_anywhere(self, migration_result):
        for series in migration_result.series.values():
            assert series.availability() == 1.0

    def test_vip1_hmux_to_smux(self, migration_result):
        series = migration_result["vip1-hmux-to-smux"]
        t2 = migration_result.notes["t2_s"]
        assert series.serving_mux_at(t2 - 0.05) == "hmux"
        assert series.serving_mux_at(t2 + 0.05) == "smux"

    def test_vip2_smux_to_hmux(self, migration_result):
        series = migration_result["vip2-smux-to-hmux"]
        t3 = migration_result.notes["t3_s"]
        assert series.serving_mux_at(t3 - 0.05) == "smux"
        assert series.serving_mux_at(t3 + 0.05) == "hmux"

    def test_vip3_roundtrip_through_smux(self, migration_result):
        series = migration_result["vip3-hmux-to-hmux"]
        t2 = migration_result.notes["t2_s"]
        t3 = migration_result.notes["t3_s"]
        assert series.serving_mux_at(t2 - 0.05) == "hmux"
        assert series.serving_mux_at((t2 + t3) / 2) == "smux"
        assert series.serving_mux_at(t3 + 0.05) == "hmux"

    def test_migration_delays_in_figure13_band(self, migration_result):
        t1 = migration_result.notes["t1_s"]
        t2 = migration_result.notes["t2_s"]
        t3 = migration_result.notes["t3_s"]
        # The paper measures ~450 ms and ~400 ms.
        assert 0.2 <= t2 - t1 <= 1.0
        assert 0.2 <= t3 - t2 <= 1.0

    def test_smux_latency_band_higher(self, migration_result):
        """"The VIPs see a very slight increase in latency when they are
        on SMux, due to software processing" (S7.3)."""
        series = migration_result["vip1-hmux-to-smux"]
        t2 = migration_result.notes["t2_s"]
        on_hmux = series.window(0.0, t2 - 0.01)
        on_smux = series.window(t2 + 0.01, 10.0)
        assert on_smux.median_latency_s() > on_hmux.median_latency_s()


class TestSmuxFailure:
    """S5.1: "SMux failure has no impact on VIPs assigned to HMux, and
    has only a small impact on VIPs that are assigned only to SMuxes"."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.sim.scenarios import run_smux_failure

        return run_smux_failure()

    def test_hmux_vip_untouched(self, result):
        assert result["vip-on-hmux"].availability() == 1.0

    def test_smux_vip_small_impact(self, result):
        series = result["vip-on-smux"]
        # Only the ~1/3 of probes hashed to the dead SMux during the
        # convergence window are lost.
        assert series.availability() > 0.85
        assert series.outage_s() <= 0.06

    def test_survivors_carry_traffic_after(self, result):
        series = result["vip-on-smux"]
        after = series.window(result.notes["t_recover_s"] + 0.003, 10.0)
        assert after.availability() == 1.0
        assert after.serving_mux_at(after.results[0].time_s) == "smux"
