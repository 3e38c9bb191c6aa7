"""Tests for repro.sim.control: control-plane latency model (Figure 14)."""

import pytest

from repro.net.bgp import BgpTimings
from repro.sim.control import ControlPlaneModel, breakdown


@pytest.fixture(scope="module")
def model():
    return ControlPlaneModel(seed=1)


class TestSamples:
    def test_components_positive(self, model):
        sample = model.sample_add()
        assert sample.dip_update_s > 0
        assert sample.fib_update_s > 0
        assert sample.bgp_propagation_s > 0
        assert sample.total_s == pytest.approx(
            sample.dip_update_s + sample.fib_update_s + sample.bgp_propagation_s
        )

    def test_fib_dominates(self, model):
        """"Almost all (80-90%) of the migration delay is due to the
        latency of adding/removing the VIP to/from the FIB" (S7.3)."""
        samples = [model.sample_add() for _ in range(300)]
        fib = sum(s.fib_update_s for s in samples)
        total = sum(s.total_s for s in samples)
        assert 0.7 <= fib / total <= 0.95

    def test_migration_delay_figure13_band(self, model):
        delays = [model.migration_delay_s() for _ in range(100)]
        median = sorted(delays)[50]
        assert 0.3 <= median <= 0.7  # paper: ~400-450 ms

    def test_failover_delay_figure12(self, model):
        # Detection plus withdrawal propagation: ~38 ms blackhole.
        assert model.timings.failover_s == pytest.approx(
            BgpTimings().failover_s
        )
        assert model.timings.failover_s == pytest.approx(0.038, abs=0.005)

    def test_deterministic_in_seed(self):
        a = ControlPlaneModel(seed=4).sample_add()
        b = ControlPlaneModel(seed=4).sample_add()
        assert a == b


class TestBreakdown:
    def test_three_components(self, model):
        stats = breakdown([model.sample_add() for _ in range(50)])
        assert {s.component for s in stats} == {
            "dip-update", "vip-fib-update", "bgp-propagation",
        }

    def test_quantile_ordering(self, model):
        for stat in breakdown([model.sample_add() for _ in range(200)]):
            assert stat.p10_s <= stat.median_s <= stat.p90_s

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            breakdown([])
