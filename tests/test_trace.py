"""Tests for repro.workload.trace: epoch dynamics."""

import pytest

from repro.workload import trace
from repro.workload.trace import TraceConfig, TraceGenerator, _cap_shares


@pytest.fixture()
def generator(tiny_population, monkeypatch):
    monkeypatch.setattr(trace, "CHURN_FRACTION", 0.1)
    return TraceGenerator(tiny_population, TraceConfig(n_epochs=6), seed=1)


class TestEpochStructure:
    def test_epoch_count(self, generator):
        assert len(generator.epochs()) == 6

    def test_epoch_timing(self, generator):
        epochs = generator.epochs()
        assert epochs[0].start_s == 0.0
        assert epochs[1].start_s == pytest.approx(600.0)

    def test_first_epoch_matches_base(self, generator, tiny_population):
        first = generator.epochs()[0]
        assert len(first.demands) == len(tiny_population)
        assert first.added_vip_ids == ()
        assert first.removed_vip_ids == ()

    def test_totals_in_band(self, generator, tiny_population):
        base = tiny_population.total_traffic_bps
        for epoch in generator.epochs():
            assert 0.88 * base <= epoch.total_traffic_bps <= 1.05 * base

    def test_deterministic(self, tiny_population):
        config = TraceConfig(n_epochs=4)
        a = TraceGenerator(tiny_population, config, seed=9).epochs()
        b = TraceGenerator(tiny_population, config, seed=9).epochs()
        for ea, eb in zip(a, b):
            assert [d.traffic_bps for d in ea.demands] == [
                d.traffic_bps for d in eb.demands
            ]

    def test_traffic_actually_drifts(self, generator):
        epochs = generator.epochs()
        first = {d.vip_id: d for d in epochs[0].demands}
        last = {d.vip_id: d for d in epochs[-1].demands}
        common = set(first) & set(last)
        changed = sum(
            1 for vid in common
            if abs(first[vid].traffic_bps - last[vid].traffic_bps)
            > 0.01 * first[vid].traffic_bps
        )
        assert changed > len(common) * 0.8

    def test_demand_by_id(self, generator):
        # One demand per VIP per epoch: keying an epoch by VIP id loses
        # nothing.
        for epoch in generator.epochs():
            ids = [d.vip_id for d in epoch.demands]
            assert len(set(ids)) == len(ids)


class TestChurn:
    def test_churn_removes_and_readmits(self, generator):
        epochs = generator.epochs()
        removed_ever = set()
        for epoch in epochs[1:]:
            removed_ever.update(epoch.removed_vip_ids)
            present = {d.vip_id for d in epoch.demands}
            for vid in epoch.removed_vip_ids:
                assert vid not in present
            for vid in epoch.added_vip_ids:
                assert vid in present
        assert removed_ever  # 10% churn on 20 VIPs fires

    def test_no_churn_when_fraction_zero(self, tiny_population, monkeypatch):
        monkeypatch.setattr(trace, "CHURN_FRACTION", 0.0)
        gen = TraceGenerator(tiny_population, TraceConfig(n_epochs=4))
        for epoch in gen.epochs():
            assert epoch.removed_vip_ids == ()
            assert epoch.added_vip_ids == ()


class TestShareCap:
    def test_no_vip_exceeds_cap(self, tiny_population, monkeypatch):
        monkeypatch.setattr(trace, "FLASH_PROBABILITY", 0.3)
        monkeypatch.setattr(trace, "FLASH_MULTIPLIER", 50.0)
        monkeypatch.setattr(trace, "SHARE_CAP", 0.25)
        gen = TraceGenerator(tiny_population, TraceConfig(n_epochs=8), seed=2)
        for epoch in gen.epochs():
            total = epoch.total_traffic_bps
            for demand in epoch.demands:
                assert demand.traffic_bps <= 0.25 * total * 1.01

    def test_cap_shares_helper(self):
        capped = _cap_shares({1: 100.0, 2: 1.0, 3: 1.0}, 0.5)
        total = sum(capped.values())
        assert max(capped.values()) <= 0.5 * total * 1.0001
        assert total == pytest.approx(102.0)

    def test_cap_shares_single_entry(self):
        assert _cap_shares({1: 5.0}, 0.1) == {1: 5.0}


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_epochs=0)
