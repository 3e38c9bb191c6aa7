"""Tests for repro.workload.distributions: the Figure 15 models."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Cdf, lorenz_points
from repro.workload.distributions import (
    DipCountModel,
    IngressModel,
    TrafficSkew,
)


class TestTrafficSkew:
    def test_shares_sum_to_one(self):
        shares = TrafficSkew().shares(500)
        assert shares.sum() == pytest.approx(1.0)

    def test_shares_descending(self):
        shares = TrafficSkew().shares(200)
        assert (np.diff(shares) <= 1e-15).all()

    def test_head_cap_enforced(self):
        skew = TrafficSkew(head_cap=0.01)
        shares = skew.shares(1000)
        assert shares.max() <= 0.01 + 1e-9

    def test_heavy_skew_shape(self):
        """Figure 15: a small head of VIPs carries most of the bytes."""
        curve = dict(lorenz_points(TrafficSkew().shares(600), n_points=11))
        assert curve[0.1] > 0.75
        assert curve[0.5] > 0.95

    def test_single_vip(self):
        assert TrafficSkew().shares(1) == pytest.approx([1.0])

    def test_uniform_fallback_when_cap_unsatisfiable(self):
        shares = TrafficSkew(head_cap=0.05).shares(10)  # 10 * 0.05 < 1
        assert np.allclose(shares, 0.1)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            TrafficSkew(head_cap=0.0)

    def test_zero_vips_rejected(self):
        with pytest.raises(ValueError):
            TrafficSkew().shares(0)

    @given(st.integers(min_value=40, max_value=2000))
    @settings(max_examples=20)
    def test_properties_hold_at_any_size(self, n):
        shares = TrafficSkew().shares(n)
        assert shares.sum() == pytest.approx(1.0)
        assert (shares > 0).all()
        assert shares.max() <= TrafficSkew().head_cap + 1e-9


class TestDipCountModel:
    def test_counts_in_bounds(self):
        model = DipCountModel(min_dips=1, max_dips=50)
        counts = model.counts(500, random.Random(0))
        assert all(1 <= c <= 50 for c in counts)

    def test_elephants_have_more_dips(self):
        model = DipCountModel()
        counts = model.counts(1000, random.Random(0))
        head = np.mean(counts[:100])
        tail = np.mean(counts[-100:])
        assert head > 5 * tail

    def test_deterministic_in_seed(self):
        model = DipCountModel()
        assert model.counts(100, random.Random(3)) == model.counts(
            100, random.Random(3)
        )

    def test_zero_vips_rejected(self):
        with pytest.raises(ValueError):
            DipCountModel().counts(0, random.Random(0))


class TestIngressModel:
    def test_defaults_match_paper(self):
        # "almost 70% of the total VIP traffic is generated within DC" (S2).
        assert IngressModel().intra_dc_fraction == pytest.approx(0.70)

    def test_validation(self):
        with pytest.raises(ValueError):
            IngressModel(intra_dc_fraction=1.5)
        with pytest.raises(ValueError):
            IngressModel(client_racks_per_vip=0)


class TestHelpers:
    """Skew is read through the analysis package's CDF and Lorenz
    curve, the ones the Figure 15 driver plots."""

    def test_empirical_cdf(self):
        shares = TrafficSkew().shares(50)
        cdf = Cdf.of(shares)
        assert list(cdf.xs) == sorted(shares)
        assert cdf.ys[-1] == pytest.approx(1.0)
        assert cdf.quantile(1.0) == shares.max()

    def test_empirical_cdf_empty(self):
        with pytest.raises(ValueError):
            Cdf.of([])

    def test_share_concentration_bounds(self):
        curve = lorenz_points([0.5, 0.3, 0.2], n_points=4)
        assert curve[-1] == (1.0, pytest.approx(1.0))
        assert curve[1] == (1 / 3, pytest.approx(0.5))

    def test_share_concentration_validation(self):
        with pytest.raises(ValueError):
            lorenz_points([])
