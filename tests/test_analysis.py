"""Tests for repro.analysis: CDFs, stats, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    Cdf,
    Summary,
    format_seconds,
    format_si,
    lorenz_points,
    render_series,
    render_table,
)


class TestCdf:
    def test_basic(self):
        cdf = Cdf.of([3.0, 1.0, 2.0])
        assert list(cdf.xs) == [1.0, 2.0, 3.0]
        assert cdf.ys[-1] == 1.0

    def test_quantile(self):
        cdf = Cdf.of(list(range(1, 101)))
        assert cdf.quantile(0.5) == pytest.approx(50, abs=1)
        assert cdf.quantile(1.0) == 100

    def test_fraction_at_or_below(self):
        # F steps by 1/n at each sample: half the mass sits at or below 2.
        cdf = Cdf.of([1.0, 2.0, 3.0, 4.0])
        assert cdf.ys.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(0.25) == 1.0

    def test_at_points(self):
        cdf = Cdf.of([1.0, 2.0])
        points = [(q, cdf.quantile(q)) for q in (0.25, 0.5, 0.75, 1.0)]
        assert points == [(0.25, 1.0), (0.5, 1.0), (0.75, 2.0), (1.0, 2.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf.of([])

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            Cdf.of([1.0]).quantile(0.0)


class TestLorenz:
    def test_endpoints(self):
        points = lorenz_points([5.0, 3.0, 2.0])
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, pytest.approx(1.0))

    def test_monotone(self):
        points = lorenz_points(np.random.default_rng(0).random(100))
        ys = [y for _, y in points]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_skew_visible(self):
        skewed = lorenz_points([100.0] + [1.0] * 99)
        top_10pct = next(y for x, y in skewed if x >= 0.1)
        assert top_10pct > 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lorenz_points([])


class TestStats:
    def test_summary(self):
        s = Summary.of(list(range(1, 101)))
        assert s.count == 100
        assert s.median == pytest.approx(50.5)
        assert s.maximum == 100

    def test_summary_empty(self):
        with pytest.raises(ValueError):
            Summary.of([])


class TestFormatting:
    def test_format_si(self):
        assert format_si(3.6e9, "bps") == "3.60Gbps"
        assert format_si(1.5e12) == "1.50T"
        assert format_si(42.0) == "42.00"

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.50s"
        assert format_seconds(3.2e-3) == "3.20ms"
        assert format_seconds(450e-6) == "450.0us"
        assert format_seconds(5e-9) == "5ns"


class TestRenderTable:
    def test_alignment(self):
        text = render_table(("a", "bb"), [("x", "y"), ("long", "z")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_title(self):
        text = render_table(("a",), [("1",)], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(("a", "b"), [("only-one",)])


class TestRenderSeries:
    def test_contains_endpoints(self):
        points = [(float(i), float(i * i)) for i in range(100)]
        text = render_series("sq", points)
        assert "(0, 0)" in text
        assert "(99," in text

    def test_empty(self):
        assert "empty" in render_series("s", [])
