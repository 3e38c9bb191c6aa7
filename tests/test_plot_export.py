"""Tests for repro.analysis.plot and repro.analysis.export."""

import csv
import math

import pytest

from repro.analysis.export import export_rows_csv
from repro.analysis.plot import (
    decimate,
    sparkline,
    timeseries_line,
)


class TestSparkline:
    def test_range_mapping(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_length_matches(self):
        assert len(sparkline([1.0] * 7)) == 7

    def test_nan_renders_gap(self):
        line = sparkline([1.0, float("nan"), 2.0])
        assert line[1] == " "

    def test_constant_series(self):
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3) == "   "

    def test_fixed_scale(self):
        line = sparkline([5.0], lo=0.0, hi=10.0)
        assert line in "▄▅"


class TestDecimate:
    def test_short_series_unchanged(self):
        assert decimate([1.0, 2.0], 10) == [1.0, 2.0]

    def test_width_respected(self):
        assert len(decimate(list(range(1000)), 50)) == 50

    def test_bucket_maxima(self):
        values = [0.0] * 99 + [9.0]
        compact = decimate(values, 10)
        assert max(compact) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            decimate([1.0], 0)


class TestTimeseriesLine:
    def test_contains_label_and_range(self):
        text = timeseries_line("lat", [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert "lat" in text
        assert "0s" in text and "2s" in text

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            timeseries_line("x", [0.0], [1.0, 2.0])

    def test_empty(self):
        assert "(empty)" in timeseries_line("x", [], [])

    def test_all_dropped(self):
        text = timeseries_line("x", [0.0, 1.0], [float("nan")] * 2)
        assert "all dropped" in text


class TestCsvExport:
    def test_rows_roundtrip(self, tmp_path):
        path = export_rows_csv(
            tmp_path / "t.csv", ("a", "b"), [(1, "x"), (2, "y")],
        )
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "x"], ["2", "y"]]

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            export_rows_csv(tmp_path / "t.csv", ("a",), [(1, 2)])

    def test_series(self, tmp_path):
        path = export_rows_csv(tmp_path / "s.csv", ("t", "v"), [(0.0, 1.0)])
        assert path.read_text().splitlines()[0] == "t,v"

    def test_creates_directories(self, tmp_path):
        path = export_rows_csv(
            tmp_path / "deep" / "dir" / "t.csv", ("a",), [(1,)],
        )
        assert path.exists()


class TestFigureIntegration:
    def test_fig12_render_has_timeline(self):
        from repro.experiments import fig12_failover

        text = fig12_failover.run().render()
        assert "vip3-failed-hmux t=" in text
        # The outage renders as a gap (spaces) inside the sparkline.
        spark_lines = [l for l in text.splitlines() if l.startswith("  ")]
        assert any(" " in l.strip("▁▂▃▄▅▆▇█ ") or "  " in l.strip()
                   for l in spark_lines)
