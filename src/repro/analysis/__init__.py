"""Analysis helpers: CDFs, summaries, plain-text reporting."""

from repro.analysis.cdf import Cdf, lorenz_points
from repro.analysis.export import export_rows_csv
from repro.analysis.plot import (
    decimate,
    sparkline,
    timeseries_line,
)
from repro.analysis.reporting import (
    format_seconds,
    format_si,
    render_series,
    render_table,
)
from repro.analysis.stats import Summary

__all__ = [
    "Cdf",
    "Summary",
    "decimate",
    "export_rows_csv",
    "sparkline",
    "timeseries_line",
    "format_seconds",
    "format_si",
    "lorenz_points",
    "render_series",
    "render_table",
]
