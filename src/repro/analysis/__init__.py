"""Analysis utilities: error metrics and table/figure rendering."""

from repro.analysis.errors import (
    relative_error,
    average_error,
    max_error,
    ExpVsModel,
    error_summary,
)
from repro.analysis.report import render_table, render_series, format_row
from repro.analysis.figures import (
    render_bars,
    render_grouped_bars,
    render_sparkline,
)

__all__ = [
    "relative_error",
    "average_error",
    "max_error",
    "ExpVsModel",
    "error_summary",
    "render_table",
    "render_series",
    "format_row",
    "render_bars",
    "render_grouped_bars",
    "render_sparkline",
]
