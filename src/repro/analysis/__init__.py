"""Analysis toolkit: metrics, empirical ratios, ASCII figures, reports."""

from .ascii_plot import compare_plot, schedule_plot, series_plot, step_plot
from .competitive import RatioResult, empirical_ratio, ratio_table, theoretical_bound
from .metrics import ScheduleMetrics, compute_metrics
from .report import format_markdown_table, format_table, rows_to_csv

__all__ = [
    "RatioResult",
    "ScheduleMetrics",
    "compare_plot",
    "compute_metrics",
    "empirical_ratio",
    "format_markdown_table",
    "format_table",
    "ratio_table",
    "rows_to_csv",
    "schedule_plot",
    "series_plot",
    "step_plot",
    "theoretical_bound",
]
