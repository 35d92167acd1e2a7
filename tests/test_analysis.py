"""Tests for the analysis toolkit: metrics, ratios, ASCII plots, reports."""

import numpy as np
import pytest

from repro import (
    AlgorithmA,
    ProblemInstance,
    Reactive,
    Schedule,
    compute_metrics,
    empirical_ratio,
    ratio_table,
    solve_optimal,
    theoretical_bound,
)
from repro.analysis import (
    compare_plot,
    format_markdown_table,
    format_table,
    rows_to_csv,
    schedule_plot,
    series_plot,
    step_plot,
)
from repro.analysis.competitive import RatioResult


class TestMetrics:
    def test_metrics_consistency(self, small_instance):
        sched = solve_optimal(small_instance).schedule
        metrics = compute_metrics(small_instance, sched, name="opt")
        assert metrics.total_cost == pytest.approx(metrics.operating_cost + metrics.switching_cost)
        assert metrics.operating_cost == pytest.approx(metrics.idle_cost + metrics.load_dependent_cost)
        assert metrics.feasible
        assert metrics.mean_utilisation <= 1.0 + 1e-9

    def test_metrics_row_keys(self, small_instance):
        sched = Schedule.constant(small_instance.T, small_instance.m)
        row = compute_metrics(small_instance, sched, name="all-on").as_row()
        assert row["name"] == "all-on"
        assert {"total", "operating", "switching", "power_ups", "feasible"} <= set(row)

    def test_peak_and_power_ups(self, small_instance):
        sched = Schedule.from_rows([[1, 0], [2, 0], [3, 1], [1, 0], [0, 0], [3, 0]])
        metrics = compute_metrics(small_instance, sched)
        np.testing.assert_array_equal(metrics.peak_active, [3, 1])
        assert int(np.sum(metrics.power_ups)) == int(np.sum(sched.power_ups()))


class TestCompetitiveHelpers:
    def test_empirical_ratio(self, small_instance):
        res = empirical_ratio(small_instance, AlgorithmA(), bound=theoretical_bound(small_instance, "A"))
        assert res.ratio >= 1.0 - 1e-9
        assert res.within_bound
        row = res.as_row()
        assert row["within_bound"] is True
        assert row["algorithm"] == "algorithm-A"

    def test_ratio_without_bound(self, small_instance):
        res = empirical_ratio(small_instance, Reactive())
        assert res.within_bound is None
        assert "bound" not in res.as_row()

    def test_zero_optimum_edge_case(self):
        res = RatioResult(instance="x", algorithm="a", online_cost=0.0, optimal_cost=0.0)
        assert res.ratio == 1.0
        res2 = RatioResult(instance="x", algorithm="a", online_cost=1.0, optimal_cost=0.0)
        assert res2.ratio == float("inf")

    def test_ratio_table(self, small_instance, homogeneous_instance):
        rows = ratio_table(
            [small_instance.prefix(4), homogeneous_instance.prefix(4)],
            [AlgorithmA, Reactive],
        )
        assert len(rows) == 4
        assert all(r.ratio >= 1.0 - 1e-9 for r in rows)

    def test_theoretical_bounds(self, small_instance, load_independent_instance):
        assert theoretical_bound(small_instance, "A") == 5.0
        assert theoretical_bound(load_independent_instance, "A") == 4.0
        assert theoretical_bound(small_instance, "B") == pytest.approx(5.0 + small_instance.c_constant())
        assert theoretical_bound(small_instance, "C", epsilon=0.25) == pytest.approx(5.25)
        with pytest.raises(ValueError):
            theoretical_bound(small_instance, "C")
        with pytest.raises(ValueError):
            theoretical_bound(small_instance, "Z")


class TestReports:
    ROWS = [
        {"name": "A", "cost": 12.5, "ratio": 1.2},
        {"name": "B", "cost": 30.0, "ratio": 2.9},
    ]

    def test_format_table(self):
        text = format_table(self.ROWS, title="results")
        assert "results" in text
        assert "name" in text and "ratio" in text
        assert "12.5" in text

    def test_markdown_table(self):
        text = format_markdown_table(self.ROWS)
        assert text.startswith("| name")
        assert "| A " in text or "| A |" in text

    def test_csv(self):
        text = rows_to_csv(self.ROWS)
        lines = text.strip().splitlines()
        assert lines[0] == "name,cost,ratio"
        assert len(lines) == 3

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"
        assert format_markdown_table([]) == "(no rows)"

    def test_heterogeneous_columns(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text


class TestAsciiPlots:
    def test_step_plot_integral_series(self):
        text = step_plot([0, 1, 3, 2, 0], title="servers")
        assert "servers" in text
        assert "#" in text
        # three rows of bars for a max of 3
        assert text.count("|") >= 3

    def test_step_plot_float_series(self):
        text = step_plot([0.0, 2.5, 7.9], height=5)
        assert "#" in text

    def test_step_plot_empty(self):
        assert "empty" in step_plot([])

    def test_step_plot_rejects_2d(self):
        with pytest.raises(ValueError):
            step_plot(np.zeros((2, 2)))

    def test_series_and_schedule_plot(self, small_instance):
        sched = solve_optimal(small_instance).schedule
        text = schedule_plot(sched.x, type_names=["cpu", "gpu"], title="optimal")
        assert "cpu" in text and "gpu" in text and "optimal" in text
        combo = compare_plot(small_instance.demand, {"opt": sched.x}, type_index=0)
        assert "demand" in combo and "opt" in combo
