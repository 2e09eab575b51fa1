"""Unit tests for the ASCII plot renderer."""

import pytest

from repro.experiments.config import ExperimentDef, SeriesDef
from repro.experiments.plot import MARKERS, _interpolate, _scale, render_plot
from repro.experiments.runner import ExperimentResult
from repro.workload.clientserver import WorkloadResult
from repro.workload.params import SimulationParameters


def fake_result(
    series: dict, x_values=(1.0, 2.0, 3.0), exp_id: str = "fake"
) -> ExperimentResult:
    """Build an ExperimentResult from literal y-value lists."""
    params = SimulationParameters()
    defn = ExperimentDef(
        exp_id=exp_id,
        title="Fake",
        x_label="x",
        x_values=tuple(x_values),
        series=tuple(
            SeriesDef(label, lambda x: params) for label in series
        ),
    )
    result = ExperimentResult(definition=defn)
    for label, ys in series.items():
        result.results[label] = [
            WorkloadResult(
                params=params,
                metrics={
                    "mean_communication_time_per_call": y,
                    "mean_call_duration": y,
                    "mean_migration_time_per_call": 0.0,
                },
                simulated_time=0.0,
            )
            for y in ys
        ]
    return result


class TestScale:
    def test_bounds(self):
        assert _scale(0.0, 0.0, 10.0, 5) == 0
        assert _scale(10.0, 0.0, 10.0, 5) == 4
        assert _scale(5.0, 0.0, 10.0, 5) == 2

    def test_degenerate_range(self):
        assert _scale(7.0, 3.0, 3.0, 10) == 0

    def test_clamping(self):
        assert _scale(-5.0, 0.0, 1.0, 4) == 0
        assert _scale(99.0, 0.0, 1.0, 4) == 3


class TestInterpolate:
    def test_endpoint_preservation(self):
        pts = _interpolate([0, 10], [0, 100], samples=11)
        assert pts[0] == (0, 0)
        assert pts[-1] == (10, 100)

    def test_linear_midpoint(self):
        pts = _interpolate([0, 10], [0, 100], samples=11)
        assert pts[5] == pytest.approx((5.0, 50.0))

    def test_single_point(self):
        assert _interpolate([3], [7], samples=10) == [(3, 7)]

    def test_multi_segment(self):
        pts = _interpolate([0, 1, 2], [0, 10, 0], samples=21)
        ys = [y for _, y in pts]
        assert max(ys) == pytest.approx(10.0)
        assert ys[0] == ys[-1] == 0.0


class TestRender:
    def test_contains_title_axis_legend(self):
        result = fake_result({"a": [1, 2, 3], "b": [3, 2, 1]})
        out = render_plot(result)
        assert "fake: Fake" in out
        assert "x" in out
        assert f"{MARKERS[0]}  a" in out
        assert f"{MARKERS[1]}  b" in out

    def test_markers_drawn(self):
        result = fake_result({"a": [1, 1, 1]})
        out = render_plot(result)
        assert MARKERS[0] in out

    def test_rising_curve_occupies_higher_rows(self):
        result = fake_result({"a": [0.0, 0.0, 10.0]})
        lines = render_plot(result, height=10).splitlines()
        plot_lines = [l for l in lines if "|" in l]
        top_half = "".join(plot_lines[: len(plot_lines) // 2])
        bottom_half = "".join(plot_lines[len(plot_lines) // 2:])
        assert MARKERS[0] in top_half
        assert MARKERS[0] in bottom_half

    def test_too_small_rejected(self):
        result = fake_result({"a": [1, 2, 3]})
        with pytest.raises(ValueError):
            render_plot(result, width=5)
        with pytest.raises(ValueError):
            render_plot(result, height=2)

    def test_flat_zero_curve(self):
        result = fake_result({"a": [0.0, 0.0, 0.0]})
        out = render_plot(result)
        assert MARKERS[0] in out  # degenerate y-range handled
