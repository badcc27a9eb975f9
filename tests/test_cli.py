"""Tests for the command-line interface and ASCII rendering."""

import pytest

from repro.cli import main
from repro.experiments.render import render_series


class TestCli:
    def test_list_prints_experiment_ids(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for exp_id in ("fig4", "fig11", "table2", "blocking"):
            assert exp_id in output

    def test_solve(self, capsys):
        assert main(["solve", "0.5", "1.0", "0.2", "4"]) == 0
        output = capsys.readouterr().out
        assert "matrix-geometric" in output
        assert "bus utilization        : 0.5" in output

    def test_solve_unstable_reports_error(self, capsys):
        assert main(["solve", "5.0", "1.0", "0.2", "4"]) == 1
        assert "unstable" in capsys.readouterr().err

    def test_solve_alternative_method(self, capsys):
        assert main(["solve", "0.3", "1.0", "0.5", "2",
                     "--method", "stage-recursion"]) == 0
        assert "stage-recursion" in capsys.readouterr().out

    def test_experiment_fig11(self, capsys):
        assert main(["experiment", "fig11"]) == 0
        assert "3.5" in capsys.readouterr().out

    def test_experiment_unknown_id(self, capsys):
        assert main(["experiment", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_simulate(self, capsys):
        assert main(["simulate", "8/1x8x8 XBAR/1", "--rho", "0.3",
                     "--horizon", "2000"]) == 0
        output = capsys.readouterr().out
        assert "mu_s*d" in output

    def test_simulate_bad_config(self, capsys):
        assert main(["simulate", "7/1x7x7 OMEGA/1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_recommend(self, capsys):
        assert main(["recommend", "--resource-cost", "0.25"]) == 0
        output = capsys.readouterr().out
        assert "build:" in output
        assert "SBUS" in output  # cheap resources -> private buses

    def test_blocking(self, capsys):
        assert main(["blocking", "--trials", "20"]) == 0
        output = capsys.readouterr().out
        assert "RSIN" in output

    def test_faults_resource(self, capsys):
        assert main(["faults", "4/4x1x1 SBUS/2", "--mttf", "400",
                     "--mttr", "50", "--horizon", "3000"]) == 0
        output = capsys.readouterr().out
        assert "fault model      : resource" in output
        assert "degraded model" in output
        assert "capacity offered" in output

    def test_faults_interchange(self, capsys):
        assert main(["faults", "8/1x8x8 OMEGA/1", "--kind", "interchange",
                     "--mttf", "500", "--mttr", "40",
                     "--horizon", "2000", "--task-timeout", "100"]) == 0
        output = capsys.readouterr().out
        assert "fault model      : interchange" in output

    def test_faults_kind_mismatch_reports_error(self, capsys):
        assert main(["faults", "4/4x1x1 SBUS/2", "--kind", "cell",
                     "--horizon", "1000"]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_auto_engine_prints_no_fallback_note(self, capsys):
        """Every registered figure family batches now: the default auto
        engine finds nothing to gate (fig4 is pure analytic, so this
        stays cheap while still walking the fallback-note path)."""
        assert main(["run", "fig4", "--engine", "auto", "--no-cache",
                     "--quality", "fast"]) == 0
        captured = capsys.readouterr()
        assert "falls back" not in captured.err
        # 7 analytic curves x 8 fast-grid intensities, one unit per point.
        assert "56 points (56 units) in " in captured.out

    def test_run_summary_counts_points_not_units(self, capsys, monkeypatch):
        """A mega-batch unit carries a whole curve: the summary counts the
        curve's points, and reports the units separately."""
        from repro.experiments import figures

        monkeypatch.setitem(figures.QUALITY_PRESETS, "fast", (0.55, 400.0))
        assert main(["run", "fig7", "--no-cache", "--quality", "fast"]) == 0
        # 4 crossbar curves x 3 intensities, each curve one mega-batch unit.
        assert "12 points (4 units) in " in capsys.readouterr().out


class TestRender:
    def make_series(self):
        from repro.analysis import analytic_series
        return [analytic_series("16/16x1x1 SBUS/2", 0.1, [0.2, 0.4, 0.6]),
                analytic_series("16/8x1x1 SBUS/4", 0.1, [0.2, 0.4, 0.6])]

    def test_render_contains_markers_and_legend(self):
        chart = render_series(self.make_series(), title="demo")
        assert "demo" in chart
        assert "o" in chart and "x" in chart
        assert "16/16x1x1 SBUS/2" in chart  # default label is the triplet
        assert "traffic intensity" in chart

    def test_render_empty(self):
        from repro.analysis import analytic_series
        saturated = [analytic_series("16/1x1x1 SBUS/32", 0.1, [0.9])]
        chart = render_series(saturated)
        assert "no finite points" in chart

    def test_render_validates_dimensions(self):
        with pytest.raises(ValueError):
            render_series(self.make_series(), width=4)

    def test_max_delay_clips(self):
        chart = render_series(self.make_series(), max_delay=0.001)
        assert "0.001" in chart
