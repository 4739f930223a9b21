"""Experiment harness: runner, per-figure experiments, parallel sweeps,
text reports."""

from .checks import CheckJob, run_check, run_checks
from .experiments import (MECHS, dse, fig8, fig9, fig10, fig11, fig12,
                          fig13, fig14, fig15, l1d_writes, sb_cost,
                          scaling)
from .parallel import (PointCollector, SweepInterrupted, SweepTelemetry,
                       collect_points, run_points)
from .report import ExperimentResult, render_scurve, render_telemetry
from .runner import Point, Runner, default_runner
from .sweep import FIGURES, SweepFailed, sweep_all, sweep_figure

__all__ = ["MECHS", "dse", "fig8", "fig9", "fig10", "fig11", "fig12",
           "fig13", "fig14", "fig15", "l1d_writes", "sb_cost", "scaling",
           "ExperimentResult", "render_scurve", "render_telemetry",
           "Point", "Runner", "default_runner", "PointCollector",
           "SweepInterrupted", "SweepTelemetry", "collect_points",
           "run_points",
           "FIGURES", "SweepFailed", "sweep_all", "sweep_figure",
           "CheckJob", "run_check", "run_checks"]
