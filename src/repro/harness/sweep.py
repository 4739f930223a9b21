"""Figure-level sweep orchestration over the parallel harness.

A sweep regenerates a figure in three steps:

1. *collect* — drive the figure function with a dry-run
   :class:`~repro.harness.parallel.PointCollector` to enumerate the
   exact simulation points it needs;
2. *fan out* — shard the cache-missing points across worker processes
   (:func:`~repro.harness.parallel.run_points`), landing results in the
   runner's cache;
3. *replay* — drive the figure function again with the real (now warm)
   runner, which simulates nothing.  When a point failed in step 2 the
   replay would simulate it again in this process, with no timeout and
   no crash isolation, so the sweep raises :class:`SweepFailed` instead.

Because step 2 executes the same pure per-point path as a serial run,
the figure's numbers are identical either way; only the wall-clock
changes.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Tuple

from ..common.errors import ReproError
from ..workloads import profile
from .parallel import SweepTelemetry, collect_points, run_points
from .report import ExperimentResult
from .runner import Runner
from . import experiments

#: Every sweepable experiment, in the paper's order.  ``sbcost`` is
#: static (no simulation) and therefore not listed here.
FIGURES = {
    "fig8": experiments.fig8,
    "fig9": experiments.fig9,
    "fig10": experiments.fig10,
    "fig11": experiments.fig11,
    "fig12": experiments.fig12,
    "fig13": experiments.fig13,
    "fig14": experiments.fig14,
    "fig15": experiments.fig15,
    "writes": experiments.l1d_writes,
    "dse": experiments.dse,
}


class SweepFailed(ReproError):
    """Points of a sweep failed, so no figure was replayed.

    ``telemetry`` carries the batch's :class:`SweepTelemetry`; its
    ``failures`` name the points.  Every other point is checkpointed in
    the runner's cache, so a re-run simulates only the failed ones.
    """

    def __init__(self, message: str, telemetry: SweepTelemetry) -> None:
        super().__init__(message)
        self.telemetry = telemetry


def _prefill(runner: Runner, points, workers: Optional[int],
             manifest_path) -> SweepTelemetry:
    """Step 2 of a sweep; raises :class:`SweepFailed` when any point
    failed, before the caller replays."""
    telemetry = run_points(runner, points, workers=workers,
                           manifest_path=manifest_path)
    if telemetry.failures:
        failed = ", ".join(f.label for f in telemetry.failures[:4])
        message = f"{len(telemetry.failures)} point(s) failed ({failed})"
        if manifest_path is not None:
            message += f"; manifest at {manifest_path}"
        raise SweepFailed(message, telemetry)
    return telemetry


def figure_kwargs(name: str, benches: Optional[List[str]]) -> Dict:
    """Map a flat benchmark list onto a figure function's signature.

    Figures split their benchmark selection differently (``benches``,
    ``all_benches``, ``parsec_benches``); route each suite's names to
    the parameters the function actually takes.
    """
    if benches is None:
        return {}
    params = inspect.signature(FIGURES[name]).parameters
    parsec = [b for b in benches if profile(b).suite == "parsec"]
    single = [b for b in benches if profile(b).suite != "parsec"]
    kwargs: Dict = {}
    if "parsec_benches" in params:
        kwargs["parsec_benches"] = parsec
        kwargs["benches"] = single
    else:
        kwargs["benches"] = benches
    if "all_benches" in params:
        kwargs["all_benches"] = benches
    return kwargs


def sweep_figure(name: str, runner: Runner,
                 workers: Optional[int] = None,
                 benches: Optional[List[str]] = None,
                 manifest_path=None
                 ) -> Tuple[List[ExperimentResult], SweepTelemetry]:
    """Regenerate one figure through the parallel harness.

    Returns the figure's experiment results (one or more tables) and
    the batch telemetry.  When ``manifest_path`` is given, the
    batch's :class:`~repro.harness.parallel.FailureManifest` is
    written there.  Raises :class:`SweepFailed` when any point failed.
    """
    if name not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {name!r} (known: {known})")
    fn = FIGURES[name]
    kwargs = figure_kwargs(name, benches)
    points = collect_points(runner, fn, **kwargs)
    telemetry = _prefill(runner, points, workers, manifest_path)
    output = fn(runner, **kwargs)
    results = list(output.values()) if isinstance(output, dict) \
        else [output]
    return results, telemetry


def sweep_all(runner: Runner, workers: Optional[int] = None
              ) -> Tuple[Dict[str, List[ExperimentResult]], SweepTelemetry]:
    """Prefill the cache for every figure in one fan-out batch.

    All figures' points are collected first and deduplicated by cache
    key, so shared points (the baselines) simulate once.  Raises
    :class:`SweepFailed` when any point failed.
    """
    points = []
    for name, fn in FIGURES.items():
        points.extend(collect_points(runner, fn))
    telemetry = _prefill(runner, points, workers, None)
    outputs: Dict[str, List[ExperimentResult]] = {}
    for name, fn in FIGURES.items():
        output = fn(runner)
        outputs[name] = list(output.values()) \
            if isinstance(output, dict) else [output]
    return outputs, telemetry
