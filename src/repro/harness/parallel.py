"""Process-pool fan-out for simulation sweeps.

Independent (benchmark, mechanism, SB-size, simpoint) points are
sharded across worker processes; each worker re-creates the runner from
its trace parameters and executes :meth:`Runner.simulate`, which is a
pure function of the point — so the fan-out produces *byte-identical*
results to the serial path (seeds derive from the point, never from
worker identity or scheduling order).

The layer also produces :class:`SweepTelemetry` for every batch:
per-point wall-clock and uops/sec, cache hit/miss counts, and worker
utilization.  Cache misses are simulated; hits are replayed from the
runner's memory/disk cache, so re-running an unchanged figure simulates
zero points.

The fan-out (:func:`repro.common.pool.fan_out`) is crash-resilient: a
point that raises, times out, or kills its worker outright is retried a
bounded number of times and then recorded in a :class:`FailureManifest`
— the sweep finishes every other point.  Each point lands in the
content-addressed disk cache as it finishes, so re-running a partially
failed sweep resumes from the checkpoint: finished points replay as
cache hits and only the failed ones simulate again.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..common.config import SystemConfig
from ..common.errors import ReproError
from ..common.pool import SignalWatch, TaskFailure as PointFailure, fan_out
from ..sim.results import CoreResult, SimResult
from .runner import Point, Runner, _simulate_payload


class SweepInterrupted(ReproError):
    """``run_points`` was stopped by SIGTERM/SIGINT.

    Raised *after* the shutdown work is done: every completed point is
    checkpointed in the runner's cache, unfinished points are recorded
    with kind ``interrupted``, and the :class:`FailureManifest` (when
    requested) is flushed — so an interrupted service drain resumes
    cleanly: a re-run replays the finished points as cache hits and
    only simulates the interrupted remainder.  ``telemetry`` carries
    the batch's partial :class:`SweepTelemetry`.
    """

    def __init__(self, message: str, telemetry=None) -> None:
        super().__init__(message)
        self.telemetry = telemetry


@dataclass
class PointTiming:
    """Telemetry for one executed (cache-miss) point."""

    label: str
    wall_seconds: float
    uops: int

    @property
    def uops_per_sec(self) -> float:
        return self.uops / self.wall_seconds if self.wall_seconds else 0.0


@dataclass
class FailureManifest:
    """Machine-readable record of how a sweep ended.

    Written next to the results whenever a caller asks for one, so a
    partially failed campaign leaves behind exactly which points
    completed, which failed and why, and how far the cache got — the
    resume checkpoint a re-run picks up from.
    """

    failures: List[PointFailure] = field(default_factory=list)
    completed: List[str] = field(default_factory=list)
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict:
        return {"version": 1,
                "ok": self.ok,
                "failures": [f.to_dict() for f in self.failures],
                "completed": self.completed,
                "cache_hits": self.cache_hits}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "FailureManifest":
        data = json.loads(Path(path).read_text())
        manifest = cls(completed=list(data.get("completed", ())),
                       cache_hits=data.get("cache_hits", 0))
        manifest.failures = [PointFailure(**f)
                             for f in data.get("failures", ())]
        return manifest


@dataclass
class SweepTelemetry:
    """What one :func:`run_points` batch did and how fast."""

    workers: int
    points_total: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0
    timings: List[PointTiming] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def simulated(self) -> int:
        return len(self.timings)

    @property
    def busy_seconds(self) -> float:
        """Total simulation time across all workers."""
        return sum(t.wall_seconds for t in self.timings)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock spent simulating."""
        if not self.wall_seconds or not self.workers:
            return 0.0
        return min(1.0, self.busy_seconds
                   / (self.workers * self.wall_seconds))

    @property
    def uops_per_sec(self) -> float:
        """Aggregate simulation throughput over the batch wall-clock."""
        if not self.wall_seconds:
            return 0.0
        return sum(t.uops for t in self.timings) / self.wall_seconds

    def to_dict(self) -> Dict:
        return {
            "workers": self.workers,
            "points_total": self.points_total,
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
            "uops_per_sec": self.uops_per_sec,
            "failures": [f.to_dict() for f in self.failures],
            "points": [
                {"label": t.label, "wall_seconds": t.wall_seconds,
                 "uops": t.uops, "uops_per_sec": t.uops_per_sec}
                for t in self.timings
            ],
        }


def default_workers() -> int:
    """Worker count when the caller does not choose: every core."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_points(runner: Runner, points: List[Point],
               workers: Optional[int] = None,
               timeout: Optional[float] = None,
               retries: int = 1,
               manifest_path=None,
               worker_fn=None,
               graceful_signals: bool = True) -> SweepTelemetry:
    """Execute a batch of points, sharding cache misses across workers.

    Results land in the runner's memory and disk caches, so any figure
    driven afterwards replays them without simulating.  Duplicate
    points (same cache key) are executed once, and the points of one
    workload (bench and simpoint seed) back to back, so each trace is
    generated once per process.

    A point that raises, exceeds ``timeout`` seconds, or kills its
    worker process is retried up to ``retries`` more times and, if it
    still fails, recorded in ``telemetry.failures`` while the rest of
    the batch completes.  When ``manifest_path`` is given a
    :class:`FailureManifest` is written there regardless of outcome.
    ``worker_fn`` substitutes the subprocess entry point (tests use it
    to inject crashing workers); it must accept ``(params, point)`` and
    return ``(result_dict, wall_seconds)``.  A batch with one worker or
    one miss runs in this process through ``runner.simulate``.

    With ``graceful_signals`` (and when running on the main thread),
    SIGTERM/SIGINT stop the sweep *cleanly*: in-flight and queued
    points are recorded with kind ``interrupted``, the manifest (when
    requested) is flushed, and :class:`SweepInterrupted` is raised —
    completed points are already checkpointed in the cache, so a
    re-run resumes instead of restarting.
    """
    if workers is None:
        workers = default_workers()
    if worker_fn is None:
        worker_fn = _simulate_payload
    watch = SignalWatch(graceful_signals)
    start = time.perf_counter()
    telemetry = SweepTelemetry(workers=workers, points_total=len(points))

    def simulate_here(payload):
        t0 = time.perf_counter()
        result = runner.simulate(payload[1])
        return result, time.perf_counter() - t0

    def land(index: int, outcome) -> None:
        if isinstance(outcome, PointFailure):
            telemetry.failures.append(outcome)
            return
        data, sim_seconds = outcome
        # A pool worker hands back the result's dict form.
        result = data if isinstance(data, SimResult) \
            else SimResult.from_dict(data)
        runner.store(todo[index], result)
        telemetry.timings.append(PointTiming(
            todo[index].label(), sim_seconds, result.committed))

    try:
        # Misses grouped by workload, first-request order kept within
        # and across groups: figures ask for a combination's simpoints
        # in alternation, while a runner keeps only its last workload's
        # traces.  Results are pure per point, so only the order moves.
        misses: Dict[Tuple, Dict[Tuple, Point]] = {}
        for pt in points:
            if runner.cached(pt) is not None:
                telemetry.cache_hits += 1
            else:
                misses.setdefault((pt.bench, runner.point_seed(pt)), {}) \
                    .setdefault(runner.point_key(pt), pt)
        todo = [pt for group in misses.values() for pt in group.values()]
        params = runner.params()
        fan_out(worker_fn, [(params, pt) for pt in todo],
                [pt.label() for pt in todo], workers, land,
                timeout=timeout, retries=retries, watch=watch,
                local=simulate_here)
        telemetry.wall_seconds = time.perf_counter() - start
        if manifest_path is not None:
            manifest = FailureManifest(
                failures=list(telemetry.failures),
                completed=[t.label for t in telemetry.timings],
                cache_hits=telemetry.cache_hits)
            manifest.save(manifest_path)
    finally:
        watch.restore()
    if watch.triggered:
        raise SweepInterrupted(
            f"sweep interrupted by {watch.triggered}: "
            f"{telemetry.simulated} point(s) checkpointed, "
            f"{sum(1 for f in telemetry.failures if f.kind == 'interrupted')}"
            f" interrupted", telemetry)
    return telemetry


class _DryRunResult(SimResult):
    """Placeholder handed out while only *collecting* points: any metric
    a figure reads is a positive constant, so derived arithmetic
    (ratios, geomeans, stall fractions) stays finite."""

    def stat(self, key: str, default: float = 0.0) -> float:
        return 1.0

    def sum_stats(self, suffix: str) -> float:
        return 1.0


def _dummy_result() -> SimResult:
    return _DryRunResult(workload="dry-run", mechanism="none", sb_entries=0,
                         cycles=1, cores=[CoreResult(0, 1, 1, {})], stats={},
                         energy=1.0)


class PointCollector(Runner):
    """A dry-run runner that records every point an experiment asks for.

    Driving a figure function with a collector yields the exact point
    set the figure needs — the work-list the parallel fan-out then
    shards — without simulating anything (requests get a placeholder
    result).
    """

    def __init__(self, like: Runner) -> None:
        super().__init__(cache_dir=str(like.cache_dir),
                         use_disk_cache=False, **like.params())
        self.points: List[Point] = []
        self._seen: set = set()

    @property
    def unique_points(self) -> List[Point]:
        return list(self.points)

    def run(self, bench: str, mechanism: str, sb_entries: int,
            config: Optional[SystemConfig] = None, tag: str = "",
            point: int = 0) -> SimResult:
        pt = Point(bench, mechanism, sb_entries, tag, point, config)
        key = self.point_key(pt)
        if key not in self._seen:
            self._seen.add(key)
            self.points.append(pt)
        return _dummy_result()


def collect_points(runner: Runner, experiment, *args, **kwargs
                   ) -> List[Point]:
    """Run ``experiment(collector, ...)`` in dry-run mode and return the
    unique simulation points it requested, in first-request order."""
    collector = PointCollector(runner)
    experiment(collector, *args, **kwargs)
    return collector.unique_points
