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

The fan-out is crash-resilient: a point that raises, times out, or
kills its worker outright is retried a bounded number of times and then
recorded in a :class:`FailureManifest` — the sweep finishes every other
point instead of dying with it.  Because completed results land in the
content-addressed disk cache, re-running the same sweep after a partial
failure resumes from the checkpoint: finished points replay as cache
hits and only the failed ones simulate again.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                TimeoutError as FutureTimeout, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..common.config import SystemConfig
from ..common.errors import ReproError
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


class _SignalWatch:
    """Convert SIGTERM/SIGINT into a cooperative stop flag.

    Handlers are process-global, so they are installed only from the
    main thread (the only place ``signal.signal`` is legal) and the
    previous handlers are restored when the sweep ends — a nested or
    non-main-thread ``run_points`` simply runs unwatched.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self, enabled: bool) -> None:
        self.triggered: Optional[str] = None
        self._previous: Dict[int, object] = {}
        self.installed = False
        if not enabled:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        for sig in self.SIGNALS:
            self._previous[sig] = signal.signal(sig, self._handle)
        self.installed = True

    def _handle(self, signum, frame) -> None:
        self.triggered = signal.Signals(signum).name

    def restore(self) -> None:
        if self.installed:
            for sig, previous in self._previous.items():
                signal.signal(sig, previous)
            self.installed = False


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
class PointFailure:
    """One point that could not be completed within its retry budget."""

    label: str
    kind: str            # "error" | "crash" | "timeout"
    message: str
    attempts: int

    def to_dict(self) -> Dict:
        return {"label": self.label, "kind": self.kind,
                "message": self.message, "attempts": self.attempts}


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
    points (same cache key) are executed once.

    A point that raises, exceeds ``timeout`` seconds, or kills its
    worker process is retried up to ``retries`` more times and, if it
    still fails, recorded in ``telemetry.failures`` while the rest of
    the batch completes.  When ``manifest_path`` is given a
    :class:`FailureManifest` is written there regardless of outcome.
    ``worker_fn`` substitutes the subprocess entry point (tests use it
    to inject crashing workers); it must accept ``(params, point)`` and
    return ``(result_dict, wall_seconds)``.

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
    watch = _SignalWatch(graceful_signals)
    start = time.perf_counter()
    telemetry = SweepTelemetry(workers=workers, points_total=len(points))
    try:
        misses: Dict[Tuple, Point] = {}
        for pt in points:
            if runner.cached(pt) is not None:
                telemetry.cache_hits += 1
            else:
                misses.setdefault(runner.point_key(pt), pt)
        todo = list(misses.values())
        if (len(todo) <= 1 or workers <= 1) \
                and worker_fn is _simulate_payload:
            for index, pt in enumerate(todo):
                if watch.triggered:
                    for rest in todo[index:]:
                        telemetry.failures.append(PointFailure(
                            rest.label(), "interrupted",
                            f"interrupted by {watch.triggered}", 0))
                    break
                t0 = time.perf_counter()
                try:
                    result = runner.simulate(pt)
                except Exception as exc:  # noqa: BLE001 - recorded
                    telemetry.failures.append(PointFailure(
                        pt.label(), "error",
                        f"{type(exc).__name__}: {exc}", 1))
                    continue
                runner.store(pt, result)
                telemetry.timings.append(PointTiming(
                    pt.label(), time.perf_counter() - t0,
                    result.committed))
        elif todo:
            _fan_out(runner, todo, workers, telemetry, timeout, retries,
                     worker_fn, watch)
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


class _Attempt:
    """Book-keeping for one point: failures attributed so far, and the
    wall-clock deadline of its current in-flight run (if any)."""

    __slots__ = ("point", "failures", "deadline")

    def __init__(self, point: Point) -> None:
        self.point = point
        self.failures = 0
        self.deadline: Optional[float] = None


def _fan_out(runner: Runner, todo: List[Point], workers: int,
             telemetry: SweepTelemetry, timeout: Optional[float],
             retries: int, worker_fn,
             watch: Optional[_SignalWatch] = None) -> None:
    """Shard ``todo`` across a process pool, surviving worker failures.

    Three failure classes, all bounded by the per-point retry budget:

    * ``error``   — the worker raised; the exception travels back over
      the future, the point is retried in place, and the pool survives.
    * ``timeout`` — the point exceeded its wall-clock deadline.  A hung
      worker occupies its pool slot indefinitely, so the pool is
      abandoned and rebuilt; the expired point is charged an attempt,
      the other in-flight points are resubmitted uncharged.
    * ``crash``   — a worker process died (``BrokenProcessPool``).  The
      breakage surfaces on *every* outstanding future, so the culprit
      is unidentifiable from the pool; the lost points re-run one at a
      time in throwaway single-worker pools, where a crash implicates
      exactly the point that ran.  Innocent bystanders complete there
      (a deterministic crasher cannot starve them), at the cost of one
      serialized run each.
    """
    params = runner.params()
    max_failures = 1 + max(0, retries)
    size = min(workers, len(todo))
    pool = ProcessPoolExecutor(max_workers=size)
    pending: Dict[object, _Attempt] = {}
    # Only `size` points are ever in flight; the rest wait here.  That
    # keeps per-point deadlines honest: a pending future is (modulo
    # pool-internal latency) actually running, so its deadline measures
    # the point's own wall-clock, not time spent queued behind others.
    backlog: List[_Attempt] = [_Attempt(pt) for pt in todo]

    def record(attempt: _Attempt, kind: str, message: str) -> None:
        telemetry.failures.append(PointFailure(
            attempt.point.label(), kind, message, attempt.failures))

    def complete(attempt: _Attempt, data, sim_seconds: float) -> None:
        result = SimResult.from_dict(data)
        runner.store(attempt.point, result)
        telemetry.timings.append(PointTiming(
            attempt.point.label(), sim_seconds, result.committed))

    def failed(attempt: _Attempt, kind: str, message: str) -> None:
        """Attribute one failure; requeue while budget remains."""
        attempt.failures += 1
        if attempt.failures >= max_failures:
            record(attempt, kind, message)
        else:
            backlog.append(attempt)

    def pump() -> None:
        while backlog and len(pending) < size:
            attempt = backlog.pop(0)
            attempt.deadline = (time.monotonic() + timeout
                                if timeout is not None else None)
            try:
                future = pool.submit(worker_fn, (params, attempt.point))
            except BrokenProcessPool:
                # A worker died since the last wait: the pool refuses
                # new work before any future reports the breakage.
                # Handled like a breakage seen by wait(); the point being
                # submitted re-runs alone too, so every recovery retires
                # at least one point.
                recover(list(pending.values()) + [attempt])
                continue
            pending[future] = attempt

    def recover(lost: List[_Attempt]) -> None:
        """The pool broke: the culprit is unidentifiable from it, so
        the lost points re-run one at a time in isolation, and the pool
        is rebuilt."""
        nonlocal pool
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        for item in lost:
            run_isolated(item)
        pool = ProcessPoolExecutor(max_workers=size)

    def run_isolated(attempt: _Attempt) -> None:
        """Re-run one pool-break casualty alone in a throwaway pool,
        where a crash implicates exactly the point that ran.  Success
        costs nothing (losing a slot to someone else's crash is not
        this point's failure); its own failure is attributed normally.
        """
        solo = ProcessPoolExecutor(max_workers=1)
        try:
            future = solo.submit(worker_fn, (params, attempt.point))
            data, sim_seconds = future.result(timeout=timeout)
        except FutureTimeout:
            failed(attempt, "timeout",
                   f"exceeded {timeout:.1f}s wall-clock")
        except BrokenProcessPool:
            failed(attempt, "crash",
                   "worker process died (BrokenProcessPool)")
        except Exception as exc:  # noqa: BLE001 - per-point record
            failed(attempt, "error", f"{type(exc).__name__}: {exc}")
        else:
            complete(attempt, data, sim_seconds)
        finally:
            solo.shutdown(wait=False, cancel_futures=True)

    def interrupt() -> None:
        """Record every unfinished point as ``interrupted`` (signal
        shutdown is nobody's failure; attempts stay uncharged)."""
        for attempt in list(pending.values()) + backlog:
            telemetry.failures.append(PointFailure(
                attempt.point.label(), "interrupted",
                f"interrupted by {watch.triggered}", attempt.failures))
        pending.clear()
        backlog.clear()

    try:
        pump()
        while pending or backlog:
            if watch is not None and watch.triggered:
                interrupt()
                break
            pump()
            wait_timeout = None
            if timeout is not None:
                wait_timeout = max(0.0, min(a.deadline for a in
                                            pending.values())
                                   - time.monotonic())
            if watch is not None and watch.installed:
                # Wake periodically so a signal that lands while every
                # worker is mid-point still stops the sweep promptly.
                wait_timeout = 0.2 if wait_timeout is None \
                    else min(wait_timeout, 0.2)
            done, _ = wait(pending, timeout=wait_timeout,
                           return_when=FIRST_COMPLETED)
            broken_by: Optional[_Attempt] = None
            for future in done:
                attempt = pending.pop(future)
                try:
                    data, sim_seconds = future.result()
                except BrokenProcessPool:
                    broken_by = attempt
                    break
                except Exception as exc:  # noqa: BLE001 - per point
                    failed(attempt, "error",
                           f"{type(exc).__name__}: {exc}")
                    continue
                complete(attempt, data, sim_seconds)
            if broken_by is not None:
                # The breakage surfaces on every outstanding future.
                recover([broken_by] + list(pending.values()))
                continue
            if timeout is None:
                continue
            now = time.monotonic()
            expired = {f: a for f, a in pending.items()
                       if a.deadline is not None and now >= a.deadline
                       and not f.done()}
            if not expired:
                continue
            # Hung workers hold their slots until the process exits, so
            # the whole pool is abandoned (orphaned workers die when
            # they finish or the interpreter exits) and rebuilt; the
            # non-expired in-flight points go back to the backlog with
            # no failure attributed.
            survivors = [a for f, a in pending.items() if f not in expired]
            pending.clear()
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=size)
            for attempt in expired.values():
                failed(attempt, "timeout",
                       f"exceeded {timeout:.1f}s wall-clock")
            backlog.extend(survivors)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


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
