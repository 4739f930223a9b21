"""Crash resilience of the parallel sweep harness.

The contracts under test: a worker that raises, hangs, or dies outright
costs the sweep exactly its own point (after a bounded retry budget);
every other point completes; the failure manifest records what happened;
and a re-run resumes from the disk-cache checkpoint.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.common import pool
from repro.harness import (Point, Runner, SweepFailed, run_points,
                           sweep_figure)
from repro.harness.parallel import FailureManifest, PointFailure
from repro.harness.runner import _simulate_payload

from .support import process_gone

POISON = ("synth.burst", "tus")


def small_runner(tmp_path, **overrides):
    kwargs = dict(cache_dir=str(tmp_path), st_length=2500, par_length=300,
                  num_cores_parallel=4, simpoints=1, parsec_simpoints=1)
    kwargs.update(overrides)
    return Runner(**kwargs)


def small_points():
    return [Point(b, m, sb) for b in ("synth.burst", "blackscholes")
            for m in ("baseline", "tus") for sb in (32, 114)]


def _is_poison(pt):
    return (pt.bench, pt.mechanism) == POISON


def raising_worker(payload):
    params, pt = payload
    if _is_poison(pt):
        raise ValueError("deliberately broken point")
    return _simulate_payload(payload)


def crashing_worker(payload):
    params, pt = payload
    if _is_poison(pt):
        os._exit(17)   # kills the worker process, breaking the pool
    return _simulate_payload(payload)


def hanging_worker(payload):
    params, pt = payload
    if _is_poison(pt):
        time.sleep(120)
    return _simulate_payload(payload)


class TestRaisingWorker:
    def test_other_points_complete(self, tmp_path):
        runner = small_runner(tmp_path)
        points = small_points()
        telemetry = run_points(runner, points, workers=2, retries=1,
                               worker_fn=raising_worker)
        poison = [pt for pt in points if _is_poison(pt)]
        assert len(telemetry.failures) == len(poison)
        for failure in telemetry.failures:
            assert failure.kind == "error"
            assert "deliberately broken" in failure.message
            assert failure.attempts == 2
        assert telemetry.simulated == len(points) - len(poison)
        for pt in points:
            if not _is_poison(pt):
                assert runner.cached(pt) is not None

    def test_serial_path_guards_too(self, tmp_path):
        runner = small_runner(tmp_path)

        def boom(pt):
            raise RuntimeError("serial boom")
        runner.simulate = boom
        telemetry = run_points(runner,
                               [Point("synth.burst", "baseline", 32)],
                               workers=1)
        assert len(telemetry.failures) == 1
        assert telemetry.failures[0].kind == "error"


class TestSweepStopsBeforeReplay:
    def test_failed_point_is_not_simulated_again(self, tmp_path):
        # With one worker the fan-out runs in this process; the failed
        # point must not be re-simulated by the figure replay, where no
        # timeout or crash isolation guards it.
        runner = small_runner(tmp_path)
        real = runner.simulate
        calls = []

        def flaky(pt):
            calls.append(pt)
            if _is_poison(pt):
                raise ValueError("deliberately broken point")
            return real(pt)
        runner.simulate = flaky
        with pytest.raises(SweepFailed) as err:
            sweep_figure("fig9", runner, workers=1,
                         benches=["synth.burst"],
                         manifest_path=tmp_path / "manifest.json")
        assert len([pt for pt in calls if _is_poison(pt)]) == 1
        assert "1 point(s) failed" in str(err.value)
        assert "manifest at" in str(err.value)
        telemetry = err.value.telemetry
        assert [f.kind for f in telemetry.failures] == ["error"]
        assert telemetry.simulated == len(calls) - 1
        assert not FailureManifest.load(tmp_path / "manifest.json").ok


class SubmitBreaksOnPoison(ProcessPoolExecutor):
    """The sweep's shared pool, broken at the moment a poison point is
    submitted: what ``run_points`` sees when a worker died after its
    last wait.  Single-worker isolation pools run the point for real
    (and crash on it)."""

    def submit(self, fn, payload):
        if self._max_workers > 1 and _is_poison(payload[1]):
            raise BrokenProcessPool("injected at submit")
        return super().submit(fn, payload)


class TestCrashingWorker:
    def test_sweep_survives_broken_pool(self, tmp_path, monkeypatch):
        # The pool breaks at submit, deterministically: a crash seen by
        # wait() would race the next submit.
        monkeypatch.setattr(pool, "ProcessPoolExecutor",
                            SubmitBreaksOnPoison)
        runner = small_runner(tmp_path)
        points = small_points()
        telemetry = run_points(runner, points, workers=2, retries=1,
                               worker_fn=crashing_worker,
                               manifest_path=tmp_path / "manifest.json")
        poison = [pt for pt in points if _is_poison(pt)]
        kinds = {f.kind for f in telemetry.failures}
        assert kinds == {"crash"}
        assert len(telemetry.failures) == len(poison)
        # Every innocent point still produced a result.
        for pt in points:
            if not _is_poison(pt):
                assert runner.cached(pt) is not None, pt.label()
        manifest = FailureManifest.load(tmp_path / "manifest.json")
        assert not manifest.ok
        assert len(manifest.failures) == len(poison)
        assert set(manifest.completed) == {
            pt.label() for pt in points if not _is_poison(pt)}

    def test_rerun_resumes_from_checkpoint(self, tmp_path):
        runner = small_runner(tmp_path)
        points = small_points()
        run_points(runner, points, workers=2, retries=0,
                   worker_fn=crashing_worker)
        # Second run with a healthy worker: survivors replay from the
        # disk cache, only the previously failed points simulate.
        rerun = run_points(small_runner(tmp_path), points, workers=2)
        poison = [pt for pt in points if _is_poison(pt)]
        assert rerun.cache_hits == len(points) - len(poison)
        assert rerun.simulated == len(poison)
        assert not rerun.failures


class TestHangingWorker:
    def test_timeout_recorded_and_sweep_finishes(self, tmp_path):
        runner = small_runner(tmp_path)
        points = small_points()
        telemetry = run_points(runner, points, workers=2, retries=0,
                               timeout=15.0, worker_fn=hanging_worker)
        poison = [pt for pt in points if _is_poison(pt)]
        assert {f.kind for f in telemetry.failures} == {"timeout"}
        assert len(telemetry.failures) == len(poison)
        for pt in points:
            if not _is_poison(pt):
                assert runner.cached(pt) is not None, pt.label()


def pid_then_hang(path):
    with open(path, "w") as handle:
        handle.write(str(os.getpid()))
    time.sleep(120)


def sleep_for(seconds):
    """Sleep ``seconds`` and return them; ``None`` hangs."""
    time.sleep(120 if seconds is None else seconds)
    return seconds


def _count_pools(monkeypatch) -> list:
    sizes, real = [], pool._new_pool
    monkeypatch.setattr(pool, "_new_pool",
                        lambda size: sizes.append(size) or real(size))
    return sizes


class TestTimedOutWorker:
    def test_worker_is_gone_when_fan_out_returns(self, tmp_path):
        paths = [str(tmp_path / f"task{i}.pid") for i in range(2)]
        outcomes = {}
        pool.fan_out(pid_then_hang, paths, ["a", "b"], workers=2,
                     emit=outcomes.__setitem__, timeout=1.0)
        assert [outcomes[i].kind for i in range(2)] == ["timeout"] * 2
        for path in paths:
            with open(path) as handle:
                assert process_gone(int(handle.read()))

    def test_tasks_hung_together_cost_one_rebuild(self, monkeypatch):
        # Their deadlines are a submit apart: the second is within the
        # margin when the first expires, so both are charged at once
        # instead of the second restarting for another full timeout.
        pools = _count_pools(monkeypatch)
        outcomes = {}
        pool.fan_out(sleep_for, [None, None], ["a", "b"], workers=2,
                     emit=outcomes.__setitem__, timeout=1.0)
        assert [outcomes[i].kind for i in range(2)] == ["timeout"] * 2
        assert len(pools) == 2          # the first pool and one rebuild

    def test_survivor_far_from_its_deadline_is_not_charged(self,
                                                          monkeypatch):
        # "b" ends at 0.5 s and "c" takes its slot, so "c" is about
        # half way through its budget when "a" expires at 1.0 s: the
        # rebuild resubmits it uncharged, and its rerun succeeds.
        pools = _count_pools(monkeypatch)
        outcomes = {}
        pool.fan_out(sleep_for, [None, 0.5, 0.7], ["a", "b", "c"],
                     workers=2, emit=outcomes.__setitem__, timeout=1.0)
        assert outcomes[0].kind == "timeout"
        assert (outcomes[1], outcomes[2]) == (0.5, 0.7)
        assert len(pools) == 2


class TestFailureManifest:
    def test_round_trip(self, tmp_path):
        manifest = FailureManifest(
            failures=[PointFailure("a/tus/sb32", "crash", "died", 2)],
            completed=["b/tus/sb32"], cache_hits=3)
        path = tmp_path / "m.json"
        manifest.save(path)
        clone = FailureManifest.load(path)
        assert clone.to_dict() == manifest.to_dict()
        assert not clone.ok
        assert clone.failures[0].kind == "crash"

    def test_ok_when_empty(self, tmp_path):
        manifest = FailureManifest(completed=["x"], cache_hits=1)
        assert manifest.ok
        path = tmp_path / "ok.json"
        manifest.save(path)
        assert FailureManifest.load(path).ok

    def test_written_on_green_sweeps_too(self, tmp_path):
        runner = small_runner(tmp_path)
        point = Point("synth.burst", "baseline", 32)
        run_points(runner, [point], workers=1,
                   manifest_path=tmp_path / "green.json")
        manifest = FailureManifest.load(tmp_path / "green.json")
        assert manifest.ok
        assert manifest.completed == [point.label()]

    def test_telemetry_export_includes_failures(self, tmp_path):
        runner = small_runner(tmp_path)
        telemetry = run_points(runner, small_points(), workers=2,
                               retries=0, worker_fn=raising_worker)
        data = telemetry.to_dict()
        assert data["failures"]
        assert {"label", "kind", "message", "attempts"} <= set(
            data["failures"][0])
