"""The parallel experiment harness: fan-out, caching, telemetry.

The contract under test: sharding simulation points across worker
processes is invisible in the results (byte-identical to the serial
path), a warm cache simulates nothing, and the telemetry accounts for
every point.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.harness import (FIGURES, Point, Runner, SweepInterrupted,
                           collect_points, fig9, run_points, sweep_figure)
from repro.harness.parallel import (FailureManifest, PointCollector,
                                    default_workers)
from repro.harness.report import render_telemetry
from repro.harness.runner import _simulate_payload

SMALL = ["synth.burst", "synth.scatter"]


def small_runner(tmp_path, **overrides):
    kwargs = dict(cache_dir=str(tmp_path), st_length=2500, par_length=300,
                  num_cores_parallel=4, simpoints=1, parsec_simpoints=1)
    kwargs.update(overrides)
    return Runner(**kwargs)


def small_points():
    return [Point(b, m, sb) for b in ("synth.burst", "blackscholes")
            for m in ("baseline", "tus") for sb in (32, 114)]


class TestFanOut:
    def test_parallel_results_byte_identical_to_serial(self, tmp_path):
        points = small_points()
        serial = small_runner(tmp_path / "serial", use_disk_cache=False)
        parallel = small_runner(tmp_path / "par", use_disk_cache=False)
        expected = {serial.point_key(p): serial.simulate(p)
                    for p in points}
        telemetry = run_points(parallel, points, workers=4)
        assert telemetry.simulated == len(points)
        for point in points:
            got = parallel.cached(point)
            want = expected[parallel.point_key(point)]
            assert got.canonical_json() == want.canonical_json()

    def test_warm_cache_rerun_simulates_nothing(self, tmp_path):
        runner = small_runner(tmp_path)
        points = small_points()
        cold = run_points(runner, points, workers=2)
        assert cold.simulated == len(points)
        warm = run_points(runner, points, workers=2)
        assert warm.simulated == 0
        assert warm.cache_hits == len(points)
        # A fresh runner on the same disk cache also simulates nothing.
        rerun = run_points(small_runner(tmp_path), points, workers=2)
        assert rerun.simulated == 0

    def test_duplicate_points_simulated_once(self, tmp_path):
        runner = small_runner(tmp_path)
        point = Point("synth.burst", "baseline", 114)
        telemetry = run_points(runner, [point, point, point], workers=2)
        assert telemetry.points_total == 3
        assert telemetry.simulated == 1

    def test_deterministic_per_point_seeds(self, tmp_path):
        runner = small_runner(tmp_path, use_disk_cache=False)
        a = runner.simulate(Point("synth.burst", "baseline", 114, point=0))
        b = runner.simulate(Point("synth.burst", "baseline", 114, point=1))
        c = runner.simulate(Point("synth.burst", "baseline", 114, point=0))
        assert a.cycles != b.cycles          # different simpoint seeds
        assert a.canonical_json() == c.canonical_json()

    def test_pool_worker_reuses_its_traces(self, tmp_path, monkeypatch):
        """A pool worker keeps one runner, so the five fig9 mechanisms
        of one bench generate its trace once per worker, not once per
        point, with the results of a serial run."""
        import repro.harness.runner as runner_module
        from repro.harness.experiments import MECHS
        log = tmp_path / "made.log"
        real = runner_module.make_trace

        def spy(*args):         # inherited by the forked pool workers
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(runner_module, "make_trace", spy)
        monkeypatch.setattr(runner_module, "_WORKER_RUNNER", None)
        points = [Point("502.gcc2", mech, 114) for mech in MECHS]
        pooled = small_runner(tmp_path / "pooled", use_disk_cache=False)
        telemetry = run_points(pooled, points, workers=2)
        assert telemetry.simulated == len(points)
        pids = log.read_text().split()
        assert 1 <= len(pids) <= 2
        assert len(set(pids)) == len(pids)      # once per worker
        serial = small_runner(tmp_path / "serial", use_disk_cache=False)
        run_points(serial, points, workers=1)
        assert [pooled.cached(pt).canonical_json() for pt in points] == \
            [serial.cached(pt).canonical_json() for pt in points]


class TestTelemetry:
    def test_accounts_for_every_point(self, tmp_path):
        runner = small_runner(tmp_path)
        points = small_points()
        run_points(runner, points[:3], workers=2)
        telemetry = run_points(runner, points, workers=2)
        assert telemetry.points_total == len(points)
        assert telemetry.cache_hits == 3
        assert telemetry.simulated == len(points) - 3
        assert 0.0 <= telemetry.utilization <= 1.0
        assert telemetry.uops_per_sec > 0
        assert all(t.wall_seconds >= 0 and t.uops > 0
                   for t in telemetry.timings)

    def test_render_and_export(self, tmp_path):
        from repro.harness.export import telemetry_to_json
        runner = small_runner(tmp_path)
        telemetry = run_points(
            runner, [Point("synth.burst", "tus", 32)], workers=1)
        text = render_telemetry(telemetry)
        assert "cache hits" in text and "utilization" in text
        out = tmp_path / "telemetry.json"
        telemetry_to_json(telemetry, out)
        import json
        data = json.loads(out.read_text())
        assert data["simulated"] == 1
        assert data["points"][0]["label"] == "synth.burst/tus/sb32"


class TestPointCollection:
    def test_collector_simulates_nothing(self, tmp_path):
        runner = small_runner(tmp_path)
        collector = PointCollector(runner)
        result = collector.run("synth.burst", "baseline", 114)
        assert result.cycles == 1           # placeholder, not a simulation
        assert collector.points == [Point("synth.burst", "baseline", 114)]

    def test_fig9_points_cover_matrix(self, tmp_path):
        runner = small_runner(tmp_path)
        points = collect_points(runner, fig9, benches=SMALL)
        combos = {(p.bench, p.mechanism, p.sb_entries) for p in points}
        assert combos == {(b, m, 114) for b in SMALL
                          for m in ("baseline", "ssb", "csb", "spb", "tus")}

    def test_every_figure_collects_points(self, tmp_path):
        runner = small_runner(tmp_path)
        for name, fn in FIGURES.items():
            from repro.harness.sweep import figure_kwargs
            kwargs = figure_kwargs(name, SMALL + ["blackscholes"])
            points = collect_points(runner, fn, **kwargs)
            assert points, f"{name} collected no points"


class TestSweepFigure:
    def test_matches_serial_figure(self, tmp_path):
        parallel = small_runner(tmp_path / "a")
        serial = small_runner(tmp_path / "b")
        results, telemetry = sweep_figure("fig9", parallel, workers=2,
                                          benches=SMALL)
        direct = fig9(serial, benches=SMALL)
        assert results[0].rows == direct.rows
        assert results[0].summary == direct.summary
        assert telemetry.points_total == telemetry.simulated \
            + telemetry.cache_hits

    def test_unknown_figure_raises(self, tmp_path):
        with pytest.raises(KeyError):
            sweep_figure("fig99", small_runner(tmp_path))

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock speedup needs >=4 real cores")
def test_fanout_at_least_2x_faster_with_4_workers(tmp_path):
    """Acceptance: >=4 workers beat the serial path by >=2x wall-clock
    on a figure-sized batch (only meaningful on a multicore host)."""
    import time
    points = [Point(b, m, sb) for b in ("synth.burst", "synth.scatter")
              for m in ("baseline", "ssb", "csb", "spb", "tus")
              for sb in (32, 114)]
    serial = small_runner(tmp_path / "s", use_disk_cache=False,
                          st_length=8000)
    t0 = time.perf_counter()
    for point in points:
        serial.simulate(point)
    serial_seconds = time.perf_counter() - t0
    parallel = small_runner(tmp_path / "p", use_disk_cache=False,
                            st_length=8000)
    t0 = time.perf_counter()
    telemetry = run_points(parallel, points, workers=4)
    parallel_seconds = time.perf_counter() - t0
    assert telemetry.simulated == len(points)
    assert parallel_seconds * 2 <= serial_seconds, (
        f"parallel {parallel_seconds:.2f}s vs serial {serial_seconds:.2f}s")


# ----------------------------------------------------------------------
# Graceful SIGTERM/SIGINT shutdown (service drain)
# ----------------------------------------------------------------------

class InterruptingRunner(Runner):
    """Sends SIGTERM to its own process after N completed points —
    a deterministic stand-in for a service drain landing mid-sweep."""

    def __init__(self, kill_after, **kwargs):
        super().__init__(**kwargs)
        self._kill_after = kill_after
        self._done = 0

    def simulate(self, pt):
        result = super().simulate(pt)
        self._done += 1
        if self._done == self._kill_after:
            os.kill(os.getpid(), signal.SIGTERM)
        return result


def sleepy_worker(payload):
    sys.stdout.write("started\n")      # one write: workers share the pipe
    sys.stdout.flush()
    time.sleep(60.0)
    return _simulate_payload(payload)


def sigint_sweep(cache_dir):
    """Subprocess body of the Ctrl-C test: a pooled sweep of stuck
    points that reports the failure kinds it recorded."""
    try:
        run_points(small_runner(cache_dir), small_points(), workers=2,
                   worker_fn=sleepy_worker)
    except SweepInterrupted as exc:
        print(json.dumps([f.kind for f in exc.telemetry.failures]),
              flush=True)


def no_children_within(seconds):
    deadline = time.monotonic() + seconds
    while multiprocessing.active_children() \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    return not multiprocessing.active_children()


class TestGracefulShutdown:
    def test_sigterm_checkpoints_then_raises(self, tmp_path):
        points = small_points()[:4]
        runner = InterruptingRunner(
            2, cache_dir=str(tmp_path), st_length=2500, par_length=300,
            num_cores_parallel=4, simpoints=1, parsec_simpoints=1)
        manifest_path = tmp_path / "manifest.json"
        previous = signal.getsignal(signal.SIGTERM)
        with pytest.raises(SweepInterrupted) as err:
            run_points(runner, points, workers=1,
                       manifest_path=manifest_path)
        # Handlers restored, partial telemetry attached.
        assert signal.getsignal(signal.SIGTERM) is previous
        telemetry = err.value.telemetry
        assert telemetry.simulated == 2
        interrupted = [f for f in telemetry.failures
                       if f.kind == "interrupted"]
        assert len(interrupted) == 2
        # The manifest records the split for the resume.
        manifest = FailureManifest.load(manifest_path)
        assert not manifest.ok
        assert len(manifest.completed) == 2
        assert all(f.kind == "interrupted" for f in manifest.failures)
        # A re-run resumes from the cache checkpoint: the two finished
        # points replay as hits, only the interrupted two simulate.
        resumed = run_points(small_runner(tmp_path), points, workers=1)
        assert resumed.cache_hits == 2
        assert resumed.simulated == 2
        assert not resumed.failures

    def test_sigterm_interrupts_parallel_fanout(self, tmp_path):
        points = small_points()
        runner = small_runner(tmp_path)
        killer = threading.Timer(
            0.4, os.kill, (os.getpid(), signal.SIGTERM))
        killer.start()
        try:
            with pytest.raises(SweepInterrupted) as err:
                run_points(runner, points, workers=2,
                           worker_fn=sleepy_worker)
        finally:
            killer.cancel()
        telemetry = err.value.telemetry
        interrupted = [f for f in telemetry.failures
                       if f.kind == "interrupted"]
        # Signal shutdown is nobody's failure: every point either
        # completed or was recorded interrupted, attempts uncharged.
        assert len(interrupted) == len(telemetry.failures)
        assert interrupted
        assert telemetry.simulated + len(interrupted) == len(points)
        # The stuck workers are stopped, not left to sleep out.
        assert no_children_within(2.0)

    def test_sigint_to_the_group_records_interrupted(self, tmp_path):
        # A terminal's Ctrl-C: SIGINT reaches the sweep and its pool
        # workers at once.  The sweep stops cleanly (nothing is a
        # crash) and leaves no process of its group behind.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "from tests.test_parallel import "
             f"sigint_sweep; sigint_sweep({str(tmp_path)!r})"],
            env=env, cwd=root, stdout=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            assert proc.stdout.readline().strip() == "started"
            os.killpg(proc.pid, signal.SIGINT)
            out, _ = proc.communicate(timeout=20)
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        kinds = json.loads(out.strip().splitlines()[-1])
        assert kinds == ["interrupted"] * len(small_points())

    def test_non_main_thread_runs_unwatched(self, tmp_path):
        runner = small_runner(tmp_path)
        out = {}

        def target():
            out["telemetry"] = run_points(
                runner, [Point("synth.burst", "baseline", 114)],
                workers=1)

        thread = threading.Thread(target=target)
        thread.start()
        thread.join()
        assert out["telemetry"].simulated == 1
        assert not out["telemetry"].failures
