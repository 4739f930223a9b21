"""The process supervisor: a stopped :class:`Fleet` leaves nothing behind.

A fleet process that is inside a pooled batch when the fleet stops must
take its pool workers with it: SIGTERM interrupts a sweep, which stops
its pool; a process deaf to SIGTERM is SIGKILLed after the grace period
together with its whole process group.
"""

import functools
import os
import signal
import time
from pathlib import Path

from repro.common.pool import Fleet, fan_out
from repro.harness import Point, Runner, run_points

from .support import process_gone


def record_then_hang(pid_dir, payload):
    (Path(pid_dir) / f"pool-{os.getpid()}").touch()
    time.sleep(120)


def pooled_sweep(pid_dir, name):
    """Fleet target: a two-worker sweep of points that never finish."""
    (Path(pid_dir) / f"fleet-{os.getpid()}").touch()
    runner = Runner(cache_dir=str(Path(pid_dir).parent / "cache"),
                    st_length=2500, simpoints=1)
    points = [Point("synth.burst", m, 32) for m in ("baseline", "tus")]
    run_points(runner, points, workers=2,
               worker_fn=functools.partial(record_then_hang, pid_dir))


def deaf_fan_out(pid_dir, name):
    """Fleet target that ignores SIGTERM inside a pooled batch."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    (Path(pid_dir) / f"fleet-{os.getpid()}").touch()
    fan_out(functools.partial(record_then_hang, pid_dir), [0, 1],
            ["a", "b"], 2, lambda index, outcome: None)


def stop_inside_pool(tmp_path, target, timeout):
    """Start one ``target`` process, stop the fleet once its two pool
    workers run, and return every pid involved."""
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    fleet = Fleet(target, (str(pid_dir),))
    fleet.start()
    try:
        deadline = time.monotonic() + 60
        while len(list(pid_dir.glob("pool-*"))) < 2:
            assert time.monotonic() < deadline, "pool never started"
            time.sleep(0.05)
    finally:
        fleet.stop(timeout=timeout)
    assert fleet.alive() == {}
    return [int(path.name.split("-")[1]) for path in pid_dir.iterdir()]


def all_gone(pids, within=5.0):
    """A group SIGKILL lands on the other members asynchronously."""
    deadline = time.monotonic() + within
    while not all(process_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_stop_interrupts_a_pooled_sweep(tmp_path):
    pids = stop_inside_pool(tmp_path, pooled_sweep, timeout=10.0)
    assert len(pids) == 3
    # The sweep stopped its own pool: nothing is left even for a moment.
    assert all(process_gone(pid) for pid in pids)


def test_sigkill_takes_the_whole_group(tmp_path):
    pids = stop_inside_pool(tmp_path, deaf_fan_out, timeout=0.5)
    assert len(pids) == 3
    assert all_gone(pids)
