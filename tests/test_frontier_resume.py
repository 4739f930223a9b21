"""Spool-frontier semantics: checkpoints, crash safety and resume.

Mirrors ``test_resilience.py`` for the model checker: a check driven
through a spool directory must survive SIGKILL at an arbitrary instant
— resuming from the spool's checkpoint yields the report of a run that
was never interrupted, counterexample included — and a spooled run
must report exactly what the in-memory one reports.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ReproError
from repro.durability import (FSFaultConfig, FaultyFS, InjectedCrash,
                              read_record)
from repro.modelcheck import DiskFrontier, MemoryFrontier, explore, frontier
from repro.modelcheck.explorer import CheckRunner
from repro.modelcheck.frontier import make_record

_CHILD = """
import sys
from repro.modelcheck import explore, frontier
frontier.CHECKPOINT_INTERVAL = 0.0    # as often as the stretch allows
explore("overlap", "tus", cores=2, lines=2,
        unsound=sys.argv[2] == "1", spool=sys.argv[1])
"""


def _fields(report) -> dict:
    """Every field of a report but its wall time."""
    fields = dataclasses.asdict(report)
    del fields["wall_seconds"]
    return fields


def _resumable(report) -> dict:
    """What a resumed check must reproduce: every field but the wall
    time and ``resumed`` (a kill loses the kept outcomes, so their
    records are replayed instead)."""
    fields = _fields(report)
    del fields["resumed"]
    return fields


def _checkpoint(spool) -> dict:
    return read_record(Path(spool) / "checkpoint.json",
                       "frontier-checkpoint")


def _spawn(spool: Path, unsound: bool) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(spool), "1" if unsound else "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _kill_mid_run(spool: Path, unsound: bool = False,
                  after_executions: int = 5) -> None:
    """Run the child until its spool holds a checkpoint newer than the
    seed's (one counting ``after_executions``), then SIGKILL it.  If
    the child finishes first the resume below degrades to a no-op
    drain, which must still produce identical results."""
    child = _spawn(spool, unsound)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and child.poll() is None:
        state = _checkpoint(spool)
        if state is not None \
                and state["report"]["executions"] >= after_executions:
            break
        time.sleep(0.01)
    child.kill()
    child.wait()


class _Crash(Exception):
    """A simulated process death."""


def _crash_at_ack(monkeypatch, acks: int) -> None:
    """Make the ``acks``-th ack die right after it returns."""
    real = DiskFrontier.ack
    count = [0]

    def ack(self, record):
        real(self, record)
        count[0] += 1
        if count[0] == acks:
            raise _Crash(acks)

    monkeypatch.setattr(DiskFrontier, "ack", ack)


class TestKillResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        reference = explore("overlap", "tus", cores=2, lines=2,
                            spool=tmp_path / "ref")
        assert reference.complete
        spool = tmp_path / "killed"
        _kill_mid_run(spool)
        carried = _checkpoint(spool)["report"]["wall_seconds"]
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          spool=spool)
        assert _resumable(resumed) == _resumable(reference)
        # The killed run's checkpointed time counts towards the check's.
        assert resumed.wall_seconds > carried > 0

    def test_resume_reproduces_the_counterexample(self, tmp_path):
        reference = explore("overlap", "tus", cores=2, lines=2,
                            unsound=True, spool=tmp_path / "ref")
        assert reference.violation is not None
        spool = tmp_path / "killed"
        _kill_mid_run(spool, unsound=True, after_executions=3)
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          unsound=True, spool=spool)
        assert _resumable(resumed) == _resumable(reference)

    @pytest.mark.parametrize("por", ["off", "sleep", "persistent"])
    def test_disk_run_matches_memory_run(self, tmp_path, por):
        # Sleep sets and proviso entries round-trip through the spool,
        # and both stores pop in the same FIFO order.
        for scenario in ("overlap", "sb"):
            memory = explore(scenario, "tus", cores=2, lines=2, por=por)
            disk = explore(scenario, "tus", cores=2, lines=2, por=por,
                           spool=tmp_path / scenario)
            assert memory.complete
            assert _fields(disk) == _fields(memory)

    def test_disk_run_resumes_like_memory_run(self, tmp_path):
        # Both stores serve records by resumption, the same records.
        memory = explore("sb", "tus", cores=2, lines=2)
        disk = explore("sb", "tus", cores=2, lines=2,
                       spool=tmp_path / "spool")
        assert disk.resumed > 0
        assert _fields(disk) == _fields(memory)

    def test_resuming_a_finished_spool_is_a_noop(self, tmp_path,
                                                 monkeypatch):
        spool = tmp_path / "spool"
        first = explore("overlap", "tus", cores=2, lines=2, spool=spool)
        runs = []
        real = CheckRunner.run
        monkeypatch.setattr(CheckRunner, "run", lambda self, *args: (
            runs.append(args) or real(self, *args)))
        again = explore("overlap", "tus", cores=2, lines=2, spool=spool)
        assert runs == []                  # nothing left to expand
        assert _fields(again) == _fields(first)

    def test_spool_of_another_check_is_refused(self, tmp_path, capsys):
        spool = tmp_path / "spool"
        explore("sb", "tus", cores=2, lines=2, spool=spool)
        with pytest.raises(ReproError, match="scenario 'sb'"):
            explore("overlap", "tus", cores=2, lines=2, spool=spool)
        with pytest.raises(ReproError, match="por 'off'") as refused:
            explore("sb", "tus", cores=2, lines=2, por="sleep",
                    spool=spool)
        assert "scenario" not in str(refused.value)
        assert main(["check", "--scenario", "overlap", "--mechanism",
                     "tus", "--cores", "2", "--lines", "2",
                     "--spool", str(spool)]) != 0
        assert "holds another check: scenario 'sb'" in \
            capsys.readouterr().out
        # The spool still holds the sb check, untouched.
        assert _checkpoint(spool)["meta"]["scenario"] == "sb"

    def test_same_machine_spelled_out_is_the_same_check(self, tmp_path):
        spool = tmp_path / "spool"
        first = explore("sb", "tus", cores=2, lines=1, spool=spool)
        again = explore("sb", "tus", cores=2, lines=1, spool=spool,
                        machine={"topology": "p2p", "dir_shards": 1})
        assert _fields(again) == _fields(first)


class TestRestoreMidRun:
    """Crash at an ack, resume from the last checkpoint: the report is
    the uninterrupted one.  The interval is 0 here, so checkpoints
    fall as often as the write-time stretch allows and the crashes
    land at varied distances past one."""

    @pytest.mark.parametrize("por,unsound", [
        ("off", False), ("sleep", False), ("persistent", False),
        ("off", True)])
    def test_crash_at_an_ack_resumes_to_the_same_report(
            self, tmp_path, monkeypatch, por, unsound):
        monkeypatch.setattr(frontier, "CHECKPOINT_INTERVAL", 0.0)
        kwargs = dict(cores=2, lines=2, por=por, unsound=unsound)
        reference = explore("overlap", "tus", **kwargs)
        assert (reference.violation is not None) == unsound
        for acks in (1, 97, 430):
            spool = tmp_path / f"crash-{acks}"
            with monkeypatch.context() as patch:
                _crash_at_ack(patch, acks)
                with pytest.raises(_Crash):
                    explore("overlap", "tus", spool=spool, **kwargs)
            carried = _checkpoint(spool)["report"]["wall_seconds"]
            resumed = explore("overlap", "tus", spool=spool, **kwargs)
            assert _resumable(resumed) == _resumable(reference), acks
            assert resumed.wall_seconds > carried > 0, acks

    def test_state_budget_holds_across_a_resume(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(frontier, "CHECKPOINT_INTERVAL", 0.0)
        kwargs = dict(cores=2, lines=2, max_states=300)
        reference = explore("overlap", "tus", **kwargs)
        assert reference.truncated
        spool = tmp_path / "spool"
        with monkeypatch.context() as patch:
            _crash_at_ack(patch, 150)
            with pytest.raises(_Crash):
                explore("overlap", "tus", spool=spool, **kwargs)
        resumed = explore("overlap", "tus", spool=spool, **kwargs)
        assert (resumed.unique_states, resumed.truncated) == \
            (reference.unique_states, True)
        assert _resumable(resumed) == _resumable(reference)


class TestDiskFrontierUnit:
    def _seeded(self, tmp_path) -> DiskFrontier:
        store = DiskFrontier(tmp_path / "spool")
        resumed = store.seed({"scenario": "sb"}, make_record(()))
        assert resumed is False
        return store

    def test_seed_is_resume_aware(self, tmp_path):
        store = self._seeded(tmp_path)
        fresh = DiskFrontier(store.root)
        assert fresh.seed({"scenario": "sb"}, make_record(())) is True
        assert _checkpoint(store.root)["meta"] == {"scenario": "sb"}
        assert fresh.backlog() == 1

    def test_pop_claims_and_ack_retires(self, tmp_path):
        store = self._seeded(tmp_path)
        record = store.pop()
        assert record["prefix"] == () and store.queue_empty()
        # Popped but not settled: a kill now redoes it.
        assert len(_checkpoint(store.root)["queue"]) == 1
        store.ack(record)
        store.checkpoint()
        assert _checkpoint(store.root)["queue"] == []

    def test_push_reports_whether_it_queued(self, tmp_path):
        # The explorer continues a run only into a child the store
        # took; both stores take every push and pop them FIFO.
        disk = self._seeded(tmp_path)
        memory = MemoryFrontier()
        memory.seed({}, make_record(()))
        for store in (disk, memory):
            assert store.push(make_record((1,))) is True
            assert store.push(make_record((0,))) is True
            assert store.backlog() == 3
            assert [store.pop()["prefix"] for _ in range(3)] == \
                [(), (1,), (0,)]
            assert store.backlog() == 0 and store.pop() is None

    def test_queue_is_kept_in_memory(self, tmp_path, monkeypatch):
        # Pushes and pops touch no disk; a checkpoint writes the queue
        # in FIFO order.
        store = self._seeded(tmp_path)
        writes = []
        real = frontier.write_record
        monkeypatch.setattr(frontier, "write_record", lambda *a, **k: (
            writes.append(a[0]) or real(*a, **k)))
        for branch in range(4):
            assert store.push(make_record((branch,))) is True
        store.pop()
        assert writes == []
        store.checkpoint()
        assert len(writes) == 1
        queue = _checkpoint(store.root)["queue"]
        assert [tuple(raw["prefix"]) for raw in queue] == \
            [(0,), (1,), (2,), (3,)]

    def test_recover_requeues_running_claims(self, tmp_path):
        # A record popped but never acked (a crash) is queued again by
        # the resume: the last checkpoint still holds it.
        store = self._seeded(tmp_path)
        store.pop()
        other = DiskFrontier(store.root)
        assert other.seed({"scenario": "sb"}, make_record(())) is True
        assert other.pop()["prefix"] == ()
        assert other.queue_empty()

    def test_acked_owner_keeps_sleep_set(self, tmp_path):
        store = self._seeded(tmp_path)
        record = store.pop()
        sleep = frozenset({("core", 1, 0, 0, 0)})
        store.claim("k1", record["id"], sleep)
        store.ack(record)
        store.checkpoint()
        resumed = DiskFrontier(store.root)
        resumed.seed({"scenario": "sb"}, make_record(()))
        assert resumed.get_sleep("k1") == sleep
        assert resumed.visited_count() == 1
        assert resumed.claim("k1", "other", ()) == "seen"

    def test_violation_is_first_writer_wins(self, tmp_path):
        store = self._seeded(tmp_path)
        assert store.set_violation({"taken": [1]}) is True
        assert store.set_violation({"taken": [2]}) is False
        assert store.get_violation() == {"taken": [1]}
        # Written at once; the search ended there, so nothing later is.
        assert _checkpoint(store.root)["violation"] == {"taken": [1]}
        store.push(make_record((1,)))
        store.checkpoint()
        assert len(_checkpoint(store.root)["queue"]) == 1

    def test_memory_frontier_mirrors_the_interface(self):
        store = MemoryFrontier()
        store.seed({}, make_record(()))
        record = store.pop()
        assert store.claim("k", record["id"], ()) == "new"
        assert store.claim("k", "other", ()) == "seen"
        store.terminal(record["id"], "k")
        assert store.terminal_stats() == (1, ("k",))


# ----------------------------------------------------------------------
# Crash consistency: a corrupt checkpoint, seed ordering, tmp sweep
# ----------------------------------------------------------------------

class TestFrontierDurability:
    def test_corrupt_record_quarantined_not_crash(self, tmp_path):
        store = DiskFrontier(tmp_path / "spool")
        store.seed({"scenario": "sb"}, make_record(()))
        store.path.write_bytes(b"\xff\x00 not json")
        reopened = DiskFrontier(store.root)
        # Moved aside, not an exception: the check starts over.
        assert reopened.seed({"scenario": "sb"}, make_record(())) is False
        assert reopened.quarantined() == 1
        assert reopened.backlog() == 1
        assert _checkpoint(store.root)["queue"]

    def test_corrupt_checkpoint_restarts_from_the_root(self, tmp_path):
        # Corruption may cost work, never coverage: a torn checkpoint
        # is quarantined and the resume starts from the root.
        reference = explore("overlap", "tus", cores=2, lines=2)
        spool = tmp_path / "spool"
        _kill_mid_run(spool)
        (spool / "checkpoint.json").write_text("{torn")
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          spool=spool)
        assert (spool / "quarantine").is_dir()
        assert (resumed.unique_states, resumed.terminal_fingerprint,
                resumed.complete) == \
            (reference.unique_states, reference.terminal_fingerprint, True)
        assert _resumable(resumed) == _resumable(reference)

    def test_seed_crash_leaves_no_false_commit_point(self, tmp_path):
        # The checkpoint is the resume's commit point: a crash before
        # the seed's lands must leave a spool that starts afresh, never
        # one that "resumes" to an instantly-complete empty run.
        spool = tmp_path / "spool"
        shim = FaultyFS(0, FSFaultConfig(
            ops=("crash-before-rename",), sites=("frontier-checkpoint",),
            site_budget=1))
        store = DiskFrontier(spool, fs=shim)
        with pytest.raises(InjectedCrash):
            store.seed({"scenario": "sb"}, make_record(()))
        assert not (spool / "checkpoint.json").exists()
        fresh = DiskFrontier(spool)
        assert fresh.tmp_swept == 1
        assert fresh.seed({"scenario": "sb"}, make_record(())) is False
        assert (spool / "checkpoint.json").exists()
        assert not fresh.queue_empty()

    def test_tmp_orphans_swept_on_open(self, tmp_path):
        spool = tmp_path / "spool"
        store = DiskFrontier(spool)
        store.seed({}, make_record(()))
        # One owner: a tmp file is a killed run's, however fresh.
        stale = spool / "checkpoint.json.tmp7"
        stale.write_text("partial")
        reopened = DiskFrontier(spool)
        assert reopened.tmp_swept == 1
        assert not stale.exists()
