"""Spool-frontier semantics: crash safety and resume.

Mirrors ``test_resilience.py`` for the model checker: a check driven
through a spool directory must survive SIGKILL at an arbitrary instant
— resuming from the spool yields the same verdict, unique-state count
and counterexample as a run that was never interrupted — and a spooled
run must match the in-memory one.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.modelcheck import DiskFrontier, MemoryFrontier, explore
from repro.modelcheck.frontier import make_record

_CHILD = """
import sys
from repro.modelcheck import explore
explore("overlap", "tus", cores=2, lines=2,
        unsound=sys.argv[2] == "1", spool=sys.argv[1])
"""


def _spawn(spool: Path, unsound: bool) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(spool), "1" if unsound else "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _kill_mid_run(spool: Path, unsound: bool = False,
                  after_visited: int = 5) -> None:
    """Run the child until the spool shows real progress, then SIGKILL
    it.  If the child finishes first the resume below degrades to a
    no-op drain, which must still produce identical results."""
    child = _spawn(spool, unsound)
    visited = spool / "visited"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if child.poll() is not None:
            return
        try:
            count = len(os.listdir(visited))
        except FileNotFoundError:
            count = 0
        if count >= after_visited:
            break
        time.sleep(0.01)
    child.kill()
    child.wait()


class TestKillResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        reference = explore("overlap", "tus", cores=2, lines=2,
                            spool=tmp_path / "ref")
        assert reference.complete
        spool = tmp_path / "killed"
        _kill_mid_run(spool)
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          spool=spool)
        assert resumed.complete
        assert resumed.violation is None
        assert resumed.unique_states == reference.unique_states
        assert resumed.terminal_states == reference.terminal_states
        assert resumed.terminal_fingerprint == \
            reference.terminal_fingerprint

    def test_resume_reproduces_the_counterexample(self, tmp_path):
        reference = explore("overlap", "tus", cores=2, lines=2,
                            unsound=True, spool=tmp_path / "ref")
        assert reference.violation is not None
        spool = tmp_path / "killed"
        _kill_mid_run(spool, unsound=True, after_visited=3)
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          unsound=True, spool=spool)
        assert resumed.violation is not None
        assert resumed.violation.invariant == \
            reference.violation.invariant
        assert resumed.violation.schedule == \
            reference.violation.schedule

    @pytest.mark.parametrize("por", ["off", "sleep", "persistent"])
    def test_disk_run_matches_memory_run(self, tmp_path, por):
        # Sleep sets and proviso records round-trip through the spool.
        memory = explore("overlap", "tus", cores=2, lines=2, por=por)
        disk = explore("overlap", "tus", cores=2, lines=2, por=por,
                       spool=tmp_path / "spool")
        assert (disk.unique_states, disk.terminal_fingerprint,
                disk.complete) == \
            (memory.unique_states, memory.terminal_fingerprint, True)

    def test_disk_run_resumes_like_memory_run(self, tmp_path):
        # Both stores serve records by resumption, and with POR off
        # their different pop orders still evaluate the same records.
        memory = explore("sb", "tus", cores=2, lines=2)
        disk = explore("sb", "tus", cores=2, lines=2,
                       spool=tmp_path / "spool")
        assert disk.resumed > 0 and memory.resumed > 0
        assert (disk.executions, disk.unique_states, disk.terminal_states,
                disk.terminal_fingerprint) == \
            (memory.executions, memory.unique_states,
             memory.terminal_states, memory.terminal_fingerprint)

    def test_spool_lists_pending_once_per_record(self, tmp_path,
                                                 monkeypatch):
        from repro.durability.spool import Spool
        listings = [0]
        real = Spool.pending

        def counted(self):
            listings[0] += 1
            return real(self)

        memory = explore("overlap", "tus", cores=2, lines=2)
        monkeypatch.setattr(Spool, "pending", counted)
        disk = explore("overlap", "tus", cores=2, lines=2,
                       spool=tmp_path / "spool")
        # The store lists pending/ when it opens and after a recover;
        # the rest of the run keeps the listing in memory.
        assert listings[0] <= 2
        assert (disk.unique_states, disk.terminal_fingerprint,
                disk.complete) == \
            (memory.unique_states, memory.terminal_fingerprint, True)

    def test_resuming_a_finished_spool_is_a_noop(self, tmp_path):
        spool = tmp_path / "spool"
        first = explore("overlap", "tus", cores=2, lines=2, spool=spool)
        again = explore("overlap", "tus", cores=2, lines=2, spool=spool)
        assert again.complete
        assert again.unique_states == first.unique_states
        assert again.terminal_fingerprint == first.terminal_fingerprint
        assert again.executions <= 1   # nothing left to expand


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
        assert fresh.meta() == {"scenario": "sb"}

    def test_pop_claims_and_ack_retires(self, tmp_path):
        store = self._seeded(tmp_path)
        record = store.pop()
        assert record["prefix"] == ()
        assert store.queue_empty() and store.spool.running()
        store.ack(record)
        assert not store.spool.running()
        # A duplicate push of a finished record is dropped.
        store.push(make_record(()))
        assert store.queue_empty()

    def test_push_reports_whether_it_queued(self, tmp_path):
        # The explorer continues a run only into a child the store
        # took, so a refused duplicate must read as refused.
        store = self._seeded(tmp_path)
        child = make_record((1,))
        assert store.push(child) is True
        assert store.push(child) is False            # already pending
        assert store.backlog() == 2
        store.pop()                                  # the root
        claimed = store.pop()
        assert store.backlog() == 0
        assert store.push(child) is False            # claimed
        store.ack(claimed)
        assert store.push(child) is False            # done
        memory = MemoryFrontier()
        assert memory.push(child) is True and memory.backlog() == 1

    def test_queue_is_kept_in_memory(self, tmp_path, monkeypatch):
        # push answers "already queued?" without touching the disk, and
        # the kept count is exactly what pending/ holds.
        store = self._seeded(tmp_path)
        pending = store.root / "pending"
        real_exists = Path.exists
        probed = []
        monkeypatch.setattr(Path, "exists", lambda self, **kw: (
            probed.append(self) or real_exists(self, **kw)))
        for branch in range(4):
            assert store.push(make_record((branch,))) is True
        assert store.push(make_record((2,))) is False
        assert probed == []
        monkeypatch.undo()
        assert store.backlog() == len(os.listdir(pending)) == 5
        order = [store.pop()["prefix"] for _ in range(3)]
        assert order[0] == ()                       # shallowest first
        assert store.backlog() == len(os.listdir(pending)) == 2
        assert store.queue_empty() is False

    def test_recover_requeues_running_claims(self, tmp_path):
        store = self._seeded(tmp_path)
        store.pop()                      # claimed, never acked (a crash)
        other = DiskFrontier(store.root)
        assert other.recover() == 1
        assert not other.queue_empty()
        # A claim whose ack reached a done log but whose unlink did not
        # (a crash between the two) is dropped, not requeued.
        record = other.pop()
        (store.root / "done-1.log").write_text(record["id"] + "\n")
        assert DiskFrontier(store.root).recover() == 0
        assert other.queue_empty() and not other.spool.running()

    def test_claim_distinguishes_ours_from_seen(self, tmp_path):
        store = self._seeded(tmp_path)
        assert store.claim("k1", "owner-a", ()) == "new"
        assert store.claim("k1", "owner-a", ()) == "ours"
        assert store.claim("k1", "owner-b", ()) == "seen"
        assert store.visited_count() == 1

    def test_acked_owner_keeps_sleep_set(self, tmp_path):
        # A claim is its one visited/k-<key>.json file, before and
        # after its owner is acked.
        store = self._seeded(tmp_path)
        record = store.pop()
        sleep = frozenset({("core", 1, 0, 0, 0)})
        store.claim("k1", record["id"], sleep)
        store.ack(record)
        assert store.get_sleep("k1") == sleep
        assert store.visited_count() == 1
        assert store.claim("k1", "other", ()) == "seen"
        assert os.listdir(store.visited_dir) == ["k-k1.json"]

    def test_visited_set_reads_only_claim_files(self, tmp_path,
                                                monkeypatch):
        store = self._seeded(tmp_path)
        store.claim("k1", "owner-a", ())
        # A stray file beside the claims is no part of the visited set.
        (store.visited_dir / "seg-0.json").write_text(
            '{"keys": {"k2": {"sleep": []}}}')
        globbed, listed, read = [], [], []
        real_glob, real_listdir, real_read = Path.glob, os.listdir, \
            store.spool.read
        monkeypatch.setattr(Path, "glob", lambda self, pattern: (
            globbed.append(pattern) or real_glob(self, pattern)))
        monkeypatch.setattr(os, "listdir", lambda path=".": (
            listed.append(path) or real_listdir(path)))
        monkeypatch.setattr(store.spool, "read", lambda path, *rest: (
            read.append(Path(path).name) or real_read(path, *rest)))
        assert store.claim("k1", "owner-b", ()) == "seen"
        assert store.claim("k2", "owner-b", ()) == "new"
        assert globbed == [] and listed == []       # no directory scan
        assert store.get_sleep("k3") is None
        assert store.visited_count() == 2
        assert globbed == []
        assert all(name.startswith("k-") for name in read)

    def test_violation_is_first_writer_wins(self, tmp_path):
        store = self._seeded(tmp_path)
        assert store.set_violation({"taken": [1]}) is True
        assert store.set_violation({"taken": [2]}) is False
        assert store.get_violation() == {"taken": [1]}

    def test_memory_frontier_mirrors_the_interface(self):
        store = MemoryFrontier()
        store.seed({}, make_record(()))
        record = store.pop()
        assert store.claim("k", record["id"], ()) == "new"
        assert store.claim("k", "other", ()) == "seen"
        store.terminal(record["id"], "k")
        assert store.terminal_stats() == (1, ("k",))


# ----------------------------------------------------------------------
# Crash consistency: corrupt spool records, seed ordering, tmp sweep
# ----------------------------------------------------------------------

from repro.durability import FSFaultConfig, FaultyFS, InjectedCrash


class TestFrontierDurability:
    def test_corrupt_record_quarantined_not_crash(self, tmp_path):
        store = DiskFrontier(tmp_path / "spool")
        store.seed({"scenario": "sb"}, make_record(()))
        victim = next((store.root / "pending").glob("*.json"))
        victim.write_bytes(b"\xff\x00 not json")
        assert store.pop() is None        # skipped, not an exception
        assert store.quarantined() == 1
        qdir = store.root / "quarantine"
        assert sum(1 for p in qdir.iterdir() if p.is_file()) == 1

    def test_corrupt_pending_record_does_not_abort_resume(self, tmp_path):
        spool = tmp_path / "spool"
        _kill_mid_run(spool)
        pendings = sorted((spool / "pending").glob("*.json"))
        if pendings:                      # the child may have finished
            pendings[0].write_text("{torn")
        resumed = explore("overlap", "tus", cores=2, lines=2,
                          spool=spool)
        assert resumed.complete           # quarantine, then carry on
        if pendings:
            assert (spool / "quarantine").is_dir()

    def test_seed_crash_leaves_no_false_commit_point(self, tmp_path):
        # meta.json is the resume commit point, so the root record
        # must be durable first: a crash between the two writes must
        # never produce a spool that "resumes" to an instantly-
        # complete empty run.
        spool = tmp_path / "spool"
        shim = FaultyFS(0, FSFaultConfig(
            ops=("crash-before-rename",), sites=("frontier-meta",),
            site_budget=1))
        store = DiskFrontier(spool, fs=shim)
        with pytest.raises(InjectedCrash):
            store.seed({"scenario": "sb"}, make_record(()))
        assert not (spool / "meta.json").exists()
        assert len(list((spool / "pending").glob("*.json"))) == 1
        fresh = DiskFrontier(spool)
        assert fresh.seed({"scenario": "sb"}, make_record(())) is False
        assert (spool / "meta.json").exists()
        assert not fresh.queue_empty()

    def test_tmp_orphans_swept_on_open(self, tmp_path):
        spool = tmp_path / "spool"
        store = DiskFrontier(spool)
        store.seed({}, make_record(()))
        # One consumer: a tmp file is a killed run's, however fresh.
        stale = spool / "pending" / "x.json.tmp7"
        stale.write_text("partial")
        (spool / "visited" / "k-k1.json.tmp7").write_text("partial")
        reopened = DiskFrontier(spool)
        assert reopened.tmp_swept == 2
        assert not stale.exists()
