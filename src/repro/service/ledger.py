"""The one owner of a service job's durable state.

A job lives in two places: its record (``jobs/<id>.json``) and its
queue entry (``queue/{pending,running}/``).  :class:`JobLedger` is the
only code that changes either — for the submission edge, the workers,
the monitor, ``Service.stop``, the chaos drills and ``repro fsck`` — so
one set of orderings holds everywhere: a record is saved before its
entry is written, and before its entry is acked.  Its :meth:`repair`
is the one crash-repair pass; its finding kinds are fsck's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from ..durability.fsck import Finding
from .jobs import JobRecord, JobStore
from .metrics import Counter
from .queue import DiskQueue, Entry, QueueFull


def service_paths(data_dir: Path) -> Dict[str, Path]:
    """The service's on-disk layout, shared by every component."""
    data_dir = Path(data_dir)
    return {
        "data": data_dir,
        "queue": data_dir / "queue",
        "jobs": data_dir / "jobs",
        "store": data_dir / "store",
        "workers": data_dir / "workers",
        "scratch": data_dir / "scratch",
    }


class JobLedger:
    """Every transition of a job's record and queue entry."""

    def __init__(self, jobs: JobStore, queue: DiskQueue) -> None:
        self.jobs = jobs
        self.queue = queue
        #: Jobs the repair pass requeued or failed, by reason.
        self.requeues = Counter("repro_jobs_requeued_total",
                                "Jobs returned to the queue, by reason.")

    @classmethod
    def open(cls, data_dir: Path, max_backlog: int = 64,
             fsync: bool = False, sweep_age: float = 60.0) -> "JobLedger":
        paths = service_paths(data_dir)
        return cls(JobStore(paths["jobs"], fsync=fsync, sweep_age=sweep_age),
                   DiskQueue(paths["queue"], max_backlog=max_backlog,
                             fsync=fsync, sweep_age=sweep_age))

    # -- transitions ---------------------------------------------------------
    def enqueue(self, record: JobRecord,
                previous: Optional[JobRecord] = None) -> None:
        """Save ``record``, then its entry; on :class:`QueueFull`, undo
        the save (restore ``previous``, else remove it) and re-raise."""
        self.jobs.save(record)
        try:
            self.queue.submit(record.id, record.priority)
        except QueueFull:
            if previous is not None:
                self.jobs.save(previous)
            else:
                with contextlib.suppress(OSError):
                    os.unlink(self.jobs.path(record.id))
            raise

    def answered(self, record: JobRecord) -> None:
        """A submission whose artifact exists: ``done``, never queued."""
        record.status = "done"
        record.cache_hit = True
        record.finished_ts = record.submitted_ts
        self.jobs.save(record)

    def claim(self) -> Optional[Tuple[Entry, JobRecord]]:
        """Claim the best pending entry with its record (``None`` when
        the queue is empty); an entry whose record is gone is dropped."""
        while True:
            entry = self.queue.claim()
            if entry is None:
                return None
            record = self.jobs.load(entry.job)
            if record is not None:
                return entry, record
            self.queue.ack(entry.name)

    def start(self, record: JobRecord, worker: str, pid: int) -> None:
        """Executing: one attempt is charged."""
        record.status = "running"
        record.worker = worker
        record.pid = pid
        record.started_ts = time.time()
        record.attempts += 1
        self.jobs.save(record)

    def finish(self, record: JobRecord, entry: Entry, status: str = "done",
               error: Optional[dict] = None) -> None:
        record.status = status
        record.error = error
        record.finished_ts = time.time()
        self.jobs.save(record)
        self.queue.ack(entry.name)

    def fail(self, record: JobRecord, entry: Entry, error: dict) -> None:
        self.finish(record, entry, "failed", error)

    def requeue(self, record: JobRecord, entry: Entry,
                charge: bool = True) -> None:
        """Back to pending, no worker; uncharged refunds the attempt."""
        if not charge:
            record.attempts = max(0, record.attempts - 1)
        record.status = "queued"
        record.worker = None
        record.pid = None
        self.jobs.save(record)
        self.queue.requeue(entry.name)

    def retry(self, record: JobRecord, entry: Entry, error: dict) -> bool:
        """A charged failure: requeue while attempts remain (``True``),
        else fail with ``error``."""
        if record.attempts >= record.max_attempts:
            self.fail(record, entry, error)
            return False
        self.requeue(record, entry)
        return True

    # -- the crash-repair pass -----------------------------------------------
    def repair(self, apply: bool = False,
               alive: Callable[[JobRecord], bool] = lambda record: False,
               grace: float = 0.0, lease: float = math.inf,
               terminate: Optional[Callable[[str], None]] = None
               ) -> List[Finding]:
        """Settle every entry against its record, reading each record
        once; repairs only with ``apply``.  ``alive(record)``: does its
        worker still run?  ``grace``: the age a fresh claim or an
        entry-less record must reach before it is judged.  ``lease``:
        how long a live worker may hold a claim before
        ``terminate(worker)`` kills it."""
        spool = self.queue.spool
        listed = [(spool.pending_dir, name) for name in spool.pending()] \
            + [(spool.running_dir, name) for name in spool.running()]
        entries = {e.job for e in Entry.parse_all(n for _, n in listed)}
        # Read after the listing: a record saved since may look
        # entry-less (the grace covers it), a listed entry never looks
        # record-less.
        records = {record.id: record for record in self.jobs.all()}
        repairs: List[Finding] = []
        for directory, name in listed:
            entry = Entry.parse(name)
            record = records.get(entry.job) if entry else None
            running = directory == spool.running_dir
            if record is not None:
                if running:
                    repairs += self._settle(entry, record, apply, alive,
                                            grace, lease, terminate)
                continue
            found = Finding("orphan-entry", str(directory / name),
                            "queue entry with no job record")
            repairs.append(found)
            # A pending entry is claimed first, so a worker racing for
            # it wins or loses it whole.
            if apply and (running or spool.claim(name)):
                self.queue.ack(name)
                found.repaired, found.action = True, "removed"
        now = time.time()
        for record in records.values():
            if not record.active or record.id in entries or alive(record):
                continue
            path = self.jobs.path(record.id)
            try:
                if now - path.stat().st_mtime < grace:
                    continue
            except OSError:
                continue
            found = Finding("lost-entry", str(path), f"{record.status} job "
                            f"{record.id} has no queue entry")
            repairs.append(found)
            if apply:
                try:
                    self.enqueue(dataclasses.replace(
                        record, status="queued", worker=None, pid=None),
                        previous=record)
                except QueueFull:
                    continue      # retried next pass
                found.repaired, found.action = True, "re-enqueued"
                self.requeues.inc(reason="entry-lost")
        return repairs

    def _settle(self, entry: Entry, record: JobRecord, apply: bool,
                alive, grace: float, lease: float,
                terminate) -> List[Finding]:
        """Judge one claimed entry whose record exists."""
        found = Finding("dangling-running",
                        str(self.queue.running_dir / entry.name),
                        f"claimed entry for job {record.id} "
                        f"(status {record.status})")
        if not record.active:
            # The worker died between its terminal save and the ack.
            if apply:
                self.queue.ack(entry.name)
                found.repaired, found.action = True, "removed"
            return [found]
        age = self.queue.spool.running_age(entry.name)
        if age is None or record.status == "queued" and age < grace:
            # Settled since the listing, or just claimed: the worker
            # has not saved the record as running, so it names no
            # worker to judge.
            return []
        reason = "worker-lost"
        if alive(record):
            if age <= lease:
                return []
            reason = "lease-expired"
            if apply:
                # Presumed hung: stop it first, or it could still
                # finish the job and ack the next claimer's entry.
                if terminate is not None:
                    terminate(record.worker)
                record = self.jobs.load(entry.job)
                if record is None or not record.active:
                    return []    # it finished before the kill landed
        if apply:
            requeued = self.retry(record, entry, {
                "type": "WorkerLost",
                "message": f"{reason}: worker {record.worker} "
                           f"(pid {record.pid})"})
            found.repaired = True
            found.action = "requeued" if requeued else "failed (WorkerLost)"
            self.requeues.inc(reason=reason if requeued
                              else f"{reason}-failed")
        return [found]

__all__ = ["JobLedger", "service_paths"]
