"""Worker fleet: long-lived processes draining the disk queue.

Each worker is an OS process whose loop is *claim -> execute -> ack*,
every step a transition of :class:`~repro.service.ledger.JobLedger`:

* **claim** — an atomic rename in :class:`~repro.service.queue
  .DiskQueue` (race-free against the rest of the fleet); an entry
  whose record is gone is dropped;
* **execute** — :func:`~repro.service.executor.execute_job`, i.e. the
  repo's existing harness entry points; sweep jobs run the
  crash-resilient :func:`~repro.harness.parallel.run_points`
  deadline/retry/checkpoint loop against the shared point cache;
* **ack** — artifact stored *first*, then the record marked done, then
  the queue entry dropped, in that order: a worker that dies between
  any two steps leaves a state the ledger's repair pass (or the next
  claimer, which checks the artifact store before executing) repairs
  without re-simulating.

Failure bookkeeping: a job that raises is retried up to its record's
``max_attempts`` (the entry goes back to pending); a
:class:`~repro.common.errors.DeadlockError`,
:class:`~repro.common.errors.ModelError` or
:class:`~repro.service.jobs.JobValidationError` (a kind with no
handler) is terminal immediately — all are deterministic, so a retry
can only reproduce them — and a deadlock's structured
:class:`~repro.sim.progress.ProgressDump` rides on the job record for
the status API to serve.

Shutdown is graceful: SIGTERM/SIGINT asks the loop to stop after the
current job, and a SIGTERM that lands *inside* ``run_points`` surfaces
as :class:`~repro.harness.parallel.SweepInterrupted` — the sweep's pool
workers are stopped, its manifest and cache checkpoint are already
flushed, so the worker requeues the job uncharged and a later worker
resumes it from the checkpoint (completed points replay as cache hits).
The processes themselves are a :class:`~repro.common.pool.Fleet`.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..common.errors import DeadlockError, ModelError
from ..common.pool import Fleet, SignalWatch
from ..durability.records import read_or_quarantine, write_record
from ..harness.parallel import SweepInterrupted
from .executor import execute_job
from .jobs import JobRecord, JobValidationError
from .ledger import JobLedger, service_paths
from .queue import Entry
from .store import ArtifactStore

#: Worker heartbeat states.
IDLE, BUSY = "idle", "busy"


class Worker:
    """One worker process's loop (also usable inline from tests)."""

    def __init__(self, data_dir: Path, worker_id: str,
                 poll_interval: float = 0.05,
                 max_backlog: int = 64,
                 handlers: Optional[Dict[str, Callable]] = None,
                 fsync: bool = False) -> None:
        paths = service_paths(data_dir)
        self.worker_id = worker_id
        self.ledger = JobLedger.open(data_dir, max_backlog=max_backlog,
                                     fsync=fsync)
        self.queue = self.ledger.queue
        self.jobs = self.ledger.jobs
        self.store = ArtifactStore(paths["store"], fsync=fsync)
        self.scratch = paths["scratch"]
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.workers_dir = paths["workers"]
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        self.poll_interval = poll_interval
        self.handlers = handlers
        self.stop = False
        self.started_ts = time.time()
        self.busy_seconds = 0.0
        self.jobs_done = 0

    # -- heartbeat -----------------------------------------------------------
    def heartbeat(self, state: str, job: Optional[str] = None) -> None:
        write_record(self.workers_dir / f"{self.worker_id}.json",
                     "heartbeat", {
                         "worker": self.worker_id, "pid": os.getpid(),
                         "state": state, "job": job, "ts": time.time(),
                         "started_ts": self.started_ts,
                         "busy_seconds": self.busy_seconds,
                         "jobs_done": self.jobs_done})

    # -- the loop ------------------------------------------------------------
    def run_one(self, entry: Entry, record: JobRecord) -> None:
        """Execute one claimed job (see :meth:`JobLedger.claim`)."""
        ledger = self.ledger
        if self.store.has(record.id):
            # A previous attempt finished the work but died before its
            # ack; complete the job without executing anything.
            record.cache_hit = True
            ledger.finish(record, entry)
            return
        ledger.start(record, self.worker_id, os.getpid())
        self.heartbeat(BUSY, record.id)
        started = time.time()
        try:
            payload = execute_job(record, self.store, self.scratch,
                                  handlers=self.handlers)
            # The put is inside the try: an ENOSPC/EIO while storing
            # the artifact is a charged retry like any other failure,
            # not a worker crash.
            self.store.put(record.id, payload)
        except SweepInterrupted:
            # Service drain: the sweep already flushed its manifest and
            # cache checkpoint; hand the job back uncharged and stop.
            ledger.requeue(record, entry, charge=False)
            self.stop = True
        except DeadlockError as exc:
            dump = exc.dump.to_dict() if exc.dump is not None else None
            ledger.fail(record, entry, {
                "type": "DeadlockError", "message": str(exc),
                "progress_dump": dump})
        except (ModelError, JobValidationError) as exc:
            # Deterministic model bug or unknown job kind: retrying can
            # never succeed.
            ledger.fail(record, entry, {
                "type": type(exc).__name__, "message": str(exc)})
        except Exception as exc:  # noqa: BLE001 - per-job bookkeeping
            ledger.retry(record, entry, {
                "type": type(exc).__name__, "message": str(exc)})
        else:
            ledger.finish(record, entry)
            self.jobs_done += 1
        finally:
            self.busy_seconds += time.time() - started
            self.heartbeat(IDLE)

    def run(self, max_jobs: Optional[int] = None) -> int:
        """Drain the queue until stopped (or, on the main thread, until
        SIGTERM/SIGINT, after the current job); returns jobs
        completed."""
        self.heartbeat(IDLE)
        done_at_start = self.jobs_done
        watch = SignalWatch(True)
        try:
            while not (self.stop or watch.triggered):
                if max_jobs is not None \
                        and self.jobs_done - done_at_start >= max_jobs:
                    break
                claimed = self.ledger.claim()
                if claimed is None:
                    self.heartbeat(IDLE)
                    if max_jobs is not None:
                        break
                    time.sleep(self.poll_interval)
                    continue
                self.run_one(*claimed)
        finally:
            watch.restore()
        self.heartbeat("stopped")
        return self.jobs_done - done_at_start


def worker_main(data_dir: str, poll_interval: float, fsync: bool,
                worker_id: str) -> None:
    """Entry point of one fleet process (spawn-safe: module level,
    plain arguments)."""
    Worker(Path(data_dir), worker_id, poll_interval=poll_interval,
           fsync=fsync).run()


class WorkerFleet(Fleet):
    """The service's worker processes: a :class:`Fleet` of
    :func:`worker_main`, plus the heartbeats they write."""

    def __init__(self, data_dir: Path, size: int = 2,
                 poll_interval: float = 0.05,
                 fsync: bool = False) -> None:
        super().__init__(worker_main, (str(data_dir), poll_interval, fsync),
                         size=size)
        self.data_dir = Path(data_dir)

    def heartbeats(self) -> List[dict]:
        workers_dir = service_paths(self.data_dir)["workers"]
        beats = map(read_or_quarantine, sorted(workers_dir.glob("*.json")))
        return [beat for beat in beats if beat]
