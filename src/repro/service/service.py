"""The long-lived simulation service: queue + fleet + store + API.

:class:`Service` wires the subsystem together inside one process:

* the :class:`~repro.service.queue.DiskQueue` and
  :class:`~repro.service.jobs.JobStore` hold all durable state — the
  service process itself is stateless modulo a few monotonic counters,
  so killing and restarting it recovers every accepted job — and only
  their :class:`~repro.service.ledger.JobLedger` changes it;
* a :class:`~repro.service.worker.WorkerFleet` of processes drains the
  queue (their loop is the ``run_points`` machinery);
* a **monitor** thread reaps dead workers, respawns replacements, and
  runs the ledger's crash-repair pass (as ``Service.stop`` and ``repro
  fsck --repair`` do): a SIGKILLed worker costs its job one attempt,
  never the job itself, and a worker whose lease expired is killed
  before its job is requeued;
* a :class:`~repro.service.api.ServiceAPI` thread serves submissions,
  status polls, results, and ``/metrics``.

Dedup happens at the submission edge: the job id is the content digest
of the normalised spec, so a duplicate submission coalesces onto the
live record (active job) or answers instantly from the artifact store
(finished job) — zero points re-simulate either way.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..durability.fsck import Finding
from .api import ServiceAPI
from .jobs import JobRecord, submit_record
from .ledger import JobLedger, service_paths
from .metrics import (Counter, LATENCY_BUCKETS, render_counter_snapshot,
                      render_gauge, render_histogram)
from .queue import QueueFull
from .store import ArtifactStore
from .worker import BUSY, WorkerFleet


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    data_dir: str
    host: str = "127.0.0.1"
    port: int = 0                    # 0 = ephemeral (tests)
    workers: int = 2
    max_backlog: int = 64
    max_attempts: int = 3
    poll_interval: float = 0.05      # worker queue poll
    monitor_interval: float = 0.25   # fleet reap / requeue cadence
    lease_seconds: float = 600.0     # hung-worker kill + requeue
    fsync: bool = False              # fsync durable records + dirs
    tmp_sweep_age: float = 60.0      # orphaned-tmp reclaim age gate
    entry_repair_age: float = 2.0    # lost-entry / fresh-claim grace


def _pid_alive(pid: Optional[int]) -> bool:
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except (OSError, ProcessLookupError):
        return False
    return True


class Service:
    """One service instance (see module docstring)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        paths = service_paths(Path(config.data_dir))
        for path in paths.values():
            path.mkdir(parents=True, exist_ok=True)
        self.paths = paths
        self.ledger = JobLedger.open(paths["data"],
                                     max_backlog=config.max_backlog,
                                     fsync=config.fsync,
                                     sweep_age=config.tmp_sweep_age)
        self.queue = self.ledger.queue
        self.jobs = self.ledger.jobs
        self.store = ArtifactStore(paths["store"], fsync=config.fsync,
                                   sweep_age=config.tmp_sweep_age)
        self.fleet = WorkerFleet(paths["data"], size=config.workers,
                                 poll_interval=config.poll_interval,
                                 fsync=config.fsync)
        self.started_ts = time.time()
        # True in-process counters (everything else derives from disk).
        self.metrics_http_requests = Counter(
            "repro_http_requests_total",
            "HTTP requests served, by method.")
        self.metrics_sheds = Counter(
            "repro_jobs_shed_total",
            "Submissions refused with 429 because the backlog was full.")
        self.metrics_submissions = Counter(
            "repro_job_submissions_total",
            "Job submissions received, by outcome.")
        self._submit_lock = threading.Lock()
        self._stop = threading.Event()
        self._monitor_thread: Optional[threading.Thread] = None
        self._api: Optional[ServiceAPI] = None
        self._api_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Start workers, monitor, and the HTTP API; returns the URL."""
        if self.config.workers:
            self.fleet.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-service-monitor",
            daemon=True)
        self._monitor_thread.start()
        self._api = ServiceAPI(self, host=self.config.host,
                               port=self.config.port)
        self._api_thread = threading.Thread(
            target=self._api.serve_forever, name="repro-service-api",
            daemon=True)
        self._api_thread.start()
        return self._api.url

    @property
    def url(self) -> str:
        if self._api is None:
            raise RuntimeError("service is not started")
        return self._api.url

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        if self._api is not None:
            self._api.shutdown()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=2.0)
        self.fleet.stop(timeout=timeout)
        # One final repair pass so jobs of terminated workers are not
        # stranded in running/ (or left entry-less) across a restart.
        self._repair()

    def drain(self, timeout: float = 60.0,
              poll: float = 0.05) -> bool:
        """Wait until every accepted job reached a terminal state."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.queue.depth() == 0 and self.queue.inflight() == 0:
                return True
            time.sleep(poll)
        return False

    # ------------------------------------------------------------------
    # Submission edge
    # ------------------------------------------------------------------
    def submit(self, kind: str, spec: Dict[str, Any],
               priority: str = "normal") -> Tuple[JobRecord, bool]:
        """Accept (or dedup, or shed) one submission.

        Returns ``(record, created)``; raises
        :class:`~repro.service.jobs.JobValidationError` on a bad spec
        and :class:`~repro.service.queue.QueueFull` on overload.
        """
        jid, fresh = submit_record(kind, spec, priority,
                                   max_attempts=self.config.max_attempts)
        with self._submit_lock:
            existing = self.jobs.load(jid)
            # An active job coalesces; a finished one answers only while
            # its artifact still validates (``has`` quarantines a rotted
            # one), otherwise it falls through and re-executes.
            if existing is not None and (existing.active or (
                    existing.status == "done" and self.store.has(jid))):
                existing.resubmits += 1
                self.jobs.save(existing)
                self.metrics_submissions.inc(
                    outcome="dedup_active" if existing.active
                    else "dedup_done")
                return existing, False
            if self.store.has(jid):
                # The artifact outlived its record (service restarted,
                # or another client's run): answer without executing.
                self.ledger.answered(fresh)
                self.metrics_submissions.inc(outcome="dedup_artifact")
                return fresh, True
            # Fresh work (or a retry of a failed job).  A shed
            # submission leaves no record behind (restoring a prior
            # failed record when overwritten).
            try:
                self.ledger.enqueue(fresh, previous=existing)
            except QueueFull:
                self.metrics_sheds.inc()
                self.metrics_submissions.inc(outcome="shed")
                raise
            self.metrics_submissions.inc(outcome="accepted")
            return fresh, True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.load(job_id)

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.store.get(job_id)

    def list_jobs(self, limit: int = 200) -> List[Dict[str, Any]]:
        records = sorted(self.jobs.all(),
                         key=lambda r: -r.submitted_ts)[:limit]
        return [{"id": r.id, "kind": r.kind, "status": r.status,
                 "priority": r.priority, "attempts": r.attempts,
                 "cache_hit": r.cache_hit, "resubmits": r.resubmits,
                 "latency": r.latency} for r in records]

    # ------------------------------------------------------------------
    # Monitor: dead workers cost attempts, never jobs
    # ------------------------------------------------------------------
    def _worker_alive(self, record: JobRecord) -> bool:
        """Is the worker named on a job record still running?"""
        alive = self.fleet.alive().get(record.worker)
        return _pid_alive(record.pid) if alive is None else alive

    def _repair(self) -> List[Finding]:
        """The ledger's crash repair with this fleet's liveness, grace
        and lease."""
        return self.ledger.repair(
            apply=True, alive=self._worker_alive,
            grace=self.config.entry_repair_age,
            lease=self.config.lease_seconds, terminate=self.fleet.terminate)

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.monitor_interval):
            try:
                if self.config.workers:
                    self.fleet.reap(respawn=not self._stop.is_set())
                self._repair()
            except Exception:    # noqa: BLE001 - monitor must survive
                continue

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _worker_stats(self) -> Dict[str, Any]:
        beats = self.fleet.heartbeats()
        now = time.time()
        alive = []
        busy = 0
        fractions = []
        for beat in beats:
            if beat.get("state") == "stopped" \
                    or not _pid_alive(beat.get("pid")):
                continue
            alive.append(beat)
            if beat.get("state") == BUSY:
                busy += 1
            lifetime = max(1e-6, now - beat.get("started_ts", now))
            busy_seconds = beat.get("busy_seconds", 0.0)
            if beat.get("state") == BUSY:
                busy_seconds += max(0.0, now - beat.get("ts", now))
            fractions.append(min(1.0, busy_seconds / lifetime))
        utilization = (sum(fractions) / len(fractions)) \
            if fractions else 0.0
        return {"alive": len(alive), "busy": busy,
                "utilization": utilization,
                "jobs_done": sum(b.get("jobs_done", 0) for b in beats)}

    def snapshot(self) -> Dict[str, Any]:
        """JSON snapshot of the whole service (the ``/stats`` route)."""
        records = self.jobs.all()
        by_status: Dict[str, int] = {}
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "uptime_seconds": time.time() - self.started_ts,
            "queue": {"depth": self.queue.depth(),
                      "by_priority": self.queue.depth_by_priority(),
                      "inflight": self.queue.inflight(),
                      "max_backlog": self.config.max_backlog},
            "workers": self._worker_stats(),
            "jobs": {"total": len(records), "by_status": by_status,
                     "shed": int(self.metrics_sheds.total())},
            "store": self.store.stats(),
            "durability": self._durability_stats(),
        }

    def _durability_stats(self) -> Dict[str, int]:
        """Quarantined-record and tmp-sweep counts (disk-derived,
        except the sweep counters which are per-open)."""
        return {
            "quarantined_queue": self.queue.quarantined(),
            "quarantined_jobs": self.jobs.quarantined(),
            "quarantined_store": self.store.quarantined(),
            "tmp_swept": self.queue.tmp_swept + self.jobs.tmp_swept
            + self.store.tmp_swept,
            "fsync": int(self.config.fsync),
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition document for ``/metrics``."""
        records = self.jobs.all()
        workers = self._worker_stats()
        store = self.store.stats()
        lines: List[str] = []

        lines += render_gauge(
            "repro_queue_depth",
            "Pending jobs in the backlog, by priority.",
            [({"priority": name}, depth) for name, depth
             in sorted(self.queue.depth_by_priority().items())]
            + [(None, self.queue.depth())])
        lines += render_gauge(
            "repro_queue_backlog_limit",
            "Pending jobs beyond which submissions are shed (429).",
            [(None, self.config.max_backlog)])
        lines += render_gauge(
            "repro_jobs_inflight", "Jobs claimed by a worker right now.",
            [(None, self.queue.inflight())])
        lines += render_gauge(
            "repro_workers_alive", "Live worker processes.",
            [(None, workers["alive"])])
        lines += render_gauge(
            "repro_workers_busy", "Workers executing a job right now.",
            [(None, workers["busy"])])
        lines += render_gauge(
            "repro_worker_utilization",
            "Mean fraction of worker lifetime spent executing jobs.",
            [(None, workers["utilization"])])
        lines += render_gauge(
            "repro_service_uptime_seconds",
            "Seconds since this service process started.",
            [(None, time.time() - self.started_ts)])

        by_kind_status: Dict[Tuple[str, str], int] = {}
        dedup_hits = 0
        points_total = points_hits = points_simulated = 0
        latencies: List[float] = []
        run_seconds: List[float] = []
        for record in records:
            key = (record.kind, record.status)
            by_kind_status[key] = by_kind_status.get(key, 0) + 1
            dedup_hits += record.resubmits + (1 if record.cache_hit
                                              else 0)
            points_total += record.points_total
            points_hits += record.point_cache_hits
            points_simulated += record.points_simulated
            if record.latency is not None:
                latencies.append(record.latency)
            if record.run_seconds is not None:
                run_seconds.append(record.run_seconds)
        lines += render_counter_snapshot(
            "repro_jobs_total", "Jobs by kind and status.",
            [({"kind": kind, "status": status}, count)
             for (kind, status), count in sorted(by_kind_status.items())]
            or [(None, 0)])
        lines += render_counter_snapshot(
            "repro_job_dedup_hits_total",
            "Submissions answered from existing work: coalesced "
            "resubmits plus artifact-store hits.",
            [(None, dedup_hits)])
        lines += render_counter_snapshot(
            "repro_points_total",
            "Simulation points requested by sweep jobs.",
            [(None, points_total)])
        lines += render_counter_snapshot(
            "repro_point_cache_hits_total",
            "Sweep points answered by the shared point cache.",
            [(None, points_hits)])
        lines += render_counter_snapshot(
            "repro_points_simulated_total",
            "Sweep points actually simulated.",
            [(None, points_simulated)])
        lines += render_gauge(
            "repro_cache_hit_rate",
            "Point-level cache hit fraction across all sweep jobs.",
            [(None, points_hits / points_total if points_total else 0.0)])

        lines += self.metrics_sheds.render()
        lines += self.metrics_submissions.render()
        lines += self.ledger.requeues.render()
        lines += self.metrics_http_requests.render()

        lines += render_histogram(
            "repro_job_latency_seconds",
            "Submit-to-finish latency of terminal jobs.",
            latencies, LATENCY_BUCKETS)
        lines += render_histogram(
            "repro_job_run_seconds",
            "Worker execution time of terminal jobs.",
            run_seconds, LATENCY_BUCKETS)

        lines += render_gauge(
            "repro_artifacts", "Artifacts in the shared store.",
            [(None, store["artifacts"])])
        lines += render_gauge(
            "repro_artifact_bytes", "Bytes of stored artifacts.",
            [(None, store["artifact_bytes"])])
        lines += render_gauge(
            "repro_cached_points",
            "Simulation points in the shared point cache.",
            [(None, store["cached_points"])])

        durability = self._durability_stats()
        lines += render_gauge(
            "repro_quarantined_records",
            "Corrupt durable records moved aside for fsck, by area.",
            [({"area": "queue"}, durability["quarantined_queue"]),
             ({"area": "jobs"}, durability["quarantined_jobs"]),
             ({"area": "store"}, durability["quarantined_store"]),
             (None, durability["quarantined_queue"]
              + durability["quarantined_jobs"]
              + durability["quarantined_store"])])
        lines += render_counter_snapshot(
            "repro_tmp_files_swept_total",
            "Orphaned tmp files reclaimed when stores opened.",
            [(None, durability["tmp_swept"])])
        lines += render_gauge(
            "repro_fsync_enabled",
            "Whether durable writes fsync file and directory.",
            [(None, durability["fsync"])])
        return "\n".join(lines) + "\n"
