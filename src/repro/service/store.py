"""Shared content-addressed artifact store.

PR 1's per-runner disk cache promoted to a service-level store with two
layers, both safe under concurrent writers (every write is a private
tmp file + atomic ``os.replace``, so readers never see a torn artifact
and two workers finishing the same content simply overwrite each other
with identical bytes):

* **job artifacts** (``artifacts/<job id>.json``) — the full result
  payload of one job, keyed by the job's content digest.  Because the
  job id hashes the normalised ``(kind, spec)``, *any* client
  resubmitting identical work hits the same artifact: the submission
  completes instantly as a cache hit and simulates nothing.
* **the point cache** (``points/``) — the existing
  :class:`~repro.harness.runner.Runner` content-addressed cache, shared
  by every worker via ``cache_dir``.  Jobs that overlap partially
  (different figures sharing baseline points) dedup at point
  granularity even when their job-level artifacts differ.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional

from ..durability.faultyfs import NULL_FS
from ..durability.records import (quarantine_count, read_or_quarantine,
                                  sweep_tmp, write_record)


class ArtifactStore:
    """Job-level results plus the shared simulation point cache."""

    #: Envelope schema tag of job artifacts.
    SCHEMA = "artifact"

    def __init__(self, root: Path, fs=NULL_FS, fsync: bool = False,
                 sweep_age: float = 60.0) -> None:
        self.root = Path(root)
        self.artifact_dir = self.root / "artifacts"
        self.point_cache_dir = self.root / "points"
        self.artifact_dir.mkdir(parents=True, exist_ok=True)
        self.point_cache_dir.mkdir(parents=True, exist_ok=True)
        self.fs = fs
        self.fsync = fsync
        #: Orphaned tmp files reclaimed when this store opened.
        self.tmp_swept = \
            sweep_tmp(self.artifact_dir, max_age=sweep_age) \
            + sweep_tmp(self.point_cache_dir, max_age=sweep_age)

    # -- job artifacts -------------------------------------------------------
    def path(self, job: str) -> Path:
        return self.artifact_dir / f"{job}.json"

    def has(self, job: str) -> bool:
        """True only when a *valid* artifact exists.

        This is the dedup gate: submissions and claiming workers skip
        execution on it, so it must validate — a bit-rotted artifact
        answered as a cache hit would silently serve garbage forever.
        A corrupt one is quarantined here and the job re-executes.
        """
        return self.get(job) is not None

    def put(self, job: str, payload: Dict[str, Any]) -> Path:
        """Store one job's result payload (atomic, idempotent)."""
        path = self.path(job)
        write_record(path, self.SCHEMA, {"job": job, "stored_ts": time.time(),
                                         "payload": payload},
                     fs=self.fs, fsync=self.fsync)
        return path

    def get(self, job: str) -> Optional[Dict[str, Any]]:
        """The stored payload, or ``None`` when absent/quarantined."""
        doc = read_or_quarantine(self.path(job), self.SCHEMA)
        if doc is None:
            return None
        return doc.get("payload")

    # -- introspection -------------------------------------------------------
    def quarantined(self) -> int:
        """Corrupt artifacts/points moved aside (derived from disk)."""
        return quarantine_count(self.artifact_dir) \
            + quarantine_count(self.point_cache_dir)

    def stats(self) -> Dict[str, int]:
        artifacts = 0
        artifact_bytes = 0
        for path in self.artifact_dir.glob("*.json"):
            try:
                artifact_bytes += path.stat().st_size
            except OSError:
                continue
            artifacts += 1
        points = sum(1 for _ in self.point_cache_dir.glob("*.json"))
        return {"artifacts": artifacts, "artifact_bytes": artifact_bytes,
                "cached_points": points,
                "quarantined": self.quarantined(),
                "tmp_swept": self.tmp_swept}


__all__ = ["ArtifactStore"]
