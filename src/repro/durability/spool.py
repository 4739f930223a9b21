"""The one durable spool: a pending/running directory pair of entries.

The service's job queue (:class:`~repro.service.queue.DiskQueue`) is
built on it, and ``repro fsck`` scans that queue through this class.
The layout::

    <root>/pending/<name>.json     waiting to be claimed
    <root>/running/<name>.json     claimed by some process
    <root>/quarantine/             corrupt records moved aside

An entry is always in exactly one of the two directories, and every
move between them is one atomic ``os.rename``.  So, with no locks and
no daemon, a claim is race-free (of many processes renaming one
pending entry, exactly one succeeds); a dead claimer's entry waits in
``running/`` for the owner's requeue/ack policy; and the directory
listing *is* the spool's state, so a restart recovers it from
filenames alone.  A claim stamps the entry's mtime, so
:meth:`Spool.running_age` is the time since the claim, not since the
write.  Entry names and payloads belong to the client.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, List, Optional

from .faultyfs import NULL_FS
from .records import (quarantine_count, read_or_quarantine, sweep_tmp,
                      write_record)


class Spool:
    """A pending/running spool at ``root`` (see module docstring).  The
    constructor touches nothing on disk (``repro fsck`` scans through
    it read-only); :meth:`open` creates the directories and sweeps
    crash-orphaned tmp files, as its owning store does."""

    def __init__(self, root, fs=NULL_FS, fsync: bool = False) -> None:
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.running_dir = self.root / "running"
        self.fs = fs
        self.fsync = fsync
        #: Orphaned tmp files reclaimed by :meth:`open`.
        self.tmp_swept = 0

    @classmethod
    def open(cls, root, fs=NULL_FS, fsync: bool = False,
             sweep_age: float = 60.0) -> "Spool":
        spool = cls(root, fs, fsync)
        spool.running_dir.mkdir(parents=True, exist_ok=True)
        spool.pending_dir.mkdir(exist_ok=True)
        spool.tmp_swept = sum(
            sweep_tmp(d, max_age=sweep_age)
            for d in (spool.root, spool.pending_dir, spool.running_dir))
        return spool

    # -- listing -------------------------------------------------------------
    @staticmethod
    def _names(directory: Path) -> List[str]:
        try:
            names = [n for n in os.listdir(directory) if n.endswith(".json")]
        except FileNotFoundError:
            return []
        names.sort()
        return names

    def pending(self) -> List[str]:
        """Pending entry names in claim order (sorted)."""
        return self._names(self.pending_dir)

    def running(self) -> List[str]:
        return self._names(self.running_dir)

    # -- transitions ---------------------------------------------------------
    def claim(self, name: str) -> bool:
        """Move one pending entry to ``running/``; False when another
        process won it (or it is gone).  Safe from any number of
        processes at once."""
        running = self.running_dir / name
        try:
            os.rename(self.pending_dir / name, running)
        except OSError:
            return False
        try:
            os.utime(running)     # the lease runs from the claim
        except FileNotFoundError:
            pass                  # already acked or requeued
        return True

    def ack(self, name: str) -> None:
        """The claimed work is finished; drop its entry (idempotent)."""
        (self.running_dir / name).unlink(missing_ok=True)

    def requeue(self, name: str) -> bool:
        """Move a running entry back to pending.  False when it is gone
        (acked or requeued by someone else): requeue races are benign."""
        try:
            os.rename(self.running_dir / name, self.pending_dir / name)
        except OSError:
            return False
        return True

    def running_age(self, name: str) -> Optional[float]:
        """Seconds since the entry was claimed; ``None`` if gone."""
        try:
            claimed = os.stat(self.running_dir / name).st_mtime
        except FileNotFoundError:
            return None
        return max(0.0, time.time() - claimed)

    # -- records -------------------------------------------------------------
    def write(self, path: Path, schema: str, payload: Any,
              exclusive: bool = False) -> bool:
        """:func:`~.records.write_record` under the spool's fault shim
        and fsync policy (``exclusive``: first writer wins)."""
        return write_record(path, schema, payload, fs=self.fs,
                            fsync=self.fsync, exclusive=exclusive)

    def read(self, path: Path, schema: Optional[str] = None) -> Any:
        """Read a record under the spool root; a corrupt one moves into
        ``<root>/quarantine/`` (evidence for ``repro fsck``) and reads
        as missing."""
        return read_or_quarantine(path, schema, root=self.root)

    def quarantined(self) -> int:
        """Corrupt records moved aside so far (counted from disk)."""
        return quarantine_count(self.root)


__all__ = ["Spool"]
