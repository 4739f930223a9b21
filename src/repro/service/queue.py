"""Disk-backed, crash-safe, priority task queue with a bounded backlog.

The queue is a client of :class:`repro.durability.spool.Spool`, where
the claim/ack/requeue protocol lives; entries are tiny files named
``queue/{pending,running}/p<priority>-<seq>-<job id>.json``, whose
payload is a pure function of the name (:func:`entry_rebuild`), so a
rotted entry never strands its job.

Ordering: entries drain lexicographically, and filenames sort by
priority first (``p0`` < ``p1`` < ``p2``), then by a monotonic
submission sequence — strict priority, FIFO within a priority band.

The backlog is bounded: :meth:`DiskQueue.submit` refuses work beyond
``max_backlog`` pending entries by raising :class:`QueueFull`, which
the API layer turns into HTTP 429.  Shedding happens *only* at the
submission edge — once an entry is accepted it is never dropped, only
drained or explicitly failed after its retry budget.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from ..common.errors import ReproError
from ..durability.faultyfs import NULL_FS
from ..durability.spool import Spool
from .jobs import DEFAULT_PRIORITY, PRIORITIES

#: Priority label of each priority number in an entry name.
_PRIORITY_NAMES = {num: label for label, num in PRIORITIES.items()}


class QueueFull(ReproError):
    """The pending backlog is at capacity; the submission was shed."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"backlog full ({depth}/{limit} pending); submission shed")
        self.depth = depth
        self.limit = limit


class Entry:
    """A parsed queue entry filename."""

    __slots__ = ("name", "priority", "seq", "job")

    def __init__(self, name: str) -> None:
        stem = name[:-5] if name.endswith(".json") else name
        prio, seq, job = stem.split("-", 2)
        self.name = name
        self.priority = int(prio[1:])
        self.seq = int(seq)
        self.job = job

    @classmethod
    def parse(cls, name: str) -> Optional["Entry"]:
        """The entry, or ``None`` when ``name`` is not an entry name."""
        try:
            return cls(name)
        except (ValueError, IndexError):
            return None

    @classmethod
    def parse_all(cls, names: Iterable[str]) -> List["Entry"]:
        return [e for e in map(cls.parse, names) if e is not None]


def entry_rebuild(name: str) -> Optional[dict]:
    """A queue entry's payload, recomputed from its filename."""
    entry = Entry.parse(name)
    if entry is None:
        return None
    return {"job": entry.job,
            "priority": _PRIORITY_NAMES.get(entry.priority,
                                            DEFAULT_PRIORITY)}


class DiskQueue:
    """Priority FIFO over a :class:`Spool` (see module docstring)."""

    #: Envelope schema tag of queue entry payloads.
    SCHEMA = "queue-entry"

    def __init__(self, root: Path, max_backlog: int = 64, fs=NULL_FS,
                 fsync: bool = False, sweep_age: float = 60.0) -> None:
        self.spool = Spool.open(root, fs=fs, fsync=fsync,
                                sweep_age=sweep_age)
        self.pending_dir = self.spool.pending_dir
        self.running_dir = self.spool.running_dir
        self.max_backlog = max_backlog
        #: Orphaned tmp files reclaimed when this queue opened (a
        #: crash between an entry's write and its rename leaks one).
        self.tmp_swept = self.spool.tmp_swept
        # Sequence numbers only need to be unique and increasing per
        # submitting process; cross-process ties break on the counter
        # suffix which embeds the pid.
        self._seq = itertools.count()
        self._pid = os.getpid()
        self._lock = threading.Lock()

    # -- introspection -------------------------------------------------------
    def pending(self) -> List[Entry]:
        return Entry.parse_all(self.spool.pending())

    def running(self) -> List[Entry]:
        return Entry.parse_all(self.spool.running())

    def depth(self) -> int:
        return len(self.pending())

    def inflight(self) -> int:
        return len(self.running())

    def depth_by_priority(self) -> Dict[str, int]:
        by_num = Counter(entry.priority for entry in self.pending())
        return {name: by_num[num] for name, num in PRIORITIES.items()}

    # -- producer edge -------------------------------------------------------
    def submit(self, job: str, priority: str = DEFAULT_PRIORITY) -> str:
        """Enqueue ``job``; returns the entry name.

        Raises :class:`QueueFull` when the pending backlog is at
        ``max_backlog`` — the *only* point where work is ever refused.
        """
        prio = PRIORITIES[priority]
        with self._lock:
            depth = self.depth()
            if depth >= self.max_backlog:
                raise QueueFull(depth, self.max_backlog)
            seq = next(self._seq)
            # time_ns keeps ordering sane across submitting processes;
            # the (pid, seq) suffix guarantees uniqueness within one.
            stamp = time.time_ns() // 1_000_000
            name = f"p{prio}-{stamp:015d}{self._pid % 100_000:05d}" \
                   f"{seq:06d}-{job}.json"
            self.spool.write(self.pending_dir / name, self.SCHEMA,
                             {"job": job, "priority": priority})
        return name

    # -- consumer edge -------------------------------------------------------
    def claim(self) -> Optional[Entry]:
        """Claim the best pending entry; ``None`` when the queue is
        empty.  Safe to call concurrently from any number of
        processes."""
        for entry in self.pending():
            if self.spool.claim(entry.name):
                return entry
        return None

    def ack(self, entry_name: str) -> None:
        """The claimed job finished (terminally); drop its entry."""
        self.spool.ack(entry_name)

    def requeue(self, entry_name: str) -> bool:
        """Move a running entry back to pending (worker died/retreated);
        ``False`` when it is already gone."""
        return self.spool.requeue(entry_name)

    def entry_payload(self, directory: Path,
                      entry_name: str) -> Optional[dict]:
        payload = self.spool.read(Path(directory) / entry_name, self.SCHEMA)
        # Missing or corrupt (now quarantined): rebuild from the name.
        return payload if payload is not None else entry_rebuild(entry_name)

    def quarantined(self) -> int:
        """Corrupt entries moved aside so far (derived from disk)."""
        return self.spool.quarantined()
