"""Frontier stores: where the BFS keeps its queue, visited set and
bookkeeping — in memory (the default), or in memory and checkpointed
to a spool directory.

:class:`MemoryFrontier` is a deque plus dicts; with POR off its
pop/push order is exactly the pre-POR explorer's BFS, which keeps
``--por off`` bit-identical.

:class:`DiskFrontier` makes a model-check run *resumable*.  It is the
in-memory store plus one file, ``<spool>/checkpoint.json``: the job
meta, the queue in FIFO order, the visited keys with their sleep sets,
the terminals, the proviso entries, the violation and the report's
counters, written as one checksummed record through
:func:`~repro.durability.records.write_record` (a tmp file, then one
atomic rename).  It writes one when it is seeded, when a violation is
stored, when the drain ends, and otherwise at an ack once
:data:`CHECKPOINT_INTERVAL` seconds have passed since the last.  A
resume loads the checkpoint and keeps draining.  Every checkpoint
falls between two settled records and a check is deterministic, so a
kill costs at most one interval of redone work and never changes a
result (``tests/test_frontier_resume.py`` pins this).  A spool pops in
the same order as memory, so the two stores report alike.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from ..common.errors import ReproError
from ..durability.faultyfs import NULL_FS
from ..durability.records import (quarantine_count, read_or_quarantine,
                                 sweep_tmp, write_record)

#: Seconds between two checkpoints written at an ack: about the most
#: work a kill costs.
CHECKPOINT_INTERVAL = 1.0

#: A checkpoint also waits this many times as long as the last one
#: took to write, so writes stay under about 5% of the wall time however
#: large the frontier grows.
CHECKPOINT_STRETCH = 20.0

#: The report counters a checkpoint carries.
_COUNTERS = ("executions", "resumed", "truncated")


#: Signature tuples survive a JSON round-trip as lists; normalise back.
def _sig(raw) -> Tuple:
    return tuple(raw)


def _sleep_set(raw) -> frozenset:
    return frozenset(_sig(s) for s in raw)


def record_name(prefix, full: bool = False) -> str:
    digest = hashlib.sha1(
        json.dumps(list(prefix)).encode()).hexdigest()[:16]
    return f"{len(prefix):05d}-{digest}" + ("-full" if full else "")


def make_record(prefix, sleep=(), parent: Optional[str] = None,
                full: bool = False) -> dict:
    return {"id": record_name(prefix, full), "prefix": tuple(prefix),
            "sleep": tuple(sorted(frozenset(sleep))),
            "parent": parent, "full": full}


def _load_record(payload: dict) -> dict:
    return {"id": payload["id"],
            "prefix": tuple(payload["prefix"]),
            "sleep": tuple(_sig(s) for s in payload["sleep"]),
            "parent": payload["parent"],
            "full": payload["full"]}


class MemoryFrontier:
    """The default store: a deque plus dicts, nothing on disk."""

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._visited: Dict[str, Optional[frozenset]] = {}
        self._terminals: Dict[str, str] = {}
        self._prov: Dict[str, dict] = {}
        self._violation: Optional[dict] = None

    # -- queue ---------------------------------------------------------------
    def seed(self, meta: dict, record: dict) -> bool:
        self._queue.append(record)
        return False          # never a resume

    def queue_empty(self) -> bool:
        return not self._queue

    def backlog(self) -> int:
        """Records a push now would queue behind (pop order is FIFO)."""
        return len(self._queue)

    def push(self, record: dict) -> bool:
        self._queue.append(record)
        return True

    def pop(self) -> Optional[dict]:
        return self._queue.popleft() if self._queue else None

    def ack(self, record: dict) -> None:
        pass

    # -- visited claims ------------------------------------------------------
    def claim(self, key: str, owner: str, sleep) -> str:
        if key in self._visited:
            return "seen"
        self._visited[key] = frozenset(sleep)
        return "new"

    def get_sleep(self, key: str) -> Optional[frozenset]:
        return self._visited.get(key)

    def set_sleep(self, key: str, sleep) -> None:
        self._visited[key] = frozenset(sleep)

    def visited_count(self) -> int:
        return len(self._visited)

    # -- terminal states -----------------------------------------------------
    def terminal(self, record_id: str, key: str) -> None:
        self._terminals[record_id] = key

    def terminal_stats(self) -> Tuple[int, Tuple[str, ...]]:
        return (len(self._terminals),
                tuple(sorted(set(self._terminals.values()))))

    # -- proviso (the ignoring problem) --------------------------------------
    def proviso_open(self, key: str, expect: int, prefix) -> None:
        self._prov.setdefault(key, {
            "expect": expect, "prefix": tuple(prefix),
            "resolved": set(), "fresh": False, "refired": False})

    def proviso_resolve(self, key: str, child_id: str,
                        fresh: bool) -> Optional[tuple]:
        entry = self._prov.get(key)
        if entry is None:
            return None
        entry["resolved"].add(child_id)
        entry["fresh"] = entry["fresh"] or fresh
        if (len(entry["resolved"]) >= entry["expect"]
                and not entry["fresh"] and not entry["refired"]):
            entry["refired"] = True
            return entry["prefix"]
        return None

    # -- violation -----------------------------------------------------------
    def set_violation(self, payload: dict) -> bool:
        if self._violation is None:
            self._violation = payload
            return True
        return False

    def get_violation(self) -> Optional[dict]:
        return self._violation


class DiskFrontier(MemoryFrontier):
    """The in-memory store, checkpointed to ``<root>/checkpoint.json``
    (see the module docstring).  A spool has one owner: the process
    that opened it."""

    def __init__(self, root, fs=NULL_FS, fsync: bool = False) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "checkpoint.json"
        self.fs = fs
        self.fsync = fsync
        # No other process writes here, so every tmp file found on open
        # is a killed run's: swept whatever its age.
        #: Orphaned tmp files reclaimed on open.
        self.tmp_swept = sweep_tmp(self.root, max_age=0.0)
        #: The report whose counters a checkpoint carries and a resume
        #: restores; :func:`~repro.modelcheck.explorer.explore` binds
        #: its own before seeding.
        self.report = SimpleNamespace(executions=0, resumed=0,
                                      truncated=False)
        self._meta: Optional[dict] = None
        self._due = 0.0
        #: Set once a checkpoint holding the violation is written: the
        #: search ended there, so later states are not persisted.
        self._final = False

    def quarantined(self) -> int:
        """Corrupt checkpoints moved aside so far (counted from disk)."""
        return quarantine_count(self.root)

    def seed(self, meta: dict, record: dict) -> bool:
        """Restore the spool's checkpoint, or start the check at
        ``record`` and write its first one.  Returns True when
        resuming.  A checkpoint of another check raises
        :class:`ReproError`; a corrupt one is quarantined and the check
        starts again from ``record``."""
        state = read_or_quarantine(self.path, "frontier-checkpoint",
                                   root=self.root)
        self._meta = meta
        if state is None:
            super().seed(meta, record)
            self.checkpoint()
            return False
        stored = state["meta"]
        differ = sorted(name for name in set(meta) | set(stored)
                        if meta.get(name) != stored.get(name))
        if differ:
            raise ReproError(
                f"spool {self.root} holds another check: "
                + ", ".join(f"{name} {stored.get(name)!r} (this check: "
                            f"{meta.get(name)!r})" for name in differ))
        self._queue.extend(_load_record(raw) for raw in state["queue"])
        self._visited = {key: _sleep_set(sleep)
                         for key, sleep in state["visited"].items()}
        self._terminals = state["terminals"]
        self._prov = {key: dict(entry, prefix=tuple(entry["prefix"]),
                                resolved=set(entry["resolved"]))
                      for key, entry in state["prov"].items()}
        self._violation = state["violation"]
        self._final = self._violation is not None
        for name in _COUNTERS:
            setattr(self.report, name, state["report"][name])
        return True

    def checkpoint(self) -> None:
        """Write the whole frontier as one record, replacing the last
        (a no-op once the violation's checkpoint is written)."""
        if self._final:
            return
        start = time.monotonic()
        write_record(self.path, "frontier-checkpoint", {
            "meta": self._meta,
            "queue": list(self._queue),
            "visited": {key: list(sleep)
                        for key, sleep in self._visited.items()},
            "terminals": self._terminals,
            "prov": {key: dict(entry, resolved=sorted(entry["resolved"]))
                     for key, entry in self._prov.items()},
            "violation": self._violation,
            "report": {name: getattr(self.report, name)
                       for name in _COUNTERS},
        }, fs=self.fs, fsync=self.fsync)
        self._final = self._violation is not None
        now = time.monotonic()
        self._due = now + max(CHECKPOINT_INTERVAL,
                              CHECKPOINT_STRETCH * (now - start))

    def ack(self, record: dict) -> None:
        if time.monotonic() >= self._due:
            self.checkpoint()

    def set_violation(self, payload: dict) -> bool:
        if not super().set_violation(payload):
            return False
        self.checkpoint()         # the last: the search stops here
        return True
