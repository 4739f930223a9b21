"""Frontier stores: where the BFS keeps its queue, visited set and
bookkeeping — in memory (the default) or on disk (durable).

The disk store makes a model-check run *durable and distributable*.
Its queue is a :class:`repro.durability.spool.Spool` — the one place
the claim (rename) / ack / requeue / recover protocol lives — and the
rest of its state is small record files, created by an atomic rename
or, where first-writer-wins matters, an ``os.link``.  So

* a SIGKILL at any instant loses no work — ``recover()`` renames the
  ``running/`` leftovers back to ``pending/`` and the redo is
  idempotent (record names, visited claims, terminal markers and
  proviso markers are all deterministic functions of their content);
* any number of worker processes can drain the same spool — pending
  claims race on rename, visited claims race on ``O_EXCL`` creation,
  and the first violation wins ``violation.json``.

Determinism: record names are ``<depth>-<sha1(prefix)>``, pending
drains in sorted-name order, and every marker is content-addressed —
so a killed-and-resumed single-worker run visits exactly the states an
uninterrupted run visits (``tests/test_frontier_resume.py`` pins
this).

The in-memory store presents the identical interface over a deque and
dicts; with POR off its pop/push order is exactly the pre-POR
explorer's BFS, which keeps ``--por off`` bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..durability.faultyfs import NULL_FS
from ..durability.records import sweep_tmp
from ..durability.spool import Spool

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


def load_done(root) -> Set[str]:
    """Every record id acked into a ``done-<pid>.log`` under ``root``."""
    done: Set[str] = set()
    for log in Path(root).glob("done-*.log"):
        try:
            done.update(line for line in log.read_text().splitlines()
                        if line)
        except OSError:
            continue
    return done


def _load_record(payload: dict) -> dict:
    return {"id": payload["id"],
            "prefix": tuple(payload["prefix"]),
            "sleep": tuple(_sig(s) for s in payload["sleep"]),
            "parent": payload.get("parent"),
            "full": bool(payload.get("full"))}


class MemoryFrontier:
    """The default store: a deque plus dicts, nothing durable."""

    durable = False

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

    def running_empty(self) -> bool:
        return True

    def push(self, record: dict) -> bool:
        self._queue.append(record)
        return True

    def pop(self) -> Optional[dict]:
        return self._queue.popleft() if self._queue else None

    def ack(self, record: dict) -> None:
        pass

    def recover(self) -> int:
        return 0

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

    # -- worker stats --------------------------------------------------------
    def add_stats(self, label: str, executions: int) -> None:
        pass                  # an in-process report counts its own runs

    def stats_executions(self) -> int:
        return 0


class DiskFrontier:
    """A durable, multi-process frontier over a spool directory."""

    durable = True

    def __init__(self, root, fs=NULL_FS, fsync: bool = False,
                 sweep_age: float = 60.0) -> None:
        self.spool = Spool.open(root, fs=fs, fsync=fsync,
                                sweep_age=sweep_age)
        self.root = self.spool.root
        self.visited_dir = self.root / "visited"
        self.terminal_dir = self.root / "terminals"
        self.prov_dir = self.root / "prov"
        #: Orphaned tmp files reclaimed on open.
        self.tmp_swept = self.spool.tmp_swept
        for directory in (self.visited_dir, self.terminal_dir,
                          self.prov_dir):
            directory.mkdir(exist_ok=True)
            self.tmp_swept += sweep_tmp(directory, max_age=sweep_age)
        self._done = load_done(self.root)
        self._done_log = self.root / f"done-{os.getpid()}.log"
        self._backlog = 0

    def quarantined(self) -> int:
        """Corrupt records moved aside so far (counted from disk)."""
        return self.spool.quarantined()

    # -- queue ---------------------------------------------------------------
    def seed(self, meta: dict, record: dict) -> bool:
        """Write job metadata and the root record, or — when the spool
        already holds a run — recover it instead.  Returns True when
        resuming."""
        meta_path = self.root / "meta.json"
        if meta_path.exists():
            self.recover()
            return True
        # Root record first, meta last: meta.json is the commit point
        # a resume keys on, so it must never exist before the work it
        # promises.  (The reverse order had a crash window that left a
        # spool which "resumed" to an instantly-complete empty run.)
        self.push(record)
        self.spool.write(meta_path, "frontier-meta", meta)
        return False

    def meta(self) -> Optional[dict]:
        return self.spool.read(self.root / "meta.json")

    def queue_empty(self) -> bool:
        return not self.spool.pending()

    def backlog(self) -> int:
        """Pending records: roughly how many pop before one pushed now
        (pending drains in name order, so deeper records wait for the
        shallower ones queued after them).  Counted from the listing
        the last :meth:`pop` made plus this store's pushes since, so it
        costs no listing of its own; a sibling worker's pushes and pops
        since then are not seen."""
        return self._backlog

    def running_empty(self) -> bool:
        return not self.spool.running()

    def push(self, record: dict) -> bool:
        """Queue ``record``; False when it is already queued, claimed or
        done (a crash redo, or a sibling worker's push)."""
        name = record["id"] + ".json"
        if (record["id"] in self._done
                or (self.spool.pending_dir / name).exists()
                or (self.spool.running_dir / name).exists()):
            return False
        payload = dict(record)
        payload["prefix"] = list(record["prefix"])
        payload["sleep"] = [list(s) for s in record["sleep"]]
        self.spool.write(self.spool.pending_dir / name, "frontier-record",
                         payload)
        self._backlog += 1
        return True

    def pop(self) -> Optional[dict]:
        names = self.spool.pending()
        self._backlog = 0
        for index, name in enumerate(names):
            if not self.spool.claim(name):
                continue      # another worker won the claim
            payload = self.spool.read(self.spool.running_dir / name,
                                      "frontier-record")
            if payload is None or payload["id"] in self._done:
                # A stale duplicate of an already-finished record —
                # or a corrupt one, which the read has quarantined
                # (kept for fsck rather than silently unlinked).
                self.spool.ack(name)
                continue
            self._backlog = len(names) - index - 1
            return _load_record(payload)
        return None

    def ack(self, record: dict) -> None:
        self._done.add(record["id"])
        with open(self._done_log, "a") as log:
            log.write(record["id"] + "\n")
        self.spool.ack(record["id"] + ".json")

    def recover(self) -> int:
        """Requeue running leftovers (a killed worker's claims); drop
        those some worker already acked."""
        self._done |= load_done(self.root)
        return self.spool.recover(lambda name: name[:-5] not in self._done)

    # -- visited claims ------------------------------------------------------
    def _claim_path(self, key: str) -> Path:
        return self.visited_dir / f"k-{key}.json"

    def claim(self, key: str, owner: str, sleep) -> str:
        if self._segment_lookup(key) is not None:
            return "seen"     # already compacted: its owner was acked
        payload = {"key": key, "owner": owner,
                   "sleep": [list(s) for s in sorted(frozenset(sleep))]}
        if self.spool.write(self._claim_path(key), "frontier-claim",
                            payload, exclusive=True):
            return "new"
        existing = self.spool.read(self._claim_path(key), "frontier-claim")
        if existing is not None and existing.get("owner") == owner:
            return "ours"     # crash redo of our own expansion
        if existing is None and self._segment_lookup(key) is None:
            # The claim file either raced away (compaction moved it to
            # a segment mid-read) or was corrupt and has just been
            # quarantined; in the latter case the key is unclaimed
            # again — retake it so the state is not silently skipped.
            if self.spool.write(self._claim_path(key), "frontier-claim",
                                payload, exclusive=True):
                return "new"
        return "seen"

    def _records(self, directory: Path, pattern: str = "*.json"):
        """The readable records matching ``pattern`` (a corrupt one is
        quarantined and skipped)."""
        for path in directory.glob(pattern):
            payload = self.spool.read(path)
            if payload is not None:
                yield payload

    def _segment_lookup(self, key: str) -> Optional[dict]:
        for payload in self._records(self.visited_dir, "seg-*.json"):
            if key in payload.get("keys", {}):
                return payload["keys"][key]
        return None

    def get_sleep(self, key: str) -> Optional[frozenset]:
        payload = self.spool.read(self._claim_path(key))
        if payload is None:
            payload = self._segment_lookup(key)
        if payload is None:
            return None
        return _sleep_set(payload.get("sleep", []))

    def set_sleep(self, key: str, sleep) -> None:
        payload = self.spool.read(self._claim_path(key)) \
            or {"key": key, "owner": ""}
        payload["sleep"] = [list(s) for s in sorted(frozenset(sleep))]
        self.spool.write(self._claim_path(key), "frontier-claim", payload)

    def visited_count(self) -> int:
        keys = {name[2:-5] for name in os.listdir(self.visited_dir)
                if name.startswith("k-") and name.endswith(".json")}
        for payload in self._records(self.visited_dir, "seg-*.json"):
            keys.update(payload.get("keys", {}))
        return len(keys)

    def compact_visited(self) -> int:
        """Merge finished visited claims into one segment file (the
        periodic visited-set merge): claims whose owning record has
        been acked can no longer be redone, so their per-file owner
        information is dead weight.  Returns how many claims merged."""
        self._done |= load_done(self.root)
        merged: Dict[str, dict] = {}
        victims: List[Path] = []
        for name in sorted(os.listdir(self.visited_dir)):
            if not (name.startswith("k-") and name.endswith(".json")):
                continue
            path = self.visited_dir / name
            payload = self.spool.read(path)
            if payload is None or payload.get("owner") not in self._done:
                continue
            merged[payload["key"]] = {"sleep": payload.get("sleep", [])}
            victims.append(path)
        if not merged:
            return 0
        seg_id = hashlib.sha1(
            "".join(sorted(merged)).encode()).hexdigest()[:12]
        seg = self.visited_dir / f"seg-{seg_id}.json"
        existing = self.spool.read(seg) or {"keys": {}}
        existing["keys"].update(merged)
        self.spool.write(seg, "frontier-claim", existing)
        for path in victims:
            path.unlink(missing_ok=True)
        return len(merged)

    # -- terminal states -----------------------------------------------------
    def terminal(self, record_id: str, key: str) -> None:
        self.spool.write(self.terminal_dir / f"t-{record_id}.json",
                         "frontier-terminal", {"key": key}, exclusive=True)

    def terminal_stats(self) -> Tuple[int, Tuple[str, ...]]:
        keys = [payload["key"] for payload in self._records(self.terminal_dir)]
        return len(keys), tuple(sorted(set(keys)))

    # -- proviso -------------------------------------------------------------
    def proviso_open(self, key: str, expect: int, prefix) -> None:
        self.spool.write(self.prov_dir / f"p-{key}.json", "frontier-prov",
                         {"expect": expect, "prefix": list(prefix)},
                         exclusive=True)

    def proviso_resolve(self, key: str, child_id: str,
                        fresh: bool) -> Optional[tuple]:
        self.spool.write(self.prov_dir / f"m-{key}-{child_id}.json",
                         "frontier-prov", {"fresh": fresh}, exclusive=True)
        head = self.spool.read(self.prov_dir / f"p-{key}.json")
        if head is None:
            return None
        markers = list(self._records(self.prov_dir, f"m-{key}-*.json"))
        if len(markers) < head["expect"] \
                or any(marker.get("fresh", False) for marker in markers):
            return None
        if self.spool.write(self.prov_dir / f"r-{key}.json", "frontier-prov",
                            {}, exclusive=True):
            return tuple(head["prefix"])
        return None

    # -- violation -----------------------------------------------------------
    def set_violation(self, payload: dict) -> bool:
        return self.spool.write(self.root / "violation.json",
                                "frontier-violation", payload,
                                exclusive=True)

    def get_violation(self) -> Optional[dict]:
        return self.spool.read(self.root / "violation.json")

    # -- worker stats --------------------------------------------------------
    def add_stats(self, label: str, executions: int) -> None:
        """Persist a finished worker's execution count so the merged
        report reflects the whole fleet's work."""
        self.spool.write(self.root / f"stats-{label}.json",
                         "frontier-stats", {"executions": executions})

    def stats_executions(self) -> int:
        return sum(int(payload.get("executions", 0))
                   for payload in self._records(self.root, "stats-*.json"))
