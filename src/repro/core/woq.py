"""The Write Ordering Queue (WOQ).

The WOQ is the structure TUS adds (Section IV): a small circular buffer
that records the order in which unauthorized cache lines must be made
visible to the rest of the system to preserve x86-TSO.  Each entry
tracks (paper Figure 6):

* the L1D location of the line (we key by line address; hardware uses a
  10-bit set/way pointer — the information content is the same),
* the atomic-group id (entries of one group become visible together),
* a byte mask of locally written data (used to combine with the memory
  copy when write permission arrives),
* a ``CanCycle`` bit — cleared while an external conflict is being
  resolved so the group composition cannot change under the
  authorization unit,
* a ``Ready`` bit — set when permission has arrived and the data has
  been combined; cleared again if the line is relinquished.

Atomic groups are contiguous runs of WOQ entries (a cycle merge copies
the group id onto every entry between the hit entry and the tail, and
WCB flushes append whole groups), so visibility pops whole runs from
the head.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from ..common.addr import line_addr
from ..common.stats import StatGroup
from ..observe.bus import NULL_PROBE


class WOQEntry:
    """One tracked unauthorized (or ready-but-not-visible) cache line."""

    __slots__ = ("line", "group", "mask", "ready", "can_cycle", "deferred",
                 "request_outstanding")

    def __init__(self, line: int, group: int, mask: int) -> None:
        self.line = line
        self.group = group
        self.mask = mask
        self.ready = False
        self.can_cycle = True
        #: The line was relinquished; its write-permission re-request is
        #: deferred until it is the lex-least missing line of the head
        #: group (Section III-C).
        self.deferred = False
        #: A GetX for this line is currently in flight.
        self.request_outstanding = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("R" if self.ready else "-") + ("c" if self.can_cycle else "!")
        return f"WOQ({self.line:#x} g{self.group} {flags})"


class WriteOrderingQueue:
    """FIFO of WOQ entries with atomic-group operations."""

    def __init__(self, capacity: int, stats: Optional[StatGroup] = None) -> None:
        if capacity < 1:
            raise ValueError("WOQ needs at least one entry")
        self.capacity = capacity
        self._entries: Deque[WOQEntry] = deque()
        self._by_line: Dict[int, WOQEntry] = {}
        self._next_group = 0
        stats = stats if stats is not None else StatGroup("woq")
        self.stats = stats
        self._allocs = stats.counter("allocations")
        self.c_searches = stats.counter(
            "searches", "WOQ searches (store L1D hits + external requests)")
        self._merges = stats.counter("group_merges", "cycle merges")
        self._visible_groups = stats.counter(
            "visible_groups", "atomic groups made visible")
        self._visible_lines = stats.counter(
            "visible_lines", "cache lines made visible")
        self.c_full_stalls = stats.counter(
            "full_stalls", "writes delayed because the WOQ was full")
        self._occupancy = stats.histogram(
            "occupancy", bucket_width=4, num_buckets=32)
        self.probe = NULL_PROBE

    # -- capacity / lookup -----------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def room_for(self, lines: int) -> bool:
        """Can ``lines`` new entries be allocated right now?  Counts
        nothing: a writer the WOQ turns away bumps ``c_full_stalls``."""
        return len(self._entries) + lines <= self.capacity

    def find(self, addr: int) -> Optional[WOQEntry]:
        """Search the WOQ for the entry tracking ``addr``'s line."""
        self.c_searches.value += 1
        return self._by_line.get(line_addr(addr))

    def contains(self, addr: int) -> bool:
        return line_addr(addr) in self._by_line

    def get_quiet(self, addr: int) -> Optional[WOQEntry]:
        """Lookup without counting a search (internal bookkeeping, not a
        modelled hardware access)."""
        return self._by_line.get(line_addr(addr))

    # -- allocation / merging -----------------------------------------------
    def new_group_id(self) -> int:
        self._next_group += 1
        return self._next_group - 1

    def append(self, line: int, mask: int, group: Optional[int] = None,
               cycle: Optional[int] = None) -> WOQEntry:
        """Allocate an entry at the tail; caller checks :meth:`room_for`.

        Each line starts as its own atomic group unless ``group`` places
        it in an existing one (WCB flushes append whole groups).
        """
        line = line_addr(line)
        if line in self._by_line:
            raise ValueError(f"line {line:#x} already tracked by the WOQ")
        if len(self._entries) >= self.capacity:
            raise OverflowError("WOQ overflow")
        entry = WOQEntry(line, group if group is not None
                         else self.new_group_id(), mask)
        self._entries.append(entry)
        self._by_line[line] = entry
        self._allocs.inc()
        self._occupancy.sample(len(self._entries))
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0,
                            "woq:alloc", line=line, group=entry.group,
                            occupancy=len(self._entries))
        return entry

    def merge_to_tail(self, entry: WOQEntry,
                      cycle: Optional[int] = None) -> List[WOQEntry]:
        """Cycle merge: make ``entry`` and everything younger one group.

        Copies ``entry``'s group id onto every entry between it and the
        tail (Section IV) and returns the affected entries.
        """
        idx = self._index_of(entry)
        affected = [self._entries[i] for i in range(idx, len(self._entries))]
        for other in affected:
            other.group = entry.group
        self._merges.inc()
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0,
                            "woq:merge", group=entry.group,
                            entries=len(affected))
        return affected

    def group_size_after_merge(self, entry: WOQEntry) -> int:
        """Size the atomic group would have after a cycle merge at
        ``entry`` (everything from ``entry`` to the tail, plus the older
        members of ``entry``'s current group)."""
        idx = self._index_of(entry)
        older_same_group = sum(
            1 for i in range(idx) if self._entries[i].group == entry.group)
        return older_same_group + (len(self._entries) - idx)

    def _index_of(self, entry: WOQEntry) -> int:
        for i, candidate in enumerate(self._entries):
            if candidate is entry:
                return i
        raise ValueError("entry not in WOQ")

    # -- ordering queries ----------------------------------------------------
    def older_entries(self, entry: WOQEntry,
                      inclusive: bool = True) -> List[WOQEntry]:
        """Entries from the head up to ``entry`` (WOQ order)."""
        out: List[WOQEntry] = []
        for candidate in self._entries:
            if candidate is entry:
                if inclusive:
                    out.append(candidate)
                return out
            out.append(candidate)
        raise ValueError("entry not in WOQ")

    def head_group(self) -> List[WOQEntry]:
        """The entries of the atomic group at the head (contiguous run)."""
        if not self._entries:
            return []
        group = self._entries[0].group
        out = []
        for entry in self._entries:
            if entry.group != group:
                break
            out.append(entry)
        return out

    def head_group_ready(self) -> bool:
        head = self.head_group()
        return bool(head) and all(entry.ready for entry in head)

    # -- visibility -----------------------------------------------------------
    def pop_head_group(self) -> List[WOQEntry]:
        """Remove and return the head atomic group (being made visible)."""
        group = self.head_group()
        for entry in group:
            self._entries.popleft()
            del self._by_line[entry.line]
        if group:
            self._visible_groups.inc()
            self._visible_lines.inc(len(group))
        return group

    def lines(self) -> Iterable[int]:
        return list(self._by_line)
