"""The store buffer (SB).

A unified SB for non-committed and committed stores, as in x86 cores
(the paper's footnote 1).  Stores enter at dispatch in program order,
are marked committed when they retire from the ROB, and leave from the
head when the active store-handling mechanism drains them.

The SB is a CAM: every load searches it for a younger-to-older match
(store-to-load forwarding).  The search cost is what makes large SBs
expensive — the forwarding latency and the energy per search both grow
with the entry count (Section V models 5 cycles at 114 entries, 4 at 64,
3 at 32; the energy model lives in ``repro.energy.cam``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..common.addr import line_addr
from ..common.config import CoreConfig
from ..common.stats import StatGroup
from ..observe.bus import NULL_PROBE
from .isa import UOp


class SBEntry:
    """One store resident in the SB."""

    __slots__ = ("uop", "line", "mask", "committed", "seq")

    def __init__(self, uop: UOp, seq: int) -> None:
        self.uop = uop
        self.line = line_addr(uop.addr)
        self.mask = uop.mask()
        self.committed = False
        self.seq = seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = "C" if self.committed else "-"
        return f"SB({self.seq}:{self.line:#x} {c})"


class StoreBuffer:
    """Finite, in-order store buffer with forwarding search."""

    def __init__(self, config: CoreConfig,
                 stats: Optional[StatGroup] = None) -> None:
        self.capacity = config.sb_entries
        self.forward_latency = config.forward_latency
        self._entries: Deque[SBEntry] = deque()
        self._by_line: Dict[int, List[SBEntry]] = {}
        self._next_seq = 0
        stats = stats if stats is not None else StatGroup("sb")
        self.stats = stats
        self._searches = stats.counter(
            "searches", "associative searches (one per load)")
        self._forwards = stats.counter(
            "forwards", "loads serviced by store-to-load forwarding")
        self._inserts = stats.counter("inserts", "stores dispatched")
        self._drains = stats.counter("drains", "stores drained to memory")
        self._occupancy = stats.histogram(
            "occupancy", bucket_width=8, num_buckets=32,
            desc="entries at dispatch time")
        self.probe = NULL_PROBE

    # -- capacity ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    # -- lifecycle ----------------------------------------------------------
    def insert(self, uop: UOp, cycle: Optional[int] = None) -> SBEntry:
        """Append a store at dispatch; caller must check :attr:`full`."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise OverflowError("store buffer overflow")
        entry = SBEntry(uop, self._next_seq)
        self._next_seq += 1
        entries.append(entry)
        bucket = self._by_line.get(entry.line)
        if bucket is None:
            self._by_line[entry.line] = [entry]
        else:
            bucket.append(entry)
        self._inserts.value += 1
        self._occupancy.sample(len(entries))
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0,
                            "store:dispatch", seq=entry.seq,
                            line=entry.line, occupancy=len(entries))
        return entry

    def head(self) -> Optional[SBEntry]:
        """The oldest store, drained first (x86-TSO order)."""
        return self._entries[0] if self._entries else None

    def head_committed(self) -> Optional[SBEntry]:
        """The head entry if it is committed (eligible to drain)."""
        head = self.head()
        if head is not None and head.committed:
            return head
        return None

    def pop_head(self, cycle: Optional[int] = None) -> SBEntry:
        """Drain the head store (it has been handed to the memory path)."""
        entry = self._entries.popleft()
        bucket = self._by_line[entry.line]
        bucket.remove(entry)
        if not bucket:
            del self._by_line[entry.line]
        self._drains.value += 1
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0,
                            "store:sbexit", seq=entry.seq,
                            line=entry.line, occupancy=len(self._entries))
        return entry

    # -- forwarding -----------------------------------------------------------
    def search(self, addr: int, size: int) -> Optional[SBEntry]:
        """CAM search for the youngest store overlapping [addr, addr+size).

        Every load performs exactly one search (hit or not); the energy
        model charges per search.  A store whose bytes fully cover the
        load forwards; a partial overlap also resolves through the SB in
        this model (real cores stall and replay — the timing difference
        is second-order for the studied workloads).
        """
        self._searches.value += 1
        line = line_addr(addr)
        bucket = self._by_line.get(line)
        if not bucket:
            return None
        offset = addr - line
        mask = ((1 << size) - 1) << offset
        for entry in reversed(bucket):
            if entry.mask & mask:
                self._forwards.value += 1
                return entry
        return None

    def __iter__(self):
        return iter(self._entries)
