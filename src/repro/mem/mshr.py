"""Miss Status Holding Registers.

One MSHR tracks one outstanding miss on a cache line; secondary misses to
the same line merge into the existing entry.  Each waiter registers a
callback fired when the fill (or permission grant) completes.  A full
MSHR file back-pressures the requester, which is one of the occupancy
effects that make store bursts expensive in the baseline.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Dict, List, Optional

from ..common.addr import LINE_MASK
from ..common.stats import StatGroup
from ..faults.plan import NULL_FAULTS
from ..observe.bus import NULL_PROBE


def _unwatched() -> None:
    """The change callback of an MSHR file nobody watches."""


class MSHREntry:
    """One in-flight miss."""

    __slots__ = ("addr", "is_write", "issued_cycle", "waiters", "meta")

    def __init__(self, addr: int, is_write: bool, issued_cycle: int) -> None:
        self.addr = addr
        self.is_write = is_write
        self.issued_cycle = issued_cycle
        self.waiters: List[Callable[[], None]] = []
        #: Free-form controller bookkeeping (e.g. retry state).
        self.meta: Dict[str, object] = {}


class MSHRFile:
    """A finite pool of MSHRs keyed by cache-line address.

    A few entries are reserved for *demand* requests: prefetch hints may
    not take the last ``demand_reserve`` MSHRs, so a flood of
    commit-time write prefetches can never starve the drain path or
    demand loads (they would otherwise retry behind an always-full
    file).
    """

    def __init__(self, capacity: int, stats: Optional[StatGroup] = None,
                 demand_reserve: int = 8,
                 on_change: Callable[[], None] = _unwatched) -> None:
        if capacity < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.capacity = capacity
        self.demand_reserve = min(demand_reserve, capacity - 1)
        self._entries: Dict[int, MSHREntry] = {}
        stats = stats if stats is not None else StatGroup("mshr")
        self._allocs = stats.counter("allocations")
        self._merges = stats.counter("merges", "secondary misses merged")
        self._full_events = stats.counter("full", "allocation refused: full")
        self._latency = stats.histogram("latency", bucket_width=16,
                                        num_buckets=64,
                                        desc="miss latency distribution")
        self.probe = NULL_PROBE
        #: Fault-injection hook (repro.faults).
        self.faults = NULL_FAULTS
        #: Bumped whenever an entry is allocated or retired, so callers
        #: can tell that no allocation outcome can have changed.
        self.version = 0
        #: Called on every such change too (the owning port's
        #: :meth:`~repro.coherence.memsys.CorePort.touch`).
        self._on_change = on_change

    def __len__(self) -> int:
        return len(self._entries)

    def release(self) -> None:
        """Drop every entry, its waiting callbacks with it, and the
        change callback (the owner is being torn down)."""
        self._entries.clear()
        self._on_change = _unwatched

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lines(self):
        """The line addresses with an entry (a live view)."""
        return self._entries.keys()

    def has_room(self, prefetch: bool = False) -> bool:
        """Whether a new entry may be allocated (prefetches may not take
        the last ``demand_reserve`` entries)."""
        return len(self._entries) < self.capacity - (
            self.demand_reserve if prefetch else 0)

    def get(self, addr: int) -> Optional[MSHREntry]:
        return self._entries.get(addr & LINE_MASK)

    def allocate(self, addr: int, is_write: bool, cycle: int,
                 prefetch: bool = False) -> Optional[MSHREntry]:
        """Allocate (or merge into) an MSHR for ``addr``.

        Returns None when the file is full (or, for prefetches, when
        only the demand reserve is left) and no entry exists for the
        line.  An existing read entry is upgraded to a write entry if a
        write merges into it, so the eventual fill carries permissions.
        """
        addr &= LINE_MASK
        entry = self._entries.get(addr)
        if entry is not None:
            self._merges.inc()
            entry.is_write = entry.is_write or is_write
            return entry
        if not self.has_room(prefetch):
            self.refuse(addr, cycle)
            return None
        if self.faults and self._entries \
                and self.faults.refuse("mshr-full"):
            # Injected transient exhaustion; see :meth:`refuse`.
            return None
        entry = MSHREntry(addr, is_write, cycle)
        self._entries[addr] = entry
        self.version += 1
        self._on_change()
        self._allocs.inc()
        if self.probe:
            self.probe.emit(cycle, "mshr:alloc", line=addr, write=is_write,
                            occupancy=len(self._entries))
        return entry

    def count_merges(self, count: int) -> None:
        """Count ``count`` write requests merged into entries that are
        known to exist (a replayed request, not re-issued)."""
        self._merges.inc(count)

    def refuse(self, addr: int, cycle: int) -> None:
        """Bookkeep one allocation of ``addr`` refused by a full file.

        :meth:`allocate` refuses through here, and so do callers that
        know an allocation would be refused and skip making it: either
        way the refusal draws the ``mshr-full`` fault, and unless the
        fault claims it, counts a full event and emits ``mshr:full``.
        """
        if self.faults and self._entries \
                and self.faults.refuse("mshr-full"):
            # Injected transient exhaustion.  Only legal while at least
            # one real miss is in flight: the refused request parks, and
            # parked requests are retried exactly when a fill completes —
            # so a guaranteed future fill is what keeps this live.
            # Bookkept on the FaultPlan, not the full-events counter.
            return
        self._full_events.inc()
        if self.probe:
            self.probe.emit(cycle, "mshr:full", line=addr)

    def refuse_all(self, addrs, count: int, cycle: int) -> None:
        """:meth:`refuse` the first ``count`` lines of ``addrs`` in
        order; one counter bump when neither faults nor a probe need
        the refusals one by one."""
        if not self.faults and not self.probe:
            self._full_events.inc(count)
            return
        for addr in islice(addrs, count):
            self.refuse(addr, cycle)

    def complete(self, addr: int, cycle: int) -> List[Callable[[], None]]:
        """Retire the MSHR for ``addr`` and return its waiter callbacks.

        The caller fires the callbacks after installing the line, so
        waiters observe the post-fill cache state.
        """
        addr &= LINE_MASK
        entry = self._entries.pop(addr, None)
        if entry is None:
            return []
        self.version += 1
        self._on_change()
        self._latency.sample(cycle - entry.issued_cycle)
        if self.probe:
            self.probe.emit(cycle, "mshr:complete", line=addr,
                            latency=cycle - entry.issued_cycle,
                            occupancy=len(self._entries))
        return list(entry.waiters)
