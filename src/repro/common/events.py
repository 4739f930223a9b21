"""A deterministic discrete-event queue.

The memory system schedules completions (miss fills, permission grants,
DRAM returns) as events; the core loop pops all events due at the current
cycle before stepping.  Events scheduled for the same cycle fire in
insertion order, which makes simulations bit-for-bit reproducible.

Internally the queue is a *bucketed event wheel*: one insertion-ordered
list (bucket) per occupied cycle, plus a min-heap over the occupied
cycles themselves.  Almost every event in the simulator lands a fixed
cache/DRAM latency ahead of the current cycle, so many events share a
bucket and the heap stays tiny (one push per *distinct* cycle instead
of one per event, as the previous tombstone-scanning heapq paid).
Cancellation tombstones are compacted bucket-by-bucket instead of being
sifted through a global heap.

For the model checker (:mod:`repro.modelcheck`) every entry also carries
its scheduled cycle, its insertion sequence number, a short ``label``
describing what it does and the ``actor`` core it acts for.  The checker
enumerates the due entries (:meth:`EventQueue.due_entries`) and fires
them one at a time in a scheduler-chosen order
(:meth:`EventQueue.fire_entry`), which is how interleavings that the
normal FIFO loop would never produce become reachable.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional


class EventQueue:
    """Per-cycle event buckets ordered by a min-heap of occupied cycles.

    Callbacks take no arguments; closures carry their context.  Cancelled
    events are tombstoned in place and dropped when their bucket is next
    visited, so cancellation is O(1) and never perturbs firing order.
    """

    def __init__(self) -> None:
        #: cycle -> entries scheduled for that cycle, in insertion order.
        self._buckets: Dict[int, List["_Entry"]] = {}
        #: Min-heap over the occupied cycles (the bucket keys).
        self._cycles: List[int] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, cycle: int, callback: Callable[[], Any],
                 label: str = "", actor: Optional[int] = None) -> "_Entry":
        """Schedule ``callback`` to run at ``cycle``; returns a handle
        whose :meth:`_Entry.cancel` prevents the callback from firing.

        ``label`` and ``actor`` (a core id) are free-form annotations used
        by the model checker for state hashing and readable schedules;
        they do not affect simulation.
        """
        if cycle < 0:
            raise ValueError("cannot schedule an event in negative time")
        entry = _Entry(callback, cycle, next(self._counter), label, actor)
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [entry]
            heappush(self._cycles, cycle)
        else:
            bucket.append(entry)
        self._live += 1
        return entry

    def next_cycle(self) -> Optional[int]:
        """Return the cycle of the earliest pending event, or None."""
        buckets = self._buckets
        cycles = self._cycles
        while cycles:
            cycle = cycles[0]
            bucket = buckets[cycle]
            for entry in bucket:
                if not entry.cancelled:
                    return cycle
            # The whole bucket is tombstones: drop it.
            self._live -= len(bucket)
            heappop(cycles)
            del buckets[cycle]
        return None

    def run_until(self, cycle: int) -> int:
        """Fire every event scheduled at or before ``cycle``.

        Returns the number of callbacks that actually ran.  Events that a
        callback schedules at or before ``cycle`` also run, in the global
        (cycle, insertion) order the old heap implementation used.
        """
        fired = 0
        buckets = self._buckets
        cycles = self._cycles
        while cycles and cycles[0] <= cycle:
            current = cycles[0]
            bucket = buckets[current]
            index = 0
            # Appends during iteration (same-cycle cascades) extend the
            # bucket; the index loop picks them up in insertion order.
            while index < len(bucket):
                entry = bucket[index]
                index += 1
                self._live -= 1
                if entry.cancelled:
                    continue
                entry.cancelled = True   # consumed; cancel() now a no-op
                entry._callback()
                fired += 1
                if cycles[0] != current:
                    # A callback scheduled an *earlier* cycle.  Trim the
                    # consumed prefix and restart from the heap top so
                    # the (cycle, seq) firing order is preserved.
                    del bucket[:index]
                    break
            else:
                heappop(cycles)
                del buckets[current]
        return fired

    # -- model-checker access ----------------------------------------------
    def due_entries(self, cycle: int) -> List["_Entry"]:
        """Live entries scheduled at or before ``cycle``, in the order
        :meth:`run_until` would fire them.  The queue is not modified."""
        buckets = self._buckets
        cycles = [c for c in buckets if c <= cycle]
        if len(cycles) > 1:
            cycles.sort()
        return [e for c in cycles for e in buckets[c] if not e.cancelled]

    def fire_entry(self, entry: "_Entry") -> None:
        """Fire one specific live entry out of queue order.

        The entry is tombstoned afterwards so the normal pop path skips
        it; lazy deletion keeps the bucket bookkeeping intact.
        """
        if entry.cancelled:
            raise ValueError("cannot fire a cancelled event")
        entry.fire()
        entry.cancelled = True

    def pending(self) -> List["_Entry"]:
        """All live entries (no particular order); for state hashing."""
        return [e for bucket in self._buckets.values()
                for e in bucket if not e.cancelled]


class _Entry:
    """Handle for a scheduled event."""

    __slots__ = ("_callback", "cancelled", "cycle", "seq", "label", "actor")

    def __init__(self, callback: Callable[[], Any], cycle: int = 0,
                 seq: int = 0, label: str = "",
                 actor: Optional[int] = None) -> None:
        self._callback = callback
        self.cancelled = False
        self.cycle = cycle
        self.seq = seq
        self.label = label
        self.actor = actor

    def cancel(self) -> None:
        self.cancelled = True

    def fire(self) -> None:
        if not self.cancelled:
            self._callback()
