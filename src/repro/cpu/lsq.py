"""The load queue.

Loads allocate an entry at dispatch and release it at commit.  The
capacity (192 in Table I) occasionally becomes the first missing
resource for load-heavy regions, which matters for the stall attribution
of Figure 9 (stall reasons "are not disjoint").
"""

from __future__ import annotations

from typing import Optional

from ..common.config import CoreConfig
from ..common.stats import StatGroup


class LoadQueue:
    """Capacity tracking for in-flight loads."""

    def __init__(self, config: CoreConfig,
                 stats: Optional[StatGroup] = None) -> None:
        self.capacity = config.load_queue_entries
        self._occupied = 0
        stats = stats if stats is not None else StatGroup("lq")
        self._inserts = stats.counter("inserts")
        self._occupancy = stats.histogram(
            "occupancy", bucket_width=8, num_buckets=32)

    def __len__(self) -> int:
        return self._occupied

    @property
    def full(self) -> bool:
        return self._occupied >= self.capacity

    def insert(self) -> None:
        occupied = self._occupied + 1
        if occupied > self.capacity:
            raise OverflowError("load queue overflow")
        self._occupied = occupied
        self._inserts.value += 1
        self._occupancy.sample(occupied)

    def release(self) -> None:
        if self._occupied <= 0:
            raise ValueError("load queue underflow")
        self._occupied -= 1
