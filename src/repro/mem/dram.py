"""A simple DRAM model: fixed access latency plus a bandwidth gap.

The paper's configuration specifies a 160-cycle DRAM latency (Table I).
We add a configurable minimum gap between data returns (``dram_gap``) so
that bursts of misses serialise at the memory controller — without this,
store bursts would be unrealistically cheap for every mechanism and the
burst-driven gaps between mechanisms (gcc, ferret) would not appear.

Scaled machines split the controller into independent channels, each
with its own bandwidth queue.  Lines are interleaved across channels by
the same low lex-order bits that pick the directory home, so a home
node's misses land on "its" channel (home-affine NUMA); the interconnect
hop cost between home and channel is charged by the caller (the
transaction engine owns the topology).  A single-channel DRAM behaves
exactly like the pre-channel model, counters included.
"""

from __future__ import annotations

from typing import Optional

from ..common.addr import LEX_MASK, line_index
from ..common.stats import StatGroup
from ..faults.plan import NULL_FAULTS


class DRAM:
    """Fixed-latency, bandwidth-limited memory with N channels."""

    def __init__(self, latency: int, gap: int, channels: int = 1,
                 stats: Optional[StatGroup] = None) -> None:
        if latency < 1:
            raise ValueError("DRAM latency must be positive")
        if gap < 0:
            raise ValueError("DRAM gap cannot be negative")
        if channels < 1 or channels & (channels - 1):
            raise ValueError("DRAM channels must be a power of two")
        self.latency = latency
        self.gap = gap
        self.channels = channels
        self._free_at = [0] * channels
        stats = stats if stats is not None else StatGroup("dram")
        self._accesses = stats.counter("accesses")
        self._queue_cycles = stats.counter(
            "queue_cycles", "cycles spent waiting for bandwidth")
        # Per-channel counters only exist on multi-channel configs so
        # the default machine's flattened stats (and hence every
        # committed benchmark fingerprint) keep their exact shape.
        self._ch_accesses = (
            [stats.child(f"ch{ch}").counter("accesses")
             for ch in range(channels)] if channels > 1 else None)
        #: Fault-injection hook (repro.faults).
        self.faults = NULL_FAULTS

    def channel_of(self, addr: int) -> int:
        """The channel owning ``addr`` (low lex-order bits, matching the
        directory's home interleave)."""
        return line_index(addr) & LEX_MASK & (self.channels - 1)

    def access(self, cycle: int, channel: int = 0) -> int:
        """Issue an access at ``cycle`` on ``channel``; return its
        completion cycle."""
        self._accesses.inc()
        if self._ch_accesses is not None:
            self._ch_accesses[channel].inc()
        start = max(cycle, self._free_at[channel])
        self._queue_cycles.inc(start - cycle)
        self._free_at[channel] = start + self.gap
        done = start + self.latency
        if self.faults:
            done += self.faults.delay("dram-jitter")
        return done

    @property
    def accesses(self) -> int:
        return self._accesses.value
