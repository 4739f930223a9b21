"""A set-associative cache array.

This is the storage model shared by L1I, L1D, L2 and L3.  It tracks line
metadata (state, TUS bits, masks) and implements lookup / allocation /
eviction with a pluggable replacement policy.  Timing lives in the
controllers (``repro.coherence``), not here.

Sets are materialised lazily so that a 64MB L3 costs memory proportional
to the lines actually touched.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional

from ..common.addr import LINE_MASK, LINE_SHIFT, line_addr, set_index
from ..common.config import CacheConfig
from ..common.stats import Counter, StatGroup
from .cacheline import CacheLine, State
from .replacement import LRU, ReplacementPolicy


class CacheArray:
    """Storage and metadata of one cache level."""

    def __init__(self, config: CacheConfig,
                 policy: Optional[ReplacementPolicy] = None,
                 stats: Optional[StatGroup] = None) -> None:
        config.validate()
        self.config = config
        self.policy = policy if policy is not None else LRU()
        self._sets: Dict[int, List[CacheLine]] = {}
        # Hoisted constants for the lookup/probe hot loops.
        self._set_mask = config.num_sets - 1
        self._assoc = config.assoc
        stats = stats if stats is not None else StatGroup(config.name)
        self.stats = stats
        self._hits = stats.counter("hits", "lookups that found a valid line")
        self._misses = stats.counter("misses", "lookups that missed")
        self._evictions = stats.counter("evictions", "lines evicted")
        self._writebacks = stats.counter("writebacks", "dirty evictions")
        self._reads = stats.counter("reads", "data-array read accesses")
        self._writes = stats.counter("writes", "data-array write accesses")
        # Over the counters, not the array: a formula that held the
        # array would make every cache a reference cycle.
        stats.formula("miss_rate", _miss_rate(self._hits, self._misses),
                      "misses / (hits + misses)")

    # -- basic access ------------------------------------------------------
    def set_of(self, addr: int) -> List[CacheLine]:
        """Return (creating if needed) the set holding ``addr``."""
        idx = (addr >> LINE_SHIFT) & self._set_mask
        lines = self._sets.get(idx)
        if lines is None:
            lines = []
            self._sets[idx] = lines
        return lines

    def lookup(self, addr: int, touch: bool = True,
               cycle: int = 0) -> Optional[CacheLine]:
        """Return the valid line holding ``addr``, or None.

        Counts a hit or a miss; pass ``touch=False`` for snoops and other
        probes that should not perturb replacement state or hit counters.
        """
        addr &= LINE_MASK
        lines = self._sets.get((addr >> LINE_SHIFT) & self._set_mask)
        if lines:
            for line in lines:
                # Lines holding unauthorized data (not_visible) are found
                # even in state I: they are invisible to *coherence*, not
                # to the local controller that must coalesce into /
                # combine them.  ``line.state`` is an IntEnum, so its
                # truthiness is exactly "state != I" (validity).
                if line.addr == addr and (line.state or line.not_visible):
                    if touch:
                        self._hits.value += 1
                        self.policy.touch(line, cycle)
                    return line
        if touch:
            self._misses.value += 1
        return None

    def probe(self, addr: int) -> Optional[CacheLine]:
        """Side-effect-free lookup (no stats, no replacement update)."""
        addr &= LINE_MASK
        lines = self._sets.get((addr >> LINE_SHIFT) & self._set_mask)
        if lines:
            for line in lines:
                if line.addr == addr and (line.state or line.not_visible):
                    return line
        return None

    def record_read(self) -> None:
        """Count one data-array read (for the energy model)."""
        self._reads.inc()

    def record_write(self) -> None:
        """Count one data-array write (for the energy model)."""
        self._writes.inc()

    # -- allocation ----------------------------------------------------------
    def has_free_way(self, addr: int) -> bool:
        """True if ``addr``'s set can accept a new line without evicting a
        non-replaceable entry."""
        lines = self.set_of(addr)
        if len(lines) < self._assoc:
            return True
        return any(line.replaceable for line in lines)

    def free_ways(self, addr: int) -> int:
        """Number of ways in ``addr``'s set that could take a new line."""
        lines = self.set_of(addr)
        unallocated = self._assoc - len(lines)
        return unallocated + sum(1 for line in lines if line.replaceable)

    def install(self, addr: int, state: State, cycle: int = 0,
                on_evict: Optional[Callable[[CacheLine], None]] = None,
                veto: Optional[Callable[[CacheLine], bool]] = None
                ) -> Optional[CacheLine]:
        """Fill ``addr`` with ``state`` in one scan of its set.

        A resident copy takes the fill in place: it becomes E if the
        fill grants write permission to an S copy, and is touched.
        Otherwise a new line is installed and returned, evicting the
        replacement policy's first candidate that ``veto`` does not
        reject (the L2 refusing victims whose L1D copy is not-visible,
        the paper's NACK-and-refresh behaviour) when the set is full.
        ``on_evict`` is called with the victim (for writebacks and
        inclusion enforcement) before it is removed.  Returns None for
        a resident copy and when every way is pinned or vetoed.
        """
        addr &= LINE_MASK
        idx = (addr >> LINE_SHIFT) & self._set_mask
        lines = self._sets.get(idx)
        if lines is None:
            lines = self._sets[idx] = []
        else:
            for line in lines:
                if line.addr == addr and (line.state or line.not_visible):
                    if state >= State.E and line.state < State.E:
                        line.state = State.E
                    self.policy.touch(line, cycle)
                    return None
            if len(lines) >= self._assoc:
                for victim in self.policy.victims(lines):
                    if veto is None or not veto(victim):
                        break
                else:
                    return None
                self._evictions.value += 1
                if victim.dirty:
                    self._writebacks.value += 1
                if on_evict is not None:
                    on_evict(victim)
                lines.remove(victim)
        line = CacheLine(addr, state)
        self.policy.touch(line, cycle)
        lines.append(line)
        return line

    def allocate(self, addr: int, state: State, cycle: int = 0,
                 on_evict: Optional[Callable[[CacheLine], None]] = None,
                 veto: Optional[Callable[[CacheLine], bool]] = None
                 ) -> CacheLine:
        """Install ``addr``, which must not be resident, as :meth:`install`
        does; raises ``LookupError`` if it is resident or if every way is
        pinned (check :meth:`has_free_way` first where that can happen).
        """
        if self.probe(addr) is not None:
            raise LookupError(
                f"{self.config.name}: {addr & LINE_MASK:#x} already present")
        line = self.install(addr, state, cycle, on_evict, veto)
        if line is None:
            raise LookupError(
                f"{self.config.name}: set for {addr:#x} has no victim")
        return line

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Remove ``addr`` from the array; returns the removed line."""
        addr = line_addr(addr)
        lines = self.set_of(addr)
        for line in lines:
            if line.addr == addr:
                lines.remove(line)
                return line
        return None

    # -- iteration / inspection -------------------------------------------
    def __iter__(self) -> Iterator[CacheLine]:
        return chain.from_iterable(self._sets.values())

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(1 for line in self if line.state.valid)


def _miss_rate(hits: Counter, misses: Counter) -> Callable[[], float]:
    """misses / (hits + misses) of two live counters."""
    def miss_rate() -> float:
        total = hits.value + misses.value
        return misses.value / total if total else 0.0
    return miss_rate
