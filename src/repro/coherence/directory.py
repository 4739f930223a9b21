"""The coherence directory.

A full-map directory co-located with the shared LLC.  It is indexed by
the same 16 low bits of the cache-line address that define the lex order
(Section III-C) — that identity is what makes the paper's lex-conflict
rule sufficient for deadlock freedom: all lines of one atomic group map
to *different* directory sets, so acquiring exclusivity for a group can
never self-conflict inside the directory.

Entries track the owner (a core holding E/M) or the sharer set, plus a
``busy`` flag that serialises transactions per line.

Scaled machines shard the directory into N home nodes
(:class:`ShardedDirectory`): line addresses are interleaved across homes
by their low lex-order bits, so every line has exactly one home.  A
shard's set index is the low lex bits again, the ones that picked its
home, so those bits are fixed within a shard: each shard reaches only
1/N of its sets, and two lex-distinct lines that differ only in the
top log2(N) lex bits share one set.  The monolithic argument above
therefore does *not* carry over shard boundaries: two lines of one
atomic group can meet in one sharded set.
Both classes expose ``shards`` and ``home_of`` so diagnostics, fault
injection, and the model checker can quantify over every home without
caring whether the directory is monolithic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..common.addr import LEX_MASK, LINE_MASK, line_index
from ..common.stats import StatGroup
from ..faults.plan import NULL_FAULTS
from ..observe.bus import NULL_PROBE


@dataclass
class DirEntry:
    """Directory state for one tracked cache line."""

    addr: int
    owner: Optional[int] = None        # core id holding E/M, if any
    sharers: Set[int] = field(default_factory=set)
    busy: bool = False                 # a transaction is in flight
    #: LRU timestamp for directory-set replacement.
    last_touch: int = 0

    @property
    def idle_uncached(self) -> bool:
        return self.owner is None and not self.sharers and not self.busy


class Directory:
    """Set-associative full-map directory indexed by lex-order bits."""

    def __init__(self, num_sets: int = 1 << 16, assoc: int = 16,
                 stats: Optional[StatGroup] = None) -> None:
        if num_sets & (num_sets - 1):
            raise ValueError("directory sets must be a power of two")
        self.num_sets = num_sets
        self.assoc = assoc
        self._sets: Dict[int, List[DirEntry]] = {}
        self._clock = 0
        stats = stats if stats is not None else StatGroup("directory")
        self._lookups = stats.counter("lookups")
        self._allocs = stats.counter("allocations")
        self._evictions = stats.counter(
            "evictions", "tracked lines dropped for capacity")
        self._conflict_stalls = stats.counter(
            "conflict_stalls", "allocations refused: set full of busy lines")
        self.probe = NULL_PROBE
        #: Fault-injection hook (repro.faults).
        self.faults = NULL_FAULTS

    #: A monolithic directory is its own single home node.
    num_shards = 1

    @property
    def shards(self) -> tuple:
        """The home nodes, for code that quantifies over all of them."""
        return (self,)

    def home_of(self, addr: int) -> int:
        """The shard id owning ``addr`` (always 0 here)."""
        return 0

    def set_index(self, addr: int) -> int:
        return line_index(addr) & LEX_MASK & (self.num_sets - 1)

    def _set(self, addr: int) -> List[DirEntry]:
        idx = self.set_index(addr)
        entries = self._sets.get(idx)
        if entries is None:
            entries = []
            self._sets[idx] = entries
        return entries

    def peek(self, addr: int) -> Optional[DirEntry]:
        """Side-effect-free lookup: no stats, no LRU touch.  Used by the
        model checker's invariants, which must not perturb replacement
        state.  (Named ``peek``, not ``probe``: ``self.probe`` is the
        instrumentation probe, as everywhere else in the simulator.)"""
        addr &= LINE_MASK
        for entry in self._sets.get(self.set_index(addr), ()):
            if entry.addr == addr:
                return entry
        return None

    def entries(self) -> List[DirEntry]:
        """Every tracked entry (unordered); for state hashing."""
        return [entry for entries in self._sets.values()
                for entry in entries]

    def lookup(self, addr: int) -> Optional[DirEntry]:
        """Return the entry tracking ``addr``, or None."""
        addr &= LINE_MASK
        self._lookups.inc()
        for entry in self._set(addr):
            if entry.addr == addr:
                self._clock += 1
                entry.last_touch = self._clock
                return entry
        return None

    def allocate(self, addr: int,
                 cycle: Optional[int] = None) -> Optional[DirEntry]:
        """Allocate an entry for ``addr``; returns None if the set is full
        of lines that cannot be dropped (busy or actively cached — a real
        design would back-invalidate; we refuse and the requester retries,
        which is the conservative choice for TUS forward-progress runs)."""
        addr &= LINE_MASK
        if self.faults and self.faults.refuse("dir-conflict"):
            # Injected victim-NACK storm: the set behaves as if every
            # candidate victim vetoed its eviction, so the allocation is
            # refused and the requester retries.  Deliberately bypasses
            # the conflict-stall counter and probes — injected refusals
            # are bookkept on the FaultPlan, not in system stats.
            return None
        entries = self._set(addr)
        if len(entries) >= self.assoc:
            victim = self._choose_victim(entries)
            if victim is None:
                self._conflict_stalls.inc()
                if self.probe:
                    self.probe.emit(cycle if cycle is not None else 0,
                                    "dirent:conflict", line=addr)
                return None
            entries.remove(victim)
            self._evictions.inc()
            if self.probe:
                self.probe.emit(cycle if cycle is not None else 0,
                                "dirent:evict", line=victim.addr)
        self._clock += 1
        entry = DirEntry(addr, last_touch=self._clock)
        entries.append(entry)
        self._allocs.inc()
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0,
                            "dirent:alloc", line=addr)
        return entry

    def _choose_victim(self, entries: List[DirEntry]) -> Optional[DirEntry]:
        idle = [e for e in entries if e.idle_uncached]
        if not idle:
            return None
        return min(idle, key=lambda e: e.last_touch)

    def get_or_allocate(self, addr: int,
                        cycle: Optional[int] = None) -> Optional[DirEntry]:
        entry = self.lookup(addr)
        if entry is not None:
            return entry
        return self.allocate(addr, cycle)

    def drop(self, addr: int) -> None:
        """Remove the entry for ``addr`` (line no longer cached anywhere)."""
        addr &= LINE_MASK
        entries = self._set(addr)
        for entry in entries:
            if entry.addr == addr:
                entries.remove(entry)
                return


class ShardedDirectory:
    """N directory home nodes with lex-interleaved line ownership.

    Each shard is a full :class:`Directory` scaled down to its share of
    the sets; ``home_of`` picks the shard from the low lex-order bits of
    the line address, so the mapping is static and identical to the
    bits the DRAM channel map uses (home-affine NUMA).  The shard then
    indexes its sets with those same low bits, so it reaches only
    ``1/num_shards`` of them (see the module docstring).
    The per-address API (``lookup``/``allocate``/...) delegates to the
    owning shard, which keeps :class:`~repro.coherence.memsys
    .MemorySystem` and the invariants shard-agnostic.
    """

    def __init__(self, num_shards: int, num_sets: int = 1 << 16,
                 assoc: int = 16,
                 stats: Optional[StatGroup] = None) -> None:
        if num_shards < 2:
            raise ValueError("a sharded directory needs >= 2 shards")
        if num_shards & (num_shards - 1):
            raise ValueError("directory shards must be a power of two")
        if num_sets % num_shards:
            raise ValueError("directory sets must split evenly over shards")
        self.num_shards = num_shards
        self.num_sets = num_sets
        self.assoc = assoc
        stats = stats if stats is not None else StatGroup("directory")
        self._shards = [
            Directory(num_sets // num_shards, assoc,
                      stats=stats.child(f"shard{sid}"))
            for sid in range(num_shards)]

    @property
    def shards(self) -> tuple:
        return tuple(self._shards)

    def home_of(self, addr: int) -> int:
        return line_index(addr) & LEX_MASK & (self.num_shards - 1)

    def shard(self, addr: int) -> Directory:
        """The home node owning ``addr``."""
        return self._shards[self.home_of(addr)]

    # -- delegation to the owning home --------------------------------------
    def peek(self, addr: int) -> Optional[DirEntry]:
        return self.shard(addr).peek(addr)

    def lookup(self, addr: int) -> Optional[DirEntry]:
        return self.shard(addr).lookup(addr)

    def allocate(self, addr: int,
                 cycle: Optional[int] = None) -> Optional[DirEntry]:
        return self.shard(addr).allocate(addr, cycle)

    def get_or_allocate(self, addr: int,
                        cycle: Optional[int] = None) -> Optional[DirEntry]:
        return self.shard(addr).get_or_allocate(addr, cycle)

    def drop(self, addr: int) -> None:
        self.shard(addr).drop(addr)

    def entries(self) -> List[DirEntry]:
        """Every tracked entry across all homes (unordered)."""
        return [entry for shard in self._shards
                for entry in shard.entries()]

    # -- hooks fan out to every home ----------------------------------------
    @property
    def probe(self):
        return self._shards[0].probe

    @probe.setter
    def probe(self, value) -> None:
        for shard in self._shards:
            shard.probe = value

    @property
    def faults(self):
        return self._shards[0].faults

    @faults.setter
    def faults(self, value) -> None:
        for shard in self._shards:
            shard.faults = value
