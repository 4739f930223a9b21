"""Write Combining Buffers (WCBs).

Modern cores use WCBs to coalesce non-temporal stores; TUS and CSB
re-purpose them to coalesce *coherent* stores across multiple
non-consecutive cache lines while preserving x86-TSO (Section III-B).

The placement rules follow the paper:

* the store at the head of the SB coalesces into the buffer already
  holding its cache line, if any;
* otherwise it allocates a free buffer;
* writing to an existing buffer *different from the last buffer written*
  creates a store cycle, so all involved buffers are merged into one
  atomic group (their ``C_ID`` fields are unified);
* two lines with the same lex order may not join the same atomic group
  (a *lex conflict*); the store must wait until the conflicting line has
  been made visible;
* if no buffer matches and none is free, the buffers must be drained to
  the L1D before the store can proceed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..common.addr import lex_order, line_addr
from ..common.stats import Charge, StatGroup


class InsertResult(enum.Enum):
    """Outcome of offering a store to the WCB file."""

    COALESCED = "coalesced"          # merged into an existing buffer
    ALLOCATED = "allocated"          # took a free buffer
    NEED_FLUSH = "need_flush"        # no room: drain buffers first
    LEX_CONFLICT = "lex_conflict"    # would create a lex conflict: wait


@dataclass(slots=True)
class WCBEntry:
    """One write-combining buffer."""

    addr: int                 # cache-line address
    mask: int                 # byte mask of combined writes
    group: int                # C_ID: buffers with equal group form one atomic group
    stores: int = 1           # stores coalesced into this buffer


class WCBFile:
    """A small file of write-combining buffers with atomic-group tracking."""

    def __init__(self, num_buffers: int,
                 stats: Optional[StatGroup] = None) -> None:
        if num_buffers < 1:
            raise ValueError("need at least one WCB")
        self.num_buffers = num_buffers
        self.buffers: List[WCBEntry] = []
        self._last_written: Optional[int] = None   # line addr of last insert
        self._next_group = 0
        stats = stats if stats is not None else StatGroup("wcb")
        self._coalesced = stats.counter(
            "coalesced", "stores merged into an existing buffer")
        self._allocated = stats.counter("allocated", "buffers allocated")
        self._cycles_formed = stats.counter(
            "cycles", "atomic groups formed by store cycles")
        self._lex_conflicts = stats.counter(
            "lex_conflicts", "stores delayed by a lex conflict")
        self._searches = stats.counter(
            "searches", "WCB associative searches (loads + stores)")

    def __len__(self) -> int:
        return len(self.buffers)

    @property
    def empty(self) -> bool:
        return not self.buffers

    @property
    def full(self) -> bool:
        return len(self.buffers) >= self.num_buffers

    def find(self, addr: int) -> Optional[WCBEntry]:
        """Associative search for the buffer holding ``addr``'s line."""
        self._searches.value += 1
        addr = line_addr(addr)
        for entry in self.buffers:
            if entry.addr == addr:
                return entry
        return None

    def holds(self, addr: int) -> bool:
        """Does a buffer hold ``addr``'s line?  :meth:`find` without the
        search count, for read-only callers (progress dumps, the model
        checker's invariants)."""
        addr = line_addr(addr)
        return any(entry.addr == addr for entry in self.buffers)

    def insert(self, addr: int, mask: int) -> InsertResult:
        """Offer a committed store to the WCBs; see class docstring."""
        addr = line_addr(addr)
        entry = self.find(addr)
        if entry is not None:
            result = self._coalesce(entry, mask)
        elif not self.full:
            result = self._allocate(addr, mask)
        else:
            return InsertResult.NEED_FLUSH
        return result

    def refusal(self, addr: int) -> Optional[InsertResult]:
        """How :meth:`insert` would turn ``addr``'s store away
        (NEED_FLUSH or LEX_CONFLICT), or None if it would take it.
        Counts nothing; :meth:`refusal_charge` is what the refused
        insert counts."""
        addr = line_addr(addr)
        for entry in self.buffers:
            if entry.addr == addr:
                # The store-cycle test of :meth:`_coalesce`.
                if self._last_written is not None \
                        and self._last_written != addr \
                        and self._group_lex_conflict(entry):
                    return InsertResult.LEX_CONFLICT
                return None
        return InsertResult.NEED_FLUSH if self.full else None

    def refusal_charge(self, refusal: InsertResult) -> Charge:
        """The counters a refused :meth:`insert` bumps: its search, and
        the lex conflict if that was the refusal."""
        if refusal is InsertResult.LEX_CONFLICT:
            return ((self._searches, 1), (self._lex_conflicts, 1))
        return ((self._searches, 1),)

    def _coalesce(self, entry: WCBEntry, mask: int) -> InsertResult:
        if self._last_written is not None and self._last_written != entry.addr:
            # A store cycle: the intervening buffers must become one
            # atomic group with this one — unless that would put two
            # lex-conflicting lines in the same group.
            if self._group_lex_conflict(entry):
                self._lex_conflicts.inc()
                return InsertResult.LEX_CONFLICT
            self._merge_groups(entry.group)
            self._cycles_formed.inc()
        entry.mask |= mask
        entry.stores += 1
        self._last_written = entry.addr
        self._coalesced.value += 1
        return InsertResult.COALESCED

    def _allocate(self, addr: int, mask: int) -> InsertResult:
        self.buffers.append(WCBEntry(addr, mask, self._next_group))
        self._next_group += 1
        self._last_written = addr
        self._allocated.inc()
        return InsertResult.ALLOCATED

    def _group_lex_conflict(self, target: WCBEntry) -> bool:
        """Would merging all buffers into ``target``'s group create a lex
        conflict (two distinct lines with equal lex order)?"""
        orders: Dict[int, int] = {}
        for entry in self.buffers:
            order = lex_order(entry.addr)
            if order in orders and orders[order] != entry.addr:
                return True
            orders[order] = entry.addr
        return False

    def _merge_groups(self, group: int) -> None:
        for entry in self.buffers:
            entry.group = group

    def groups(self) -> List[List[WCBEntry]]:
        """The buffered entries clustered by atomic group.

        Groups come back in allocation order, which is the order the WOQ
        must make them visible in.
        """
        groups: Dict[int, List[WCBEntry]] = {}
        for entry in self.buffers:
            groups.setdefault(entry.group, []).append(entry)
        return [groups[g] for g in sorted(groups)]

    def drain_groups(self) -> List[List[WCBEntry]]:
        """Remove and return all buffers as :meth:`groups`."""
        groups = self.groups()
        self.reset()
        return groups

    def reset(self) -> None:
        self.buffers = []
        self._last_written = None
