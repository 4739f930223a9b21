"""The store-handling mechanism interface.

A mechanism owns everything that happens to a store *after* it commits:
how (and whether) write permission is prefetched, how the SB head drains,
which post-SB structures hold store data, and how loads find that data.
The five mechanisms of the paper's evaluation (baseline, SSB, CSB, SPB,
TUS) are all implementations of this interface, which is what lets the
harness swap them under an otherwise identical core and memory system.
Shared behaviour lives in :class:`PrefetchAtCommit` (all five) and
:class:`CoalescingMechanism` (CSB and TUS: one WCB front end).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..common.config import SystemConfig
from ..common.events import EventQueue
from ..common.stats import Charge, StatGroup
from ..coherence.memsys import CorePort
from ..cpu.storebuffer import SBEntry, StoreBuffer
from ..mem.wcb import InsertResult, WCBFile
from ..observe.bus import NULL_PROBE

#: Invariants every mechanism must uphold on every reachable state
#: (names resolved against :data:`repro.modelcheck.invariants.INVARIANTS`).
COMMON_INVARIANTS: Tuple[str, ...] = (
    "swmr", "directory-backing", "inclusivity", "store-order",
)


def group_id_map(ids) -> dict:
    """First-seen renumbering of atomic-group ids (0, 1, 2, ...).

    WCB/WOQ group counters are monotonic, so their raw values are
    path-dependent; two behaviourally identical states reached by
    different schedules would hash differently without this.
    """
    return {gid: index for index, gid in enumerate(dict.fromkeys(ids))}


class StoreMechanism:
    """Base class: how committed stores leave the SB and reach memory."""

    name = "abstract"

    def __init__(self, config: SystemConfig, port: CorePort, sb: StoreBuffer,
                 events: EventQueue, stats: StatGroup) -> None:
        self.config = config
        self.port = port
        self.sb = sb
        self.events = events
        self.stats = stats
        self.probe = NULL_PROBE

    # -- hooks called by the core ------------------------------------------
    def on_store_commit(self, entry: SBEntry, cycle: int) -> None:
        """A store just committed (its SB entry is now drainable)."""

    def drain(self, cycle: int) -> int:
        """Move committed stores out of the SB head; returns how many
        stores made forward progress this cycle."""
        raise NotImplementedError

    def drained(self) -> bool:
        """True when every post-SB structure is empty (fence semantics:
        a serialising event must wait for all stores to become globally
        visible, not merely to leave the SB)."""
        return True

    def search(self, addr: int, size: int) -> Optional[int]:
        """Store-to-load forwarding from post-SB structures.

        Returns the forwarding latency if the youngest copy of the data
        lives in a mechanism structure (WCB, TSOB), else None (the load
        proceeds to the L1D port).
        """
        return None

    def next_wake(self, cycle: int) -> Optional[int]:
        """Next cycle at which this mechanism can make progress without an
        external event, or None if it is purely event-driven."""
        return None

    def drain_idle(self) -> bool:
        """True when :meth:`drain` is guaranteed to make no progress *and*
        have no side effects while the SB head is absent or uncommitted.

        The run loop uses this (via :meth:`repro.cpu.core.Core.stuck_at`)
        to keep a blocked core stale across events that cannot have
        unblocked it.  Returning False is always safe — it merely forces
        a full (no-op) step — so mechanisms with any head-independent
        drain work (opportunistic flushes, prefetch trains, retries)
        must return False while that work is possible."""
        return False

    def drain_charge(self) -> Optional[Charge]:
        """What one :meth:`drain` call would do, if provably nothing.

        None when the call might act (move a store, issue a request,
        change any state).  Otherwise the counters the no-op call bumps
        as ``(counter, delta)`` pairs, empty when it bumps none.  The
        run loop charges this for every event cycle on which it skips
        a blocked core (see :meth:`repro.cpu.core.Core.idle_charge`),
        so it must match the call exactly.  The default is the
        :meth:`drain_idle` rule: no committed SB head and no
        head-independent work."""
        if self.sb.head_committed() is not None or not self.drain_idle():
            return None
        return ()

    # -- model-checker hooks -----------------------------------------------
    def modelcheck_invariants(self) -> Tuple[str, ...]:
        """Invariant names :mod:`repro.modelcheck` must verify while this
        mechanism runs.  Non-TUS mechanisms never write unauthorized
        data, so an unauthorized line anywhere is itself a bug."""
        return COMMON_INVARIANTS + ("no-unauthorized",)

    def modelcheck_state(self) -> Tuple:
        """Hashable snapshot of the mechanism's post-SB structures, used
        in the model checker's canonical state key.  Must cover every
        bit of state that influences future behaviour, as nested tuples
        of ints, bools, strings and None in a deterministic order: the
        key hashes its ``repr`` as it is."""
        return ()

    def footprint_lines(self) -> Tuple[int, ...]:
        """Cache lines currently held in the mechanism's post-SB
        structures; the model checker's partial-order reduction folds
        them into the owning core's footprint.  Must over-approximate:
        a missing line can unsoundly declare two actions independent."""
        return ()

    def footprint_expand(self, lines):
        """Widen a set of footprint lines to the granularity this
        mechanism acts on (identity by default; SPB's page bursts touch
        every line of a committed store's page)."""
        return lines

    def pending_publication(self, addr: int) -> bool:
        """Does this mechanism still hold an unpublished store to
        ``addr``'s line?  While True, a DELAY answer this core gave for
        the line is a live wait-for edge (the requester's re-poll cannot
        succeed before the publication); once False, the pending re-poll
        resolves and the edge is dead.  Mechanisms that never answer
        DELAY can leave the default."""
        return False


class PrefetchAtCommit(StoreMechanism):
    """Shared behaviour: request write permission when a store commits.

    The paper's baseline includes this store prefetcher (Section V,
    "+15% performance over the default gem5"), and every other mechanism
    keeps it on.  The prefetch is a *hint*: it is dropped when the MSHR
    file is full, and the drain path re-requests on demand.
    """

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats)
        self._prefetches = stats.counter(
            "commit_prefetches", "write-permission prefetches at commit")

    def on_store_commit(self, entry: SBEntry, cycle: int) -> None:
        if not self.config.memory.store_prefetch_at_commit:
            return
        if not self.port.is_writable(entry.line):
            self._prefetches.inc()
            if self.probe:
                self.probe.emit(cycle, "prefetch:commit", line=entry.line)
            # A committed store's write is non-speculative: the request
            # is demand-class (it may fill the whole MSHR file but is
            # never silently dropped in favour of the reserve).  If the
            # file is full anyway, the drain path re-requests at the head.
            self.port.request_write(entry.line, cycle, prefetch=False)


class CoalescingMechanism(PrefetchAtCommit):
    """Shared behaviour: coalesce committed stores in the WCBs.

    CSB and TUS re-purpose the write-combining buffers the same way
    (Section III-B): the SB head coalesces into atomic groups under the
    lex rule, loads forward from the buffers, and a full buffer file
    (or a lex conflict) forces a flush.  They differ only in how a
    flushed group reaches the L1D, which subclasses decide in
    :meth:`_flush` (CSB first needs permission for every line; TUS
    writes the group unauthorized and lets the WOQ order it).

    Drain-rate model: a cycle spends a commit-width budget; coalescing
    into a resident WCB line costs 1, a fresh allocation 2, and at most
    one group flush (also 2) can start.  A lex conflict ends the cycle.
    """

    def __init__(self, config, port, sb, events, stats,
                 wcb_entries: int) -> None:
        super().__init__(config, port, sb, events, stats)
        self.wcb = WCBFile(wcb_entries, stats.child("wcb"))
        self._flush_blocked = stats.counter(
            "flush_blocked_cycles", "cycles a WCB flush could not proceed")
        self._forward_latency = min(config.core.forward_latency,
                                    config.memory.l1d.latency)

    def _flush(self, cycle: int) -> bool:
        """Write every buffered atomic group to the L1D, all-or-nothing;
        False when the groups cannot go yet."""
        raise NotImplementedError

    def drain(self, cycle: int) -> int:
        entries = self.sb._entries
        if not entries or not entries[0].committed:
            # No SB pressure: opportunistically flush so fences and
            # quiescent phases converge.
            if self.wcb.buffers and self._flush(cycle):
                return 1
            return 0
        progress = 0
        budget = self.config.core.commit_width
        flushed = False
        wcb_insert = self.wcb.insert
        while budget > 0:
            if not entries or not entries[0].committed:
                break
            head = entries[0]
            result = wcb_insert(head.line, head.mask)
            if result == InsertResult.COALESCED:
                self.sb.pop_head(cycle)
                progress += 1
                budget -= 1
            elif result == InsertResult.ALLOCATED:
                self.sb.pop_head(cycle)
                progress += 1
                budget -= 2   # a fresh buffer allocation costs more
            elif result == InsertResult.LEX_CONFLICT:
                # The head store waits until the conflicting line has
                # been made visible; flushing the buffered groups is
                # what lets that happen.
                self._flush_blocked.inc()
                if not flushed and self._flush(cycle):
                    flushed = True
                    progress += 1
                break
            else:
                # NEED_FLUSH: push the buffered groups into the L1D;
                # at most one flush (L1D write burst) per cycle.
                if flushed or not self._flush(cycle):
                    self._flush_blocked.inc()
                    break
                flushed = True
                progress += 1
                budget -= 2
        return progress

    def drain_idle(self) -> bool:
        # The head-independent work is the opportunistic flush, which
        # needs buffered lines (a refused flush may still issue
        # requests or bump counters, so it is not skipped while
        # buffers exist).
        return not self.wcb.buffers

    def drained(self) -> bool:
        return self.wcb.empty

    def search(self, addr: int, size: int) -> Optional[int]:
        entry = self.wcb.find(addr)
        if entry is None:
            return None
        line = addr & ~63
        mask = ((1 << size) - 1) << (addr - line)
        if entry.mask & mask:
            return self._forward_latency
        return None

    # -- model-checker hooks -----------------------------------------------
    def _wcb_state(self, groups: dict) -> Tuple:
        """The WCB part of :meth:`modelcheck_state`, with atomic-group
        ids renumbered through ``groups`` (a :func:`group_id_map`)."""
        return (tuple([(entry.addr, entry.mask, groups[entry.group])
                       for entry in self.wcb.buffers]),
                self.wcb._last_written)

    def modelcheck_state(self) -> Tuple:
        groups = group_id_map(entry.group for entry in self.wcb.buffers)
        return (self.name,) + self._wcb_state(groups)

    def footprint_lines(self) -> Tuple[int, ...]:
        return tuple(sorted({entry.addr for entry in self.wcb.buffers}))
