"""The Coalescing Store Buffer (Ros & Kaxiras, ISCA'18).

Like TUS, CSB coalesces non-consecutive stores in the WCBs while
preserving x86-TSO via atomic groups and the lex order.  Unlike TUS, a
WCB group can only be written to the L1D once the core holds *write
permission for every line of the group* — so when a flush hits a miss,
the SB stops draining for the whole miss latency (the paper's key
criticism, Section II).  The SB -> WCB drain loop, the WCB forwarding
search and the WCB model-checker state are the shared
:class:`~repro.mechanisms.base.CoalescingMechanism`; this module only
decides the flush.

Two cores flushing overlapping groups would steal each other's freshly
granted lines forever, so CSB applies the same lex rule as TUS's
authorization unit, but at request time: a snoop for a flush-set line
the core already owns is *delayed* while every still-missing line of
the set has higher lex order (:meth:`CSBMechanism._hold_request`).  The
all-delays chain then follows strictly increasing lex order and cannot
close into a cycle.
"""

from __future__ import annotations

from typing import Tuple

from ..common.addr import lex_order
from .base import COMMON_INVARIANTS, CoalescingMechanism
from .registry import register


@register("csb")
class CSBMechanism(CoalescingMechanism):
    """SB -> WCB coalescing -> permission-gated atomic L1D writes."""

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats,
                         config.mechanisms.csb_wcb_entries)
        self._c_group_writes = stats.counter(
            "group_writes", "atomic groups written to the L1D")
        port.hold_hook = self._hold_request

    def _flush(self, cycle: int) -> bool:
        """Write buffered groups to the L1D; all lines need permission.

        Permission requests carry a grant callback that re-attempts the
        flush at the fill instant: waiting for the next drain step
        instead opens a window where a remote GetX steals the granted
        line first, and two cores flushing overlapping groups can steal
        from each other forever (the model checker's ``mixed`` scenario
        livelocks without this).
        """
        lines = [entry.addr for entry in self.wcb.buffers]
        missing = [line for line in lines if not self.port.is_writable(line)]
        if missing:
            for line in missing:
                if not self.port.write_request_outstanding(line):
                    self.port.request_write(line, cycle, self._flush_granted)
            return False
        groups = self.wcb.drain_groups()
        if self.probe:
            self.probe.emit(cycle, "wcb:flush", groups=len(groups),
                            lines=sum(len(g) for g in groups))
        for group in groups:
            for entry in group:
                self.port.write_hit(entry.addr, cycle)
            self._c_group_writes.inc()
        return True

    def _flush_granted(self, cycle: int) -> None:
        """Grant callback: flush immediately if the group is complete."""
        if not self.wcb.empty:
            self._flush(cycle)

    def _hold_request(self, addr: int, kind, requester: int,
                      cycle: int) -> bool:
        """The lex rule at snoop time: keep a granted flush-set line?

        Delay (True) when the requested line is part of the pending
        flush set, this core holds write permission for it, and every
        line of the set we are still *missing* has higher lex order
        than the request — the missing grants cannot depend on the
        requester finishing first, so holding on is deadlock-free.
        Otherwise relinquish (False): the snoop proceeds normally and
        the flush re-requests the line later.
        """
        if self.wcb.find(addr) is None or not self.port.is_writable(addr):
            return False
        missing = [lex_order(entry.addr) for entry in self.wcb.buffers
                   if not self.port.is_writable(entry.addr)]
        return not missing or min(missing) > lex_order(addr)

    def pending_publication(self, addr: int) -> bool:
        # A delayed line stays buffered until its group's write_hit
        # burst publishes it and the WCB entry drains.  A pure read: the
        # progress dump and the wait-graph invariant ask it.
        return self.wcb.holds(addr)

    # -- model-checker hooks -----------------------------------------------
    def modelcheck_invariants(self) -> Tuple[str, ...]:
        # CSB writes a group only with permission for every line in hand,
        # so unauthorized data must never appear in its caches; its lex
        # delays must never close into a wait cycle.
        return COMMON_INVARIANTS + ("no-unauthorized", "wait-graph")
