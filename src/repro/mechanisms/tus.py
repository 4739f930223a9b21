"""Temporarily Unauthorized Stores — the paper's mechanism.

Committed stores leaving the SB coalesce in the (re-purposed) WCBs;
when the WCBs must make room, their atomic groups are written to the
L1D as *unauthorized* lines under :class:`~repro.core.tus_controller
.TUSController` control.  The SB therefore never blocks on a store
miss: the always-hit illusion (Section III-A).

Drain-rate model: coalescing into an already-resident WCB line is cheap
(several per cycle, bounded by commit width), a fresh WCB allocation
takes the cycle, and one group flush to the L1D can start per cycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.stats import Charge
from ..core.tus_controller import TUSController
from ..mem.wcb import InsertResult, WCBFile
from .base import COMMON_INVARIANTS, PrefetchAtCommit, group_id_map
from .registry import register


@register("tus")
class TUSMechanism(PrefetchAtCommit):
    """SB -> WCB coalescing -> unauthorized L1D writes ordered by the WOQ."""

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats)
        self.controller = TUSController(config, port, stats.child("tus"))
        self.wcb = WCBFile(config.tus.wcb_entries, stats.child("wcb"))
        self._flush_blocked = stats.counter(
            "flush_blocked_cycles", "cycles a WCB flush could not proceed")
        self._forward_latency = min(config.core.forward_latency,
                                    config.memory.l1d.latency)

    # -- draining -----------------------------------------------------------
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
                # been made visible; flushing the buffers into the WOQ
                # pipeline is what lets that happen.
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
        # With no buffered WCB lines there is nothing to flush, so a
        # drain without a committed SB head is a guaranteed no-op.
        return not self.wcb.buffers

    def drain_charge(self) -> Optional[Charge]:
        # drain() is a no-op when the head store (if any) is refused by
        # the WCBs and the flush that would make room is refused too;
        # the counts are the refused insert's, the flush check's, and
        # ``flush_blocked_cycles`` for a blocked head.
        entries = self.sb._entries
        charge: Charge = ()
        if entries and entries[0].committed:
            refusal = self.wcb.refusal(entries[0].line)
            if refusal is None:
                return None
            charge = self.wcb.refusal_charge(refusal) + (
                (self._flush_blocked, 1),)
        elif not self.wcb.buffers:
            return charge
        admission = self.controller.can_accept_all(self._flush_groups())
        return None if admission else charge + admission.charge

    def _flush(self, cycle: int) -> bool:
        """Write every buffered atomic group to the L1D, all-or-nothing."""
        groups = self._flush_groups()
        if not groups:
            return False
        admission = self.controller.can_accept_all(groups)
        for counter, delta in admission.charge:
            counter.value += delta
        if not admission:
            return False
        self.wcb.drain_groups()
        if self.probe:
            self.probe.emit(cycle, "wcb:flush", groups=len(groups),
                            lines=sum(len(g) for g in groups))
        for group in groups:
            self.controller.write_group(group, cycle)
        return True

    def _flush_groups(self) -> List[List[Tuple[int, int]]]:
        """The buffered atomic groups as (line, mask) lists, in the
        order a flush writes them."""
        by_group = {}
        for entry in self.wcb.buffers:
            by_group.setdefault(entry.group, []).append(
                (entry.addr, entry.mask))
        return [by_group[g] for g in sorted(by_group)]

    # -- core-facing hooks -------------------------------------------------
    def drained(self) -> bool:
        return self.wcb.empty and self.controller.drained

    def search(self, addr: int, size: int) -> Optional[int]:
        entry = self.wcb.find(addr)
        if entry is not None:
            line = addr & ~63
            offset = addr - line
            mask = ((1 << size) - 1) << offset
            if entry.mask & mask:
                return self._forward_latency
        # Unauthorized L1D lines are handled by the port (loads alias to
        # the line and wait for the permission if the data is not ready).
        return None

    def next_wake(self, cycle: int) -> Optional[int]:
        return None

    def pending_publication(self, addr: int) -> bool:
        # A TUS delay hides a not-visible L1D line, and tus-sync keeps
        # those in 1:1 correspondence with the WOQ.
        return self.controller.woq.contains(addr)

    # -- model-checker hooks -----------------------------------------------
    def modelcheck_invariants(self) -> Tuple[str, ...]:
        # TUS deliberately holds unauthorized data, so "no-unauthorized"
        # is replaced by the WOQ/L1D synchronisation rule plus the
        # wait-for-graph acyclicity argument of the paper's deadlock
        # freedom discussion.
        return COMMON_INVARIANTS + ("tus-sync", "wait-graph")

    def modelcheck_state(self) -> Tuple:
        woq = self.controller.woq
        groups = group_id_map(
            [entry.group for entry in self.wcb.buffers]
            + [entry.group for entry in woq])
        wcb_state = tuple((entry.addr, entry.mask, groups[entry.group])
                          for entry in self.wcb.buffers)
        woq_state = tuple(
            (entry.line, groups[entry.group], entry.mask, entry.ready,
             entry.can_cycle, entry.deferred, entry.request_outstanding)
            for entry in woq)
        return ("tus", wcb_state, self.wcb._last_written, woq_state)

    def footprint_lines(self) -> Tuple[int, ...]:
        lines = {entry.addr for entry in self.wcb.buffers}
        lines.update(entry.line for entry in self.controller.woq)
        return tuple(sorted(lines))
