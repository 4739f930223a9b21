"""Temporarily Unauthorized Stores — the paper's mechanism.

Committed stores leaving the SB coalesce in the (re-purposed) WCBs;
when the WCBs must make room, their atomic groups are written to the
L1D as *unauthorized* lines under :class:`~repro.core.tus_controller
.TUSController` control.  The SB therefore never blocks on a store
miss: the always-hit illusion (Section III-A).

The SB -> WCB drain loop (and its drain-rate model), the WCB forwarding
search and the WCB model-checker state are the shared
:class:`~repro.mechanisms.base.CoalescingMechanism`, as for CSB; this
module decides the flush (WOQ admission, unauthorized group writes)
and adds the WOQ to the drained check and the model-checker hooks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..common.stats import Charge
from ..core.tus_controller import TUSController
from .base import COMMON_INVARIANTS, CoalescingMechanism, group_id_map
from .registry import register


@register("tus")
class TUSMechanism(CoalescingMechanism):
    """SB -> WCB coalescing -> unauthorized L1D writes ordered by the WOQ."""

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats,
                         config.tus.wcb_entries)
        self.controller = TUSController(config, port, stats.child("tus"))

    # -- draining -----------------------------------------------------------
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
        self.wcb.reset()
        if self.probe:
            self.probe.emit(cycle, "wcb:flush", groups=len(groups),
                            lines=sum(len(g) for g in groups))
        for group in groups:
            self.controller.write_group(group, cycle)
        return True

    def _flush_groups(self) -> List[List[Tuple[int, int]]]:
        """The buffered atomic groups as (line, mask) lists, in the
        order a flush writes them."""
        return [[(entry.addr, entry.mask) for entry in group]
                for group in self.wcb.groups()]

    # -- core-facing hooks -------------------------------------------------
    def drained(self) -> bool:
        return super().drained() and self.controller.drained

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
        # One first-seen renumbering over both structures, WCB groups
        # first, so a group's id is path-independent in either.
        woq = self.controller.woq
        groups = group_id_map(
            [entry.group for entry in self.wcb.buffers]
            + [entry.group for entry in woq])
        woq_state = tuple([
            (entry.line, groups[entry.group], entry.mask, entry.ready,
             entry.can_cycle, entry.deferred, entry.request_outstanding)
            for entry in woq])
        return ("tus",) + self._wcb_state(groups) + (woq_state,)

    def footprint_lines(self) -> Tuple[int, ...]:
        lines = set(super().footprint_lines())
        lines.update(entry.line for entry in self.controller.woq)
        return tuple(sorted(lines))
