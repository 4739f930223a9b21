"""The Scalable Store Buffer (Wenisch et al., ISCA'07) — idealised.

Stores leave the SB immediately into a large in-order queue (the TSOB,
1K entries by default) whose head drains to memory one store at a time,
requiring write permission per store and updating the L2 on every write
(SSB does not coalesce).  Store-to-load forwarding is performed at L1D
latency (SSB's key trick: no associative search of the big queue).

Following the paper's methodology we model an *idealised* SSB: magic
0-cycle recovery on invalidations (no TSOB replay cost), so the numbers
are an upper bound on SSB performance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..common.addr import line_addr
from .base import COMMON_INVARIANTS, PrefetchAtCommit
from .registry import register


@register("ssb")
class SSBMechanism(PrefetchAtCommit):
    """SB -> TSOB (large FIFO) -> per-store L1D+L2 writes in order."""

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats)
        self.capacity = config.mechanisms.ssb_tsob_entries
        self._tsob: Deque[Tuple[int, int]] = deque()   # (line, mask)
        self._tsob_lines: Dict[int, int] = {}          # line -> union mask
        #: line -> {mask: stores} over the TSOB, so a drain updates the
        #: line's union mask without rescanning the queue.
        self._line_masks: Dict[int, Dict[int, int]] = {}
        #: The first DRAIN_AHEAD_LINES distinct TSOB lines; None once a
        #: drain or append may have changed them.
        self._ahead: Optional[List[int]] = None
        #: The last prefetch walk over ``_ahead``, replayable while its
        #: stamp (port epoch, MSHR version) holds: the lines it
        #: requested and the lines among them the MSHR file refused.
        self._ahead_plan: Optional[Tuple] = None
        self._occupancy = stats.histogram(
            "tsob_occupancy", bucket_width=64, num_buckets=17)
        self._c_l1_writes = stats.counter("tsob_drains",
                                          "stores drained from the TSOB")
        self._c_blocked = stats.counter(
            "tsob_blocked_cycles", "cycles the TSOB head waited")
        self._forward_latency = config.memory.l1d.latency

    #: How many unique lines near the TSOB head keep an outstanding
    #: write-permission request (SSB acquires permissions ahead of the
    #: in-order drain point, as any store-wait-free design must).
    DRAIN_AHEAD_LINES = 16

    def drain(self, cycle: int) -> int:
        progress = self._fill_tsob(cycle)
        progress += self._drain_tsob(cycle)
        self._prefetch_ahead(cycle)
        return progress

    def _prefetch_ahead(self, cycle: int) -> None:
        """Request write permission for the head window's lines.

        While neither the window nor the port's caches or MSHRs have
        changed, a walk would find the same lines without permission
        and get the same answers, so the last walk's answers are
        replayed without re-issuing the requests: merges into existing
        MSHRs and refusals are only counted (a chain onto an in-flight
        read adds a waiter, so those lines are requested again)."""
        port = self.port
        mshrs = port.mshrs
        stamp = (port.epoch, mshrs.version)
        plan = self._ahead_plan
        if plan is not None and plan[0] == stamp:
            _, chained, merged, refused = plan
            for line in chained:
                port.request_write(line, cycle, prefetch=True)
            if merged:
                mshrs.count_merges(merged)
            if refused:
                mshrs.refuse_all(refused, len(refused), cycle)
            return
        if self._ahead is None:
            ahead = {}
            for line, _mask in self._tsob:
                if line not in ahead:
                    if len(ahead) == self.DRAIN_AHEAD_LINES:
                        break
                    ahead[line] = None
            self._ahead = list(ahead)
        chained, merged, refused = [], 0, []
        for line in self._ahead:
            if port.is_writable_private(line):
                continue
            if not port.request_write(line, cycle, prefetch=True):
                refused.append(line)
            elif mshrs.get(line).meta.get("write"):
                merged += 1
            else:
                chained.append(line)   # waits on an in-flight read
        # Replayable only if the walk allocated nothing and its refusals
        # were for want of room (not injected faults a replay would redraw).
        self._ahead_plan = (
            (stamp, chained, merged, refused)
            if (port.epoch, mshrs.version) == stamp
            and (not refused or not mshrs.has_room(prefetch=True))
            else None)

    def _fill_tsob(self, cycle: int) -> int:
        moved = 0
        while moved < self.config.core.commit_width:
            if len(self._tsob) >= self.capacity:
                break
            head = self.sb.head_committed()
            if head is None:
                break
            self.sb.pop_head(cycle)
            self._tsob.append((head.line, head.mask))
            self._tsob_lines[head.line] = (
                self._tsob_lines.get(head.line, 0) | head.mask)
            masks = self._line_masks.setdefault(head.line, {})
            masks[head.mask] = masks.get(head.mask, 0) + 1
            if self._ahead is not None \
                    and len(self._ahead) < self.DRAIN_AHEAD_LINES:
                self._ahead = self._ahead_plan = None
            moved += 1
        if moved:
            self._occupancy.sample(len(self._tsob))
        return moved

    def _drain_tsob(self, cycle: int) -> int:
        if not self._tsob:
            return 0
        line, mask = self._tsob[0]
        if not self.port.is_writable_private(line):
            self.port.request_write(line, cycle)
            self._c_blocked.inc()
            if self.probe:
                self.probe.emit(cycle, "drain:blocked", line=line)
            return 0
        self._tsob.popleft()
        self._ahead = self._ahead_plan = None
        self._remove_line_mask(line, mask)
        if self.probe:
            self.probe.emit(cycle, "tsob:drain", line=line)
        # SSB performs each write in the shared-side cache (the paper's
        # "store by store" L2 updates); the L1D copy is refreshed only
        # when it is still resident.
        if self.port.is_writable(line):
            self.port.write_hit(line, cycle)
        self.port.update_l2(line)
        self._c_l1_writes.inc()
        return 1

    def _remove_line_mask(self, line: int, mask: int) -> None:
        masks = self._line_masks[line]
        count = masks.pop(mask) - 1
        if count:
            masks[mask] = count
            return   # the union is unchanged
        if not masks:
            del self._line_masks[line]
            del self._tsob_lines[line]
            return
        remaining = 0
        for other_mask in masks:
            remaining |= other_mask
        self._tsob_lines[line] = remaining

    def drained(self) -> bool:
        return not self._tsob

    def drain_idle(self) -> bool:
        # An occupied TSOB keeps draining (and prefetching ahead)
        # regardless of the SB head; empty, drain() cannot act.
        return not self._tsob

    def search(self, addr: int, size: int) -> Optional[int]:
        line = line_addr(addr)
        union = self._tsob_lines.get(line)
        if union is None:
            return None
        offset = addr - line
        mask = ((1 << size) - 1) << offset
        if union & mask:
            return self._forward_latency
        return None

    # -- model-checker hooks -----------------------------------------------
    def modelcheck_invariants(self) -> Tuple[str, ...]:
        # The TSOB drains in order, one store at a time, with permission
        # acquired per store — the common MESI rules apply unchanged.
        return COMMON_INVARIANTS + ("no-unauthorized",)

    def modelcheck_state(self) -> Tuple:
        return ("ssb", tuple(self._tsob))

    def footprint_lines(self) -> Tuple[int, ...]:
        return tuple(sorted(self._tsob_lines))
