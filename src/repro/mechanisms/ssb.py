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
from itertools import islice
from operator import itemgetter
from typing import Deque, Dict, List, Optional, Tuple

from ..common.addr import line_addr
from .base import COMMON_INVARIANTS, PrefetchAtCommit
from .registry import register

#: A window line's kept prefetch answer, unless it is the line's MSHR
#: entry (see SSBMechanism._prefetch_ahead).
_WRITABLE = "writable"
_REFUSE = "refuse"
#: The line of a TSOB entry.
_LINE = itemgetter(0)


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
        #: Each window line's last prefetch answer: ``_WRITABLE``,
        #: ``_REFUSE`` or the line's MSHR entry (see _prefetch_ahead).
        self._ahead_answers: Dict[int, object] = {}
        #: The port stamp (port epoch, MSHR version) every answer holds
        #: at.
        self._ahead_stamp: Optional[Tuple[int, int]] = None
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

        Each window line keeps the answer its last request got, and the
        walk replays it without re-issuing the request: a line found
        writable is skipped, a merge into the line's write MSHR and a
        refusal by a file with no prefetch room are only counted (the
        refusals still one by one, in window order, when faults or a
        probe need them), and a chain onto the line's in-flight read is
        requested again (it adds a waiter).  While the port stamp holds
        (``CorePort.epoch``, ``MSHRFile.version``: the port's caches and
        MSHRs are unchanged) every answer holds.  Once it moved, an
        answer is replayed only if what it rests on is still true: the
        line is writable; the line still has the same MSHR entry (only
        a fill of the line, which retires that entry, can make it
        writable); or the line has no entry, the file no prefetch room,
        and the line no permission.  Any other line is asked, as are
        lines that just entered the window.  One walk's own allocation
        only adds that line's entry: no other answer moves (a refusal
        cannot stand beside a file with room)."""
        port = self.port
        mshrs = port.mshrs
        held = self._ahead_stamp == (port.epoch, mshrs.version)
        answers = self._ahead_answers
        if self._ahead is None:
            self._ahead = self._window()
            # Answers outside the window are not kept up to date.
            answers = self._ahead_answers = {
                line: answers[line] for line in self._ahead
                if line in answers}
        merged, refused = 0, []
        for line in self._ahead:
            answer = answers.get(line)
            if answer is _WRITABLE:
                if held or port.is_writable_private(line):
                    continue
            elif answer is _REFUSE:
                if held or (mshrs.get(line) is None
                            and not mshrs.has_room(prefetch=True)
                            and not port.is_writable_private(line)):
                    refused.append(line)
                    continue
            elif answer is not None:
                if held or mshrs.get(line) is answer:
                    if answer.meta.get("write"):
                        merged += 1
                    else:
                        port.request_write(line, cycle, prefetch=True)
                    continue
            if refused:
                mshrs.refuse_all(refused, len(refused), cycle)
                refused = []
            self._ask(line, cycle)
        if merged:
            mshrs.count_merges(merged)
        if refused:
            mshrs.refuse_all(refused, len(refused), cycle)
        self._ahead_stamp = (port.epoch, mshrs.version)

    def _window(self) -> List[int]:
        """The first DRAIN_AHEAD_LINES distinct lines of the TSOB, in
        order, read from as short a prefix of it as will do."""
        want = self.DRAIN_AHEAD_LINES
        tsob = self._tsob
        scan = 8 * want
        while True:
            lines = dict.fromkeys(map(_LINE, islice(tsob, scan)))
            if len(lines) >= want or scan >= len(tsob):
                return list(islice(lines, want))
            scan *= 4

    def _ask(self, line: int, cycle: int) -> None:
        """Request write permission for one window line and keep the
        answer, unless an injected fault refused it (a replay would
        have to draw the fault again)."""
        port = self.port
        mshrs = port.mshrs
        if port.is_writable_private(line):
            answer = _WRITABLE
        elif port.request_write(line, cycle, prefetch=True):
            answer = mshrs.get(line)   # merged into, chained or allocated
        elif not mshrs.has_room(prefetch=True):
            answer = _REFUSE
        else:
            self._ahead_answers.pop(line, None)
            return
        self._ahead_answers[line] = answer

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
                self._ahead = None
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
        tsob = self._tsob
        tsob.popleft()
        if not tsob or tsob[0][0] != line:
            # The window keeps its order while the head keeps its line.
            self._ahead = None
        self._remove_line_mask(line, mask)
        if self.probe:
            self.probe.emit(cycle, "tsob:drain", line=line)
        # SSB performs each write in the shared-side cache (the paper's
        # "store by store" L2 updates); the L1D copy is refreshed only
        # when it is still resident.
        if self.port.is_writable(line):
            self.port.write_hit(line, cycle)
        elif self.port.visibility_hook is not None:
            # The L2-only write publishes too; observers must hear of it
            # as they do of write_hit's.
            self.port.visibility_hook([line], cycle)
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
