"""The baseline store path.

Modern-x86-like store handling (Section V): write permission is
prefetched when the store commits, L1D store accesses are pipelined
(one drain per cycle back-to-back), and the SB head blocks until its
line is writable.  A long-latency store miss therefore blocks the SB
for the full miss latency — the head-of-line blocking TUS removes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..common.stats import Charge
from .base import COMMON_INVARIANTS, PrefetchAtCommit
from .registry import register


@register("baseline")
class BaselineMechanism(PrefetchAtCommit):
    """SB drains in order, one store per cycle, blocking on misses."""

    name = "baseline"

    def __init__(self, config, port, sb, events, stats) -> None:
        super().__init__(config, port, sb, events, stats)
        self._blocked = stats.counter(
            "drain_blocked_cycles",
            "cycles the SB head waited for write permission")
        self._waiting = None   # head entry whose request is outstanding
        self._blocked_charge: Charge = ((self._blocked, 1),)

    def drain(self, cycle: int) -> int:
        head = self.sb.head_committed()
        if head is None:
            return 0
        if not self.port.is_writable(head.line):
            # Ensure a demand request is outstanding (the commit-time
            # prefetch may have been dropped, or a granted line stolen
            # by another core before the drain used it) and wait.
            if self._waiting is not head or \
                    not self.port.write_request_outstanding(head.line):
                self.port.request_write(head.line, cycle)
                self._waiting = head
            self._blocked.inc()
            if self.probe:
                self.probe.emit(cycle, "drain:blocked", line=head.line)
            return 0
        self._waiting = None
        self.sb.pop_head(cycle)
        self.port.write_hit(head.line, cycle)
        return 1

    def drain_idle(self) -> bool:
        # Without a committed SB head, drain() returns immediately.
        return True

    def drain_charge(self) -> Optional[Charge]:
        head = self.sb.head_committed()
        if head is None:
            return ()
        # A blocked head whose write request is outstanding only counts
        # the wait.  An in-flight *read* is not enough: each call would
        # chain another write request onto it.
        if self._waiting is head and not self.port.is_writable(head.line) \
                and self.port.write_request_outstanding(head.line):
            return self._blocked_charge
        return None

    # -- model-checker hooks -----------------------------------------------
    def modelcheck_invariants(self) -> Tuple[str, ...]:
        # Baseline drains store by store with permission in hand; nothing
        # beyond the common set plus the no-unauthorized rule applies.
        return COMMON_INVARIANTS + ("no-unauthorized",)

    def modelcheck_state(self) -> Tuple:
        waiting = self._waiting
        return ("baseline",
                None if waiting is None else (waiting.line, waiting.seq))

    def footprint_lines(self) -> Tuple[int, ...]:
        waiting = self._waiting
        return () if waiting is None else (waiting.line,)
