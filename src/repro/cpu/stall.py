"""Dispatch-stall taxonomy and accounting.

The paper attributes each stalled dispatch cycle to the *first missing
resource* ("The stall is only attributed to the first resource that is
missing, and they are not disjoint", Section VI-A).  We reproduce that
rule: when dispatch makes no progress in a cycle, the cycle is charged to
whichever resource blocks the micro-op at the head of the dispatch
stream.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..common.stats import StatGroup
from ..observe.bus import NULL_PROBE


class StallReason(enum.IntEnum):
    """Why dispatch made no progress in a cycle.

    An ``IntEnum`` so the accounting hot path can index a plain list
    with the reason (C-level, no enum ``__hash__`` call per charge);
    :attr:`label` carries the short name used in stats and reports.
    """

    NONE = 0                       # dispatch proceeded (not a stall)
    SB_FULL = 1                    # store blocked: store buffer full
    ROB_FULL = 2                   # ROB full
    LQ_FULL = 3                    # load queue full
    FENCE = 4                      # fence draining the SB at ROB head
    FRONTEND = 5                   # trace exhausted / nothing to dispatch

    @property
    def label(self) -> str:
        return _LABELS[self]


_LABELS = {
    StallReason.NONE: "none",
    StallReason.SB_FULL: "sb",
    StallReason.ROB_FULL: "rob",
    StallReason.LQ_FULL: "lq",
    StallReason.FENCE: "fence",
    StallReason.FRONTEND: "frontend",
}

#: Every reason but NONE, in value order (enum iteration is slow, and
#: every core of every system builds its account from this).
_STALLS = tuple(StallReason)[1:]


class StallAccount:
    """Per-core stall-cycle bookkeeping."""

    def __init__(self, stats: StatGroup) -> None:
        group = stats.child("stalls")
        self._counters = {
            reason: group.counter(_LABELS[reason],
                                  f"cycles stalled on {_LABELS[reason]}")
            for reason in _STALLS
        }
        #: Counters indexed by the (Int)reason; NONE maps to None.
        self._by_index = [None] + list(self._counters.values())
        self._total = stats.counter("stall_cycles", "total stalled cycles")
        self.current: StallReason = StallReason.NONE
        self.probe = NULL_PROBE

    def charge(self, reason: StallReason, cycles: int = 1,
               cycle: Optional[int] = None) -> None:
        """Charge ``cycles`` of stall to ``reason``."""
        if cycles <= 0:
            return
        counter = self._by_index[reason]
        if counter is None:
            return
        counter.value += cycles
        self._total.value += cycles
        if self.probe:
            self.probe.emit(cycle if cycle is not None else 0, "stall",
                            reason=_LABELS[reason], cycles=cycles)

    def cycles(self, reason: StallReason) -> int:
        return self._counters[reason].value

    def breakdown(self) -> Dict[str, int]:
        return {_LABELS[reason]: counter.value
                for reason, counter in self._counters.items()}

    @property
    def total(self) -> int:
        return self._total.value
