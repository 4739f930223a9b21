"""Visibility-order observer: checks Store->Store order on real runs.

The litmus machinery (:mod:`repro.models.tso`) validates TUS semantics
on small programs; this module closes the loop on the *timing
simulator*: it hooks every core's publication events (a baseline/SSB
store draining to the L1D, a CSB group write, a TUS atomic group
becoming visible) and verifies afterwards that each core's cache lines
became globally visible in an order consistent with its program store
order — the Store->Store clause of x86-TSO, modulo the atomicity of
coalesced groups.

Concretely, for every pair of lines (a, b) a core stored to, if *all*
of the core's stores to ``a`` precede *all* of its stores to ``b`` in
program order (the unambiguous case), then ``a`` must become visible no
later than ``b``.  Lines whose stores interleave form cycles and are
only published atomically, so no constraint applies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..common.addr import line_addr
from ..common.errors import TSOViolationError
from ..cpu.trace import Trace


class VisibilityObserver:
    """Records the order in which each core's lines become visible."""

    def __init__(self) -> None:
        #: Per core: list of (cycle, sequence, line) publication events.
        self.events: Dict[int, List[Tuple[int, int, int]]] = {}
        self._seq = 0

    def attach(self, system) -> None:
        """Install publication hooks on every core port of ``system``."""
        for port in system.memsys.ports:
            port.visibility_hook = self._make_hook(port.core_id)

    def _make_hook(self, core_id: int):
        def hook(lines: Sequence[int], cycle: int) -> None:
            self.record(core_id, lines, cycle)
        return hook

    def record(self, core_id: int, lines: Sequence[int],
               cycle: int) -> None:
        """One publication: ``lines`` became visible atomically."""
        self._seq += 1
        bucket = self.events.setdefault(core_id, [])
        for line in lines:
            bucket.append((cycle, self._seq, line_addr(line)))

    # ------------------------------------------------------------------
    def first_visibility(self, core_id: int) -> Dict[int, Tuple[int, int]]:
        """line -> (cycle, seq) of its first publication by ``core_id``."""
        first: Dict[int, Tuple[int, int]] = {}
        for cycle, seq, line in self.events.get(core_id, []):
            if line not in first:
                first[line] = (cycle, seq)
        return first

    def check_store_store_order(self, core_id: int, trace: Trace,
                                pairs: Optional[StorePairs] = None) -> int:
        """Verify Store->Store order for one core over ``pairs``
        (:func:`store_order_pairs` of ``trace`` unless given); returns
        the number of line pairs actually constrained.  Raises
        :class:`TSOViolationError` on any inversion."""
        if pairs is None:
            pairs = store_order_pairs(trace)
        visible = self.first_visibility(core_id)
        checked = 0
        for earlier, later in pairs:
            if earlier in visible and later in visible:
                checked += 1
                if visible[earlier][1] > visible[later][1]:
                    raise TSOViolationError(
                        f"core {core_id}: line {later:#x} became visible "
                        f"before {earlier:#x}, violating Store->Store "
                        f"order")
        return checked


#: ``(earlier, later)`` line pairs one core's store order constrains.
StorePairs = List[Tuple[int, int]]


def store_order_pairs(trace: Trace) -> StorePairs:
    """Every line pair ``(a, b)`` such that all of ``trace``'s stores to
    ``a`` precede all of its stores to ``b``; lines whose stores
    interleave form no pair.  Pairs come in the lines' first-store
    order, which fixes the first inversion reported."""
    program_order: Dict[int, List[int]] = {}
    position = 0
    for uop in trace:
        if uop.kind.is_store:
            program_order.setdefault(
                line_addr(uop.addr), []).append(position)
            position += 1
    lines = list(program_order)
    pairs: StorePairs = []
    for i, a in enumerate(lines):
        for b in lines[i + 1:]:
            if program_order[a][-1] < program_order[b][0]:
                pairs.append((a, b))
            elif program_order[b][-1] < program_order[a][0]:
                pairs.append((b, a))
    return pairs
