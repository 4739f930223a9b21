"""The TUS L1D-side controller.

This is the paper's operation flow (Figure 7) made executable: it writes
atomic groups of committed stores into the L1D *without* write
permission, tracks them in the WOQ, combines arriving permissions, makes
groups visible in x86-TSO order, and answers external requests through
the authorization unit (delay or relinquish).

The controller owns the policy; the mechanics of cache arrays, MSHRs
and coherence transactions belong to :mod:`repro.coherence.memsys`,
which calls back through ``fill_hook`` / ``snoop_hook``.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..common.addr import lex_conflict, line_addr, set_index
from ..common.config import SystemConfig
from ..common.errors import SimulationError
from ..common.stats import Charge, StatGroup
from ..coherence.memsys import CorePort
from ..coherence.msgs import SnoopKind, SnoopReply, SnoopResult
from ..mem.cacheline import CacheLine, State
from ..observe.bus import NULL_PROBE
from .authorization import AuthorizationUnit, Decision
from .woq import WOQEntry, WriteOrderingQueue

#: An atomic group handed to :meth:`TUSController.write_group`:
#: (line address, byte mask) pairs.
Group = Sequence[Tuple[int, int]]


class Admission(NamedTuple):
    """A group check's answer: truthy when the write may proceed.

    ``charge`` is what the check counts: the WOQ searches it made, and
    for a refusal ``group_blocked`` (plus the WOQ's ``full_stalls``
    when the WOQ lacked room).  A writer applies it when it acts on the
    check; a caller predicting a no-op drain reports it unapplied.
    """

    accepted: bool
    charge: Charge

    def __bool__(self) -> bool:
        return self.accepted


class TUSController:
    """Unauthorized-store handling for one core's L1D."""

    def __init__(self, config: SystemConfig, port: CorePort,
                 stats: StatGroup) -> None:
        self.config = config
        self.tus = config.tus
        self.port = port
        self.woq = WriteOrderingQueue(config.tus.woq_entries,
                                      stats.child("woq"))
        self.auth = AuthorizationUnit(
            self.woq, config.tus.unsound_authorization)
        self.stats = stats
        self._c_unauth_writes = stats.counter(
            "unauthorized_writes", "stores written to L1D without permission")
        self._c_auth_writes = stats.counter(
            "authorized_writes", "stores written to lines with permission")
        self._c_group_blocked = stats.counter(
            "group_blocked", "group writes delayed (ways/WOQ/can-cycle)")
        #: What a refused group check counts; a full WOQ counts its own
        #: ``full_stalls`` as well.
        self._refused: Charge = ((self._c_group_blocked, 1),)
        self._refused_woq_full: Charge = self._refused + (
            (self.woq.c_full_stalls, 1),)
        self._c_relinquished = stats.counter(
            "relinquished_lines", "lines whose permission was given up")
        self._c_delayed = stats.counter(
            "delayed_requests", "external requests answered DELAY")
        self._c_reissues = stats.counter(
            "permission_reissues", "deferred GetX re-requests")
        port.fill_hook = self._on_fill
        port.snoop_hook = self._on_snoop
        self._now = 0
        self.probe = NULL_PROBE

    # ------------------------------------------------------------------
    # Write path (Figure 7, left side)
    # ------------------------------------------------------------------
    def can_accept(self, group: Group) -> "Admission":
        """Can this atomic group be written to the L1D right now?

        All-or-nothing (Section III-B): every line needs either an
        existing L1D entry or a free way in its set, the WOQ needs room
        for every new line, merged groups may not exceed the configured
        maximum, and no involved entry may have its CanCycle bit cleared
        (a conflict resolution is in progress).

        Side-effect free: the returned :class:`Admission` is truthy when
        the write may proceed and carries the counters the check bumps,
        which the caller applies when it acts on the answer.
        """
        searches, refusal = self._check(group)
        charge: Charge = ((self.woq.c_searches, searches),) \
            if searches else ()
        if refusal is None:
            return Admission(True, charge)
        return Admission(False, charge + refusal)

    def can_accept_all(self, groups: Sequence[Group]) -> "Admission":
        """Cumulative :meth:`can_accept` over several groups written in
        the same flush: the WOQ room and the free ways consumed by the
        earlier groups must be reserved before checking the later ones.
        The first refused group ends the check."""
        charge: Charge = ()
        for group in groups:
            admission = self.can_accept(group)
            charge += admission.charge
            if not admission:
                return Admission(False, charge)
        total_new = 0
        ways_needed: dict = {}
        for group in groups:
            for addr, _mask in group:
                line = self.port.l1d.probe(addr)
                if line is None:
                    idx = set_index(addr, self.port.l1d.config.num_sets)
                    ways_needed[idx] = ways_needed.get(idx, 0) + 1
                    total_new += 1
                elif not line.not_visible:
                    total_new += 1
        if not self.woq.room_for(total_new):
            return Admission(False, charge + self._refused_woq_full)
        for idx, needed in ways_needed.items():
            if self.port.l1d.free_ways(idx << 6) < needed:
                return Admission(False, charge + self._refused)
        return Admission(True, charge)

    def _check(self, group: Group) -> Tuple[int, Optional[Charge]]:
        """:meth:`can_accept`'s rules: the WOQ searches they make, and
        None or the charge of the refusal."""
        if len(group) > self.tus.max_atomic_group:
            return 0, self._refused
        searches = 0
        new_lines = 0
        ways_needed: dict = {}
        merge_targets: List[WOQEntry] = []
        for addr, _mask in group:
            line = self.port.l1d.probe(addr)
            if line is None:
                new_lines += 1
                idx = set_index(addr, self.port.l1d.config.num_sets)
                ways_needed[idx] = ways_needed.get(idx, 0) + 1
            elif line.not_visible:
                searches += 1
                entry = self.woq.get_quiet(addr)
                if entry is None:
                    raise SimulationError(
                        f"not-visible line {addr:#x} missing from WOQ")
                if not entry.can_cycle:
                    return searches, self._refused
                merge_targets.append(entry)
            else:
                new_lines += 1   # visible line: re-enters the WOQ
        if not self.woq.room_for(new_lines):
            return searches, self._refused_woq_full
        line_shift = 6
        for set_idx, needed in ways_needed.items():
            if self.port.l1d.free_ways(set_idx << line_shift) < needed:
                return searches, self._refused
        if merge_targets:
            oldest = self.woq.older_entries(merge_targets[0])[-1]
            for target in merge_targets:
                if len(self.woq.older_entries(target)) < len(
                        self.woq.older_entries(oldest)):
                    oldest = target
            merged = self.woq.group_size_after_merge(oldest) + new_lines
            if merged > self.tus.max_atomic_group:
                return searches, self._refused
        return searches, None

    def write_group(self, group: Group, cycle: int) -> None:
        """Write an atomic group into the L1D (caller checked
        :meth:`can_accept` in the same cycle)."""
        self._now = cycle
        merge_entry = self._oldest_merge_target(group)
        if merge_entry is not None:
            self.woq.merge_to_tail(merge_entry, cycle)
            group_id = merge_entry.group
        else:
            group_id = self.woq.new_group_id()
        for addr, mask in group:
            self._write_line(line_addr(addr), mask, group_id, cycle)
        self._try_make_visible(cycle)

    def _oldest_merge_target(self, group: Group) -> Optional[WOQEntry]:
        oldest = None
        oldest_pos = None
        for addr, _mask in group:
            line = self.port.l1d.probe(addr)
            if line is not None and line.not_visible:
                entry = self.woq.find(addr)
                pos = len(self.woq.older_entries(entry))
                if oldest_pos is None or pos < oldest_pos:
                    oldest, oldest_pos = entry, pos
        return oldest

    def _write_line(self, addr: int, mask: int, group_id: int,
                    cycle: int) -> None:
        line = self.port.l1d.probe(addr)
        if line is not None and line.not_visible:
            # A store cycle: merge into the existing entry.
            entry = self.woq.find(addr)
            entry.mask |= mask
            line.write_mask |= mask
            self.port.l1d.record_write()
            self._c_unauth_writes.inc()
            if self.probe:
                self.probe.emit(cycle, "tus:write-unauth", line=addr)
            return
        if line is None:
            line = self.port.l1d.allocate(
                addr, State.I, cycle, on_evict=self.port._evict_from_l1)
        entry = self.woq.append(addr, mask, group_id, cycle)
        line.write_mask |= mask
        line.not_visible = True
        self.port.l1d.record_write()
        if line.state >= State.E:
            # Case 2 of Section III-A: authorized write.  A modified line
            # must first push its current (visible) data to the L2 so a
            # valid authorized copy survives.
            if line.dirty:
                self.port.update_l2(addr)
            line.state = State.M
            line.ready = True
            entry.ready = True
            self._c_auth_writes.inc()
            if self.probe:
                self.probe.emit(cycle, "tus:write-auth", line=addr)
            return
        # Unauthorized: request write permission; the fill hook combines.
        line.ready = False
        self._c_unauth_writes.inc()
        if self.probe:
            self.probe.emit(cycle, "tus:write-unauth", line=addr)
        self._request_permission(entry, cycle)

    # ------------------------------------------------------------------
    # Permission arrival (Figure 7, middle)
    # ------------------------------------------------------------------
    def _on_fill(self, addr: int, line: CacheLine, cycle: int) -> None:
        entry = self.woq.find(addr)
        if entry is None:
            raise SimulationError(
                f"permission arrived for untracked line {addr:#x}")
        entry.ready = True
        entry.request_outstanding = False
        self._try_make_visible(cycle)
        self._reissue_deferred(cycle)

    def _try_make_visible(self, cycle: int) -> None:
        while self.woq.head_group_ready():
            published = []
            for entry in self.woq.pop_head_group():
                line = self.port.l1d.probe(entry.line)
                if line is None:
                    raise SimulationError(
                        f"visible pop lost line {entry.line:#x}")
                # Bulk reset: the line joins the coherent world.
                line.not_visible = False
                line.ready = False
                line.write_mask = 0
                if line.state < State.E:
                    raise SimulationError(
                        f"making {entry.line:#x} visible without permission")
                line.state = State.M
                published.append(entry.line)
            if published and self.probe:
                self.probe.emit(cycle, "woq:visible",
                                lines=list(published))
            if published and self.port.visibility_hook is not None:
                self.port.visibility_hook(published, cycle)
        self._reissue_deferred(cycle)

    def _reissue_deferred(self, cycle: int) -> None:
        # Covers both relinquished (deferred) lines and lines whose
        # original GetX was dropped because the MSHR file was full.
        target = self.auth.reissue_target()
        if target is None:
            return
        self._c_reissues.inc()
        if self.probe:
            self.probe.emit(cycle, "tus:reissue", line=target.line)
        target.deferred = False
        self._request_permission(target, cycle)

    def _request_permission(self, entry: WOQEntry, cycle: int) -> None:
        """Issue (or re-issue) the GetX for ``entry``, with a self-retry
        when the MSHR file refuses the request."""
        if entry.ready or entry.request_outstanding:
            return
        if self.port.request_write(entry.line, cycle):
            entry.request_outstanding = True
            return
        retry = cycle + 4
        self.port.system.events.schedule(
            retry, lambda: self._retry_permission(entry.line, retry),
            label=f"tus-retry:{entry.line:#x}", actor=self.port.core_id)

    def _retry_permission(self, line: int, cycle: int) -> None:
        entry = self.woq.get_quiet(line)
        if entry is None or entry.ready or entry.request_outstanding \
                or entry.deferred:
            return
        self._request_permission(entry, cycle)

    # ------------------------------------------------------------------
    # External requests (Figure 7, right side / Section III-C)
    # ------------------------------------------------------------------
    def _on_snoop(self, addr: int, kind: SnoopKind, requester: int,
                  cycle: int) -> SnoopReply:
        entry = self.woq.find(addr)
        if entry is None:
            raise SimulationError(
                f"snoop consulted TUS for untracked line {addr:#x}")
        decision = self.auth.check(addr, cycle)
        # Freeze the group composition while the conflict resolves.
        for member in self.woq:
            if member.group == entry.group:
                member.can_cycle = False
        if decision.delay:
            self._c_delayed.inc()
            if self.probe:
                self.probe.emit(cycle, "tus:delay", line=addr,
                                requester=requester)
            return SnoopReply(SnoopResult.DELAY)
        relinquish = list(decision.relinquish)
        if entry.ready and entry not in relinquish:
            # The requested line itself always gives up its permission
            # when the request cannot be delayed.
            relinquish.append(entry)
        for victim in relinquish:
            self._relinquish(victim, cycle)
        self._reissue_deferred(cycle)
        line = self.port.l1d.probe(addr)
        if entry in relinquish or not line.state:
            # The requester is served the unmodified copy held by our
            # (inclusive) private L2; our unauthorized data stays local.
            self.port.l2.invalidate(addr)
            return SnoopReply(SnoopResult.RELINQUISH_OLD_DATA)
        # The entry never had permission here (e.g. an S copy being
        # upgraded elsewhere): acknowledge, drop the stale copies, keep
        # the unauthorized data.
        line.state = State.I
        self.port.l2.invalidate(addr)
        return SnoopReply(SnoopResult.ACK)

    def _relinquish(self, entry: WOQEntry,
                    cycle: Optional[int] = None) -> None:
        line = self.port.l1d.probe(entry.line)
        if line is None:
            raise SimulationError(
                f"relinquishing untracked line {entry.line:#x}")
        entry.ready = False
        entry.deferred = True
        entry.request_outstanding = False
        line.ready = False
        line.state = State.I
        self.port.l2.invalidate(entry.line)
        self._c_relinquished.inc()
        if self.probe:
            self.probe.emit(cycle if cycle is not None else self._now,
                            "tus:relinquish", line=entry.line)

    # ------------------------------------------------------------------
    @property
    def drained(self) -> bool:
        return self.woq.empty

    def next_wake(self, cycle: int) -> Optional[int]:
        return None
