"""The out-of-order core timing model.

A trace-driven model of the resources that matter for store handling
(Figure 1 of the paper): dispatch, ROB, load queue, store buffer, and
the commit stage.  Each call to :meth:`Core.step` advances one cycle:

1. *commit* — retire up to ``commit_width`` finished micro-ops from the
   ROB head; committing a store just sets its SB ``committed`` bit, and a
   fence retires only once the SB and the mechanism's post-SB structures
   have drained;
2. *drain* — the active store-handling mechanism moves committed stores
   out of the SB head (this is where baseline/TUS/SSB/CSB/SPB differ);
3. *dispatch* — insert up to ``dispatch_width`` micro-ops into the ROB
   (and LQ/SB); when dispatch makes no progress the cycle is charged to
   the first missing resource (the paper's Figure 9 attribution rule).

Execution is modelled with dependency-aware completion times: ALU
micro-ops complete ``latency`` cycles after their operands are ready;
loads search the SB (store-to-load forwarding at the size-dependent CAM
latency) and the mechanism's buffers before accessing the L1D through
the memory port.

The core cooperates with the surrounding event-driven simulation: when a
cycle makes no progress, :meth:`Core.next_wake` reports the next cycle at
which anything *can* happen so the system can fast-forward across long
memory stalls without burning host time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..common.config import SystemConfig
from ..common.stats import StatGroup
from ..coherence.memsys import CorePort
from ..observe.bus import NULL_PROBE
from .isa import OpKind, UOp
from .lsq import LoadQueue
from .stall import StallAccount, StallReason
from .storebuffer import StoreBuffer
from .trace import Trace

# Hoisted OpKind members: identity checks in the dispatch/commit loops
# replace the enum property calls (`kind.is_store` etc.), which dominate
# the per-uop cost under CPython.
_LOAD = OpKind.LOAD
_STORE = OpKind.STORE
_FENCE = OpKind.FENCE

#: :meth:`Core.idle_charge`'s answer for a step :meth:`Core.stuck_at`
#: skips: its stall charge is deferred until the core is next stepped.
DEFER = "defer"


class ROBEntry:
    """One in-flight micro-op."""

    __slots__ = ("uop", "index", "complete_cycle", "waiting_mem",
                 "dependents", "sb_entry")

    def __init__(self, uop: UOp, index: int) -> None:
        self.uop = uop
        self.index = index
        #: Cycle at which the result is available; None while unresolved
        #: (waiting on a producer or on memory).
        self.complete_cycle: Optional[int] = None
        self.waiting_mem = False
        #: Entries whose issue waits for this one to complete; None
        #: until the first registers (most micro-ops have none).
        self.dependents: Optional[List["ROBEntry"]] = None
        self.sb_entry = None


class Core:
    """One out-of-order core executing a trace."""

    def __init__(self, core_id: int, config: SystemConfig, port: CorePort,
                 trace: Trace, mechanism, stats: StatGroup) -> None:
        self.core_id = core_id
        self.config = config.core
        self.port = port
        self.trace = trace
        self.mechanism = mechanism
        self.stats = stats
        # Hot-loop constants, hoisted out of the per-cycle methods.
        self._trace_uops = trace.uops
        self._trace_len = len(trace.uops)
        self._dispatch_width = config.core.dispatch_width
        self._commit_width = config.core.commit_width
        self._rob_entries = config.core.rob_entries
        #: Execution latency indexed by OpKind (IntEnum) value.
        self._latency_by_kind = config.core.exec_latencies
        self.sb = StoreBuffer(config.core, stats=stats.child("sb"))
        self.lq = LoadQueue(config.core, stats=stats.child("lq"))
        self.stalls = StallAccount(stats)
        #: In-flight micro-ops in trace order: appended at dispatch,
        #: popped from the front at commit, so the entries' indices are
        #: consecutive.
        self.rob: Deque[ROBEntry] = deque()
        self._next_uop = 0
        self._committed = 0
        self.c_committed = stats.counter("committed_uops")
        self.c_loads_forwarded_mech = stats.counter(
            "loads_forwarded_mechanism",
            "loads serviced from WCB/TSOB structures")
        self.last_stall = StallReason.NONE
        self.finish_cycle: Optional[int] = None
        self.probe = NULL_PROBE
        #: Cached next self-wake cycle (maintained by the system loop).
        self.wake_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def committed(self) -> int:
        return self._committed

    def is_done(self) -> bool:
        return (self._next_uop >= self._trace_len and not self.rob
                and not self.sb._entries and self.mechanism.drained())

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> bool:
        """Advance one cycle; returns True if any progress was made."""
        committed = self._commit(cycle)
        drained = self.mechanism.drain(cycle)
        dispatched = self._dispatch(cycle)
        progress = bool(committed or drained or dispatched)
        if self.finish_cycle is None and self.is_done():
            self.finish_cycle = cycle
        if not progress and not self.is_done():
            self.stalls.charge(self.last_stall, 1, cycle)
        return progress

    def charge_skipped(self, cycles: int,
                       cycle: Optional[int] = None) -> None:
        """Charge fast-forwarded idle cycles to the current stall reason."""
        self.stalls.charge(self.last_stall, cycles, cycle)

    def stuck_at(self, cycle: int) -> bool:
        """True when :meth:`step` at ``cycle`` is *guaranteed* to make no
        progress and change no state beyond stall accounting.

        The run loop asks this before re-stepping a stale core after an
        event fired: most events concern one core's miss, yet every other
        blocked core would otherwise pay a full no-op step.  Each check
        mirrors a stage of :meth:`step`; False is returned whenever any
        stage *might* act (a false negative only costs the no-op step).
        The run loop defers the stall charge of a core skipped by this
        rule until the core is next stepped (:meth:`idle_charge`).
        """
        rob = self.rob
        if not rob:
            # An empty ROB can dispatch, or the core may just have
            # become done (step() must record finish_cycle): never skip.
            return False
        head = rob[0].complete_cycle
        if head is not None and head <= cycle:
            return False            # commit can retire the ROB head
        if len(rob) < self._rob_entries and self._next_uop < self._trace_len:
            return False            # dispatch has both room and work
        entries = self.sb._entries
        if entries and entries[0].committed:
            return False            # drain has a committed head store
        return self.mechanism.drain_idle()

    def idle_charge(self, cycle: int):
        """What :meth:`step` at ``cycle`` would do, if provably nothing.

        None when the step might act.  :data:`DEFER` when
        :meth:`stuck_at` holds.  Otherwise the ``(counter, delta)``
        pairs the no-op step's ``drain()`` bumps; the step also charges
        one stall cycle to :attr:`last_stall`.  A pure function of the
        core's state, which only the core's own steps, its wake cycle
        and its port (:class:`~repro.coherence.memsys.CorePort`) change.
        Extends :meth:`stuck_at` to a ROB head that cannot retire (not
        complete, or a fence still waiting for the stores), an empty
        ROB with nothing to dispatch, dispatch blocked on a full SB or
        LQ (only this core's own drain or commit frees them), and a
        drain the mechanism proves idle (``drain_charge``).
        """
        if self.stuck_at(cycle):
            return DEFER
        rob = self.rob
        if rob:
            head = rob[0]
            complete = head.complete_cycle
            if complete is not None and complete <= cycle and (
                    head.uop.kind is not _FENCE or not self._fence_waits()):
                return None         # commit can retire the ROB head
        elif self.is_done():
            return None             # step() must record finish_cycle
        next_uop = self._next_uop
        if next_uop < self._trace_len and len(rob) < self._rob_entries:
            kind = self._trace_uops[next_uop].kind
            if not ((kind is _STORE and self.sb.full)
                    or (kind is _LOAD and self.lq.full)):
                return None         # dispatch can insert
        return self.mechanism.drain_charge()

    def settle_skips(self, charge, skips: int, since: int,
                     last: int) -> int:
        """Account ``skips`` skipped no-op steps of a core stale since
        ``since``, the last of them at cycle ``last``, all with the same
        :meth:`idle_charge`; returns the cycle the core is stale since
        from now on.  DEFER skips leave the stall cycles to accrue; any
        other charge is what the steps would have counted: the stall
        cycles up to ``last`` and ``skips`` times the drain's counts."""
        if charge is DEFER:
            return since
        self.stalls.charge(self.last_stall, last - since, last)
        for counter, delta in charge:
            counter.value += delta * skips
        return last

    def next_wake(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this core can make progress on
        its own (memory events are tracked by the system's event queue)."""
        candidates = []
        if self.rob:
            head = self.rob[0].complete_cycle
            if head is not None and head > cycle:
                candidates.append(head)
        wake = self.mechanism.next_wake(cycle)
        if wake is not None and wake > cycle:
            candidates.append(wake)
        return min(candidates) if candidates else None

    # -- commit ---------------------------------------------------------
    def _commit(self, cycle: int) -> int:
        committed = 0
        rob = self.rob
        width = self._commit_width
        while committed < width and rob:
            head = rob[0]
            kind = head.uop.kind
            complete = head.complete_cycle
            if kind is _FENCE:
                if self._fence_waits():
                    break
                if complete is None or complete > cycle:
                    break
            elif complete is None or complete > cycle:
                break
            rob.popleft()
            if kind is _STORE:
                head.sb_entry.committed = True
                if self.probe:
                    self.probe.emit(cycle, "store:commit",
                                    seq=head.sb_entry.seq,
                                    line=head.sb_entry.line)
                self.mechanism.on_store_commit(head.sb_entry, cycle)
            elif kind is _LOAD:
                self.lq.release()
            committed += 1
        if committed:
            self._committed += committed
            self.c_committed.value += committed
        return committed

    def _fence_waits(self) -> bool:
        """A fence at the ROB head waits for every OLDER store to become
        globally visible.  Older stores are exactly the committed prefix
        of the SB (younger stores dispatched past the fence cannot have
        committed yet)."""
        return (self.sb.head_committed() is not None
                or not self.mechanism.drained())

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, cycle: int) -> int:
        dispatched = 0
        reason = StallReason.NONE
        uops = self._trace_uops
        trace_len = self._trace_len
        rob = self.rob
        rob_entries = self._rob_entries
        next_uop = self._next_uop
        while dispatched < self._dispatch_width:
            if next_uop >= trace_len:
                if dispatched == 0:
                    reason = StallReason.FRONTEND
                break
            uop = uops[next_uop]
            if len(rob) >= rob_entries:
                # A fence at the ROB head waiting for the SB flush shows
                # up as a ROB-full stall otherwise; attribute it to the
                # fence, since the serialising event is what blocks.
                reason = (StallReason.FENCE
                          if rob[0].uop.kind is _FENCE
                          else StallReason.ROB_FULL)
                break
            kind = uop.kind
            if kind is _STORE and self.sb.full:
                reason = StallReason.SB_FULL
                break
            if kind is _LOAD and self.lq.full:
                reason = StallReason.LQ_FULL
                break
            self._insert(uop, next_uop, cycle)
            next_uop += 1
            dispatched += 1
        self._next_uop = next_uop
        self.last_stall = reason if dispatched == 0 else StallReason.NONE
        return dispatched

    def _insert(self, uop: UOp, index: int, cycle: int) -> None:
        entry = ROBEntry(uop, index)
        rob = self.rob
        rob.append(entry)
        kind = uop.kind
        if kind is _LOAD:
            self.lq.insert()
        elif kind is _STORE:
            entry.sb_entry = self.sb.insert(uop, cycle)
        ready = cycle
        dep = uop.dep_dist
        # The ROB holds consecutive indices ending at ``index``, so the
        # producer is in flight iff it sits within the ROB.
        if dep is not None and dep < len(rob):
            producer = rob[-1 - dep]
            complete = producer.complete_cycle
            if complete is None:
                if producer.dependents is None:
                    producer.dependents = [entry]
                else:
                    producer.dependents.append(entry)
                return
            if complete > ready:
                ready = complete
        if kind is _LOAD:
            self._issue_load(entry, ready)
        elif kind is _STORE:
            entry.complete_cycle = ready + 1
        else:
            # Nothing can wait on an entry dispatched this instant.
            entry.complete_cycle = ready + self._latency_by_kind[kind]

    # -- issue / execute ---------------------------------------------------
    def _issue(self, entry: ROBEntry, cycle: int) -> None:
        kind = entry.uop.kind
        if kind is _LOAD:
            self._issue_load(entry, cycle)
        elif kind is _STORE:
            # Address and data become available; the actual memory write
            # happens post-commit from the SB.
            self._set_complete(entry, cycle + 1)
        else:
            self._set_complete(entry, cycle + self._latency_by_kind[kind])

    def _issue_load(self, entry: ROBEntry, cycle: int) -> None:
        uop = entry.uop
        hit = self.sb.search(uop.addr, uop.size)
        if hit is not None:
            self._set_complete(entry, cycle + self.sb.forward_latency)
            return
        mech_latency = self.mechanism.search(uop.addr, uop.size)
        if mech_latency is not None:
            self.c_loads_forwarded_mech.inc()
            self._set_complete(entry, cycle + mech_latency)
            return
        entry.waiting_mem = True
        self.port.load(uop.addr, cycle,
                       lambda done, e=entry: self._load_done(e, done),
                       size=uop.size)

    def _load_done(self, entry: ROBEntry, cycle: int) -> None:
        entry.waiting_mem = False
        self._set_complete(entry, cycle)

    def _set_complete(self, entry: ROBEntry, cycle: int) -> None:
        entry.complete_cycle = cycle
        dependents = entry.dependents
        if dependents is not None:
            entry.dependents = None
            for dep in dependents:
                self._issue(dep, cycle)
