"""The full memory system: private L1D/L2 per core, shared L3 + directory,
DRAM, and the coherence transaction engine.

Timing is transaction-based.  A request from core *c* walks the hierarchy
accumulating latency; remote caches are consulted through snoop callbacks
delivered as events.  The directory serialises transactions per line with
a ``busy`` flag; colliding requesters retry.  This reproduces the
protocol-visible *behaviours* the paper relies on — invalidations,
NACK/retry, data forwarding from a relinquishing core's L2, delayed
external requests — at message-round-trip timing fidelity, without
modelling individual network flits.

Scaled machines add placement on top: each transaction is routed to the
directory home owning its line (``dir_shards`` > 1 shards the directory
by lex-order bits), and every message leg — request to the home, snoop
round trips, the home's DRAM channel access, the fill back to the
requester — pays a hop latency from :class:`~repro.coherence.topology
.Topology`.  The default point-to-point layout charges zero hops
everywhere, so default-configured results are bit-identical to builds
without the topology layer.

TUS integration points (used by ``repro.core``):

* ``CorePort.snoop_hook`` — consulted when a snoop finds a not-visible
  line; returns :class:`SnoopReply` with ``DELAY`` or
  ``RELINQUISH_OLD_DATA`` per the authorization unit's lex-order check;
* ``CorePort.fill_hook`` — fired when a fill or permission grant reaches
  a line that holds unauthorized data, so the WOQ can combine and mark
  the entry ready;
* not-visible lines are never chosen as victims (L1D) and veto their L2
  backing line's eviction (the NACK-and-refresh rule).
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice, repeat
from typing import Callable, Dict, List, Optional, Tuple

from ..common.addr import LINE_MASK
from ..common.config import RetryConfig, SystemConfig
from ..common.errors import ProtocolError
from ..common.events import EventQueue
from ..common.rng import make_rng
from ..common.stats import StatGroup
from ..faults.plan import NULL_FAULTS
from ..mem.cache import CacheArray
from ..mem.cacheline import CacheLine, State
from ..mem.dram import DRAM
from ..mem.mshr import MSHRFile
from ..mem.prefetcher import StreamPrefetcher
from ..observe.bus import NULL_PROBE
from .directory import Directory, ShardedDirectory
from .msgs import ReqType, SnoopKind, SnoopReply, SnoopResult, Transaction

#: Cycles between directory re-polls of a core that answered DELAY.
POLL_INTERVAL = 24
#: Retry delay when the directory entry is busy or unallocatable
#: (the ``fixed`` retry policy; see :class:`RetryPolicy`).
BUSY_RETRY = 16


def _ignore(cycle: int) -> None:
    """The callback of a demand write parked without one."""


class RetryPolicy:
    """Delay schedule for busy-directory retries.

    The ``fixed`` policy is the original behaviour — every retry waits
    exactly ``busy_retry`` cycles, and the jitter RNG is never touched,
    so default-configured simulations are bit-identical to builds that
    predate this class.  The ``backoff`` policy applies bounded
    exponential backoff with jitter so colliding requesters desynchronize
    instead of hammering the directory in lockstep when fault injection
    stretches busy windows.
    """

    def __init__(self, config: RetryConfig) -> None:
        self.config = config
        self._rng = (make_rng(config.seed, "retry-jitter")
                     if config.policy == "backoff" else None)

    def busy_delay(self, attempt: int) -> int:
        cfg = self.config
        if cfg.policy == "fixed":
            return cfg.busy_retry
        exponent = min(attempt, 16)   # cap so the intermediate stays small
        delay = min(cfg.max_delay,
                    cfg.busy_retry * cfg.backoff_factor ** exponent)
        if cfg.jitter:
            delay += self._rng.randrange(cfg.jitter + 1)
        return delay


class MemorySystem:
    """All cache levels, the directory, and DRAM for one simulated system."""

    def __init__(self, config: SystemConfig, events: EventQueue,
                 stats: Optional[StatGroup] = None) -> None:
        config.validate()
        self.config = config
        self.events = events
        self.stats = stats if stats is not None else StatGroup("memsys")
        self.l3 = CacheArray(config.memory.l3, stats=self.stats.child("l3"))
        # A 1-shard config keeps the plain monolithic directory: the
        # shard layer must not perturb the default machine's stat tree
        # (fingerprints hash it) or its hot path.
        if config.dir_shards > 1:
            self.directory = ShardedDirectory(
                config.dir_shards, stats=self.stats.child("directory"))
        else:
            self.directory = Directory(stats=self.stats.child("directory"))
        self.dram = DRAM(config.memory.dram_latency, config.memory.dram_gap,
                         channels=config.dram_channels,
                         stats=self.stats.child("dram"))
        self.topology = config.interconnect
        #: One bit per core whose port changed (:meth:`CorePort.touch`)
        #: since the run loop last looked at the core.
        self.touched = 0
        self.ports = [CorePort(self, cid) for cid in range(config.num_cores)]
        #: Transactions between start and data supply, oldest first.  The
        #: model checker reads this to build the delay wait-for graph.
        self.inflight: List[Transaction] = []
        dstats = self.stats.child("protocol")
        self.c_transactions = dstats.counter("transactions")
        self.c_retries = dstats.counter("retries", "busy/conflict retries")
        self.c_invalidations = dstats.counter(
            "invalidations", "remote copies invalidated (once per "
            "transaction and target)")
        self.c_downgrades = dstats.counter(
            "downgrades", "exclusive owners downgraded to shared")
        self.c_delays = dstats.counter("delayed_snoops",
                                       "snoops answered DELAY by TUS")
        self.c_relinquish = dstats.counter("relinquished",
                                           "lines relinquished by TUS")
        self.c_forwards = dstats.counter("c2c_forwards",
                                         "cache-to-cache data transfers")
        self.probe = NULL_PROBE
        #: Fault-injection hook (repro.faults); the shared null object
        #: unless a FaultInjector is attached.
        self.faults = NULL_FAULTS
        self._retry = RetryPolicy(config.retry)

    # ------------------------------------------------------------------
    # Shared-level transaction engine
    # ------------------------------------------------------------------
    def start_transaction(self, req: ReqType, addr: int, requester: int,
                          cycle: int, on_done: Callable[[int], None],
                          prefetch: bool = False) -> None:
        """Begin a GetS/GetX/Upgrade at the directory.

        ``cycle`` is the time the request *leaves the requester's private
        L2* (the caller accounts L1→L2 latency).  ``on_done`` fires with
        the cycle at which the fill reaches the requester's L1D.
        """
        addr &= LINE_MASK
        trans = Transaction(req, addr, requester, cycle, prefetch=prefetch,
                            home=self.directory.home_of(addr))
        self.c_transactions.inc()
        self.inflight.append(trans)
        arrive = (cycle + self.config.memory.l3.latency
                  + self.topology.request_latency(requester, trans.home))
        self.events.schedule(arrive, lambda: self._at_directory(trans, arrive,
                                                                on_done),
                             label=f"dir:{req.value}:{addr:#x}",
                             actor=requester)

    def _at_directory(self, trans: Transaction, cycle: int,
                      on_done: Callable[[int], None]) -> None:
        entry = self.directory.get_or_allocate(trans.addr, cycle)
        busy = entry is None or entry.busy
        if not busy and self.faults and self.faults.refuse("dir-busy"):
            # Injected extended busy window: the entry is free, but the
            # requester observes it busy (its request lost arbitration)
            # and walks the normal retry path.
            busy = True
        if busy:
            self.c_retries.inc()
            if self.probe:
                self.probe.emit(cycle, "busy", line=trans.addr,
                                requester=trans.requester)
            retry = cycle + self._retry.busy_delay(trans.retries)
            trans.retries += 1
            self.events.schedule(
                retry, lambda: self._at_directory(trans, retry, on_done),
                label=f"busy:{trans.addr:#x}", actor=trans.requester)
            return
        entry.busy = True
        if self.probe:
            self.probe.emit(cycle, f"dir:{trans.req.value.lower()}",
                            line=trans.addr, requester=trans.requester)
        self._resolve_snoops(trans, entry, cycle, on_done)

    def _resolve_snoops(self, trans: Transaction, entry, cycle: int,
                        on_done: Callable[[int], None]) -> None:
        """Invalidate/downgrade remote copies, honouring DELAY re-polls.

        Targets that already answered are recorded on the transaction
        and skipped when a DELAY forces a re-poll — re-snooping them
        would re-invalidate their caches and double-count stats.
        """
        kind = (SnoopKind.DOWNGRADE if trans.req == ReqType.GETS
                else SnoopKind.INVALIDATE)
        trans.waiting_on = None
        targets = [core_id for core_id in self._snoop_targets(trans, entry)
                   if core_id not in trans.resolved]
        for core_id in targets:
            if self.faults and self.faults.force_delay(trans.addr, core_id):
                # Injected NACK burst: the snoop message is stuck in the
                # network, so the target never sees it this round and the
                # requester re-polls.  No protocol DELAY was answered —
                # the target made no decision — so no waiting_on edge is
                # recorded and the wait-for graph keeps its lex-order
                # meaning (a forced edge could fabricate a cycle no real
                # schedule can produce).
                self.c_delays.inc()
                trans.polls += 1
                if self.probe:
                    self.probe.emit(cycle, "poll", line=trans.addr,
                                    requester=trans.requester,
                                    target=core_id)
                retry = (cycle + POLL_INTERVAL
                         + self.topology.snoop_round_trip(trans.home,
                                                          core_id)
                         + self.faults.delay("poll-jitter"))
                self.events.schedule(
                    retry,
                    lambda: self._resolve_snoops(trans, entry, retry, on_done),
                    label=f"poll:{trans.addr:#x}", actor=trans.requester)
                return
            reply = self.ports[core_id]._snoop(trans.addr, kind,
                                               trans.requester, cycle)
            if reply.result == SnoopResult.DELAY:
                # The remote core is guaranteed to make the line visible
                # on its own; poll until it does.
                self.c_delays.inc()
                trans.polls += 1
                trans.waiting_on = core_id
                if self.probe:
                    self.probe.emit(cycle, "poll", line=trans.addr,
                                    requester=trans.requester,
                                    target=core_id)
                retry = (cycle + POLL_INTERVAL
                         + self.topology.snoop_round_trip(trans.home,
                                                          core_id))
                if self.faults:
                    retry += self.faults.delay("poll-jitter")
                self.events.schedule(
                    retry,
                    lambda: self._resolve_snoops(trans, entry, retry, on_done),
                    label=f"poll:{trans.addr:#x}", actor=trans.requester)
                return
            trans.resolved.add(core_id)
            round_trip = self.topology.snoop_round_trip(trans.home, core_id)
            if round_trip > trans.snoop_latency:
                trans.snoop_latency = round_trip
            if self.probe:
                self.probe.emit(cycle, "snoop", line=trans.addr,
                                kind=kind.value.lower(), target=core_id,
                                result=reply.result.value)
            if kind == SnoopKind.INVALIDATE:
                self.c_invalidations.inc()
            else:
                self.c_downgrades.inc()
            if reply.result == SnoopResult.RELINQUISH_OLD_DATA:
                self.c_relinquish.inc()
                trans.data_from_remote = True
            elif reply.result == SnoopResult.ACK_DATA:
                trans.data_from_remote = True
            self._apply_snoop(entry, core_id, kind)
        self._supply_data(trans, entry, cycle, trans.data_from_remote,
                          on_done)

    def _snoop_targets(self, trans: Transaction, entry) -> List[int]:
        """Cores the directory entry actually names — never a scan over
        every core.  The fan-out cost is O(|sharers|), so it stays flat
        as the machine scales to 64 cores, and a core absent from the
        sharer vector can never be snooped by construction."""
        owner = entry.owner
        if trans.req == ReqType.GETS:
            # Only an exclusive owner needs to be downgraded for a read.
            return ([owner] if owner is not None
                    and owner != trans.requester else [])
        targets = [core_id for core_id in entry.sharers
                   if core_id != trans.requester]
        if (owner is not None and owner != trans.requester
                and owner not in entry.sharers):
            targets.append(owner)
        targets.sort()
        return targets

    def _apply_snoop(self, entry, core_id: int, kind: SnoopKind) -> None:
        if kind == SnoopKind.INVALIDATE:
            entry.sharers.discard(core_id)
            if entry.owner == core_id:
                entry.owner = None
        else:  # downgrade: owner becomes a sharer
            if entry.owner == core_id:
                entry.owner = None
                entry.sharers.add(core_id)

    def _supply_data(self, trans: Transaction, entry, cycle: int,
                     data_from_remote: bool,
                     on_done: Callable[[int], None]) -> None:
        mem = self.config.memory
        # The home has now collected every snoop answer; the slowest
        # round trip gates when data supply can begin (zero on p2p).
        cycle += trans.snoop_latency
        if data_from_remote:
            # Cache-to-cache transfer through the shared level.
            self.c_forwards.inc()
            data_cycle = cycle + mem.l2.latency
            self.l3.record_write()
            source = "c2c"
        elif self.l3.lookup(trans.addr, cycle=cycle) is not None:
            self.l3.record_read()
            data_cycle = cycle
            source = "l3"
        else:
            # The miss travels home -> channel, queues for bandwidth
            # there, and the data travels back (home-affine NUMA: the
            # channel interleave uses the same lex bits as the homes).
            channel = self.dram.channel_of(trans.addr)
            hop = self.topology.home_dram[trans.home][channel]
            data_cycle = self.dram.access(cycle + hop, channel) + hop
            self._install_l3(trans.addr, cycle)
            source = "dram"
        if self.faults:
            # Injected completion jitter on the data return path.
            data_cycle += self.faults.delay(
                "c2c-delay" if data_from_remote else "fill-delay")
        if self.probe:
            self.probe.emit(cycle, "data", line=trans.addr, source=source)
        if trans.req == ReqType.GETS:
            entry.sharers.add(trans.requester)
        else:
            entry.sharers.discard(trans.requester)
            entry.owner = trans.requester
        # The entry stays busy until the fill is installed at the
        # requester.  Releasing it here would let a later transaction
        # snoop the new owner *before* the data arrives — the remote
        # cache answers from its stale (empty) state and the line ends
        # up writable at one core while another holds a valid copy.
        done = (data_cycle + mem.l2.latency   # shared level back to L1D
                + self.topology.fill_latency(trans.home, trans.requester))
        grant_state = State.S if trans.req == ReqType.GETS else State.E
        self.events.schedule(
            done, lambda: self._finish(trans, entry, grant_state, done,
                                       on_done),
            label=f"fill:{trans.addr:#x}", actor=trans.requester)

    def _finish(self, trans: Transaction, entry, state: State, cycle: int,
                on_done: Callable[[int], None]) -> None:
        """Install the fill at the requester, then release the line."""
        if self.probe:
            self.probe.emit(cycle, "fill", line=trans.addr,
                            requester=trans.requester,
                            latency=cycle - trans.issued_cycle)
        self.ports[trans.requester]._fill(trans.addr, state, cycle, on_done)
        entry.busy = False
        self.inflight.remove(trans)

    def _install_l3(self, addr: int, cycle: int) -> None:
        if self.l3.probe(addr) is not None:
            return
        if not self.l3.has_free_way(addr):
            return
        self.l3.allocate(addr, State.S, cycle)

    # Convenience for tests -------------------------------------------------
    def port(self, core_id: int) -> "CorePort":
        return self.ports[core_id]


class CorePort:
    """One core's window into the memory system (its private hierarchy)."""

    def __init__(self, system: MemorySystem, core_id: int) -> None:
        self.system = system
        self.core_id = core_id
        cfg = system.config.memory
        stats = system.stats.child(f"core{core_id}")
        self.stats = stats
        self.l1d = CacheArray(cfg.l1d, stats=stats.child("l1d"))
        self.l2 = CacheArray(cfg.l2, stats=stats.child("l2"))
        self.mshrs = MSHRFile(cfg.l1d.mshrs, stats=stats.child("mshr"),
                              on_change=self.touch)
        self.prefetcher = (StreamPrefetcher(cfg.stream_prefetch_degree,
                                            stats=stats.child("prefetcher"))
                           if cfg.stream_prefetch else None)
        #: TUS: consulted when a snoop finds a not-visible line.
        self.snoop_hook: Optional[
            Callable[[int, SnoopKind, int, int], SnoopReply]] = None
        #: TUS: fired when a fill reaches a line holding unauthorized data.
        self.fill_hook: Optional[Callable[[int, CacheLine, int], None]] = None
        #: CSB: consulted when a snoop reaches a *visible* line; True
        #: answers DELAY (the holder is mid-flush on an atomic group and
        #: the lex rule says it finishes first).
        self.hold_hook: Optional[
            Callable[[int, SnoopKind, int, int], bool]] = None
        #: Optional observer (repro.modelcheck.observer): called with the
        #: lines that just became globally visible, atomically.
        self.visibility_hook: Optional[
            Callable[[List[int], int], None]] = None
        self.c_l2_updates = stats.counter(
            "l2_updates", "explicit L1D-to-L2 data updates (TUS/SSB)")
        self.c_uncached_fills = stats.counter(
            "uncached_fills", "fills served without caching (set pinned)")
        self.c_load_stall_unauth = stats.counter(
            "loads_aliased_unauthorized",
            "loads that waited for an unauthorized line's permission")
        self.c_l1d_forwards = stats.counter(
            "l1d_unauthorized_forwards",
            "loads served from unauthorized L1D data (optional feature)")
        #: Requests parked because the MSHR file was full, retried on
        #: every fill completion, oldest first, as ``[line, is_write,
        #: on_done, count]`` runs: consecutive callback-free parks of one
        #: line are one run of ``count`` requests (each still modelled
        #: and retried; see :meth:`parked`), every other park a run of 1.
        #: Parked writes are counted per line, and parked reads in all.
        self._pending: deque = deque()
        self._pending_writes: Dict[int, int] = {}
        self._pending_reads = 0
        #: The last run of the retry pass in progress: parks made during
        #: the pass queue behind it, so they never merge into it.
        self._pass_end: Optional[list] = None
        #: Parked-write lines a fill has reached (see _live_lines).
        self._filled_parked: set = set()
        #: Bumped by every fill, snoop and MSHR allocation or retirement
        #: (:meth:`touch`): the only changes to this hierarchy that can
        #: change what its core's next step does.
        self.epoch = 0
        self._bit = 1 << core_id
        self.probe = NULL_PROBE

    def touch(self) -> None:
        """Record a change to this hierarchy: bump :attr:`epoch` and set
        the core's bit in :attr:`MemorySystem.touched`."""
        self.epoch += 1
        self.system.touched |= self._bit

    # -- queries ----------------------------------------------------------
    def line(self, addr: int) -> Optional[CacheLine]:
        return self.l1d.probe(addr)

    def is_writable(self, addr: int) -> bool:
        line = self.l1d.probe(addr)
        return line is not None and line.state >= State.E

    def is_writable_private(self, addr: int) -> bool:
        """Write permission anywhere in this private hierarchy (L1D or
        L2) — what SSB's TSOB drain needs, since it writes to the L2."""
        if self.is_writable(addr):
            return True
        l2line = self.l2.probe(addr)
        return l2line is not None and l2line.state >= State.E

    # -- loads --------------------------------------------------------------
    def load(self, addr: int, cycle: int,
             on_done: Callable[[int], None], size: int = 8) -> None:
        """Issue a demand load; ``on_done`` fires with the data-ready cycle.

        Store-to-load forwarding from the SB/WCBs is the core's job and
        happens before the load reaches this port.
        """
        cfg = self.system.config.memory
        if self.prefetcher is not None:
            for target in self.prefetcher.observe(addr):
                self.request_read(target, cycle, prefetch=True)
        line = self.l1d.lookup(addr, cycle=cycle)
        if line is not None:
            if line.not_visible and not line.ready:
                # Unauthorized data without permission.  With the
                # optional L1D forwarding feature (Section IV, "Other
                # considerations" — the paper evaluated and disabled
                # it), bytes covered by the local write mask can be
                # served directly; otherwise the load aliases to the
                # line and is serviced when the permission arrives.
                if (self.system.config.tus.l1d_forwarding
                        and self._mask_covers(line, addr, size)):
                    self.c_l1d_forwards.inc()
                    self.l1d.record_read()
                    on_done(cycle + cfg.l1d.latency)
                    return
                self.c_load_stall_unauth.inc()
                self._wait_for_fill(addr, False, cycle, on_done)
                return
            line.prefetched = False
            self.l1d.record_read()
            on_done(cycle + cfg.l1d.latency)
            return
        self._wait_for_fill(addr, False, cycle, on_done)

    @staticmethod
    def _mask_covers(line: CacheLine, addr: int, size: int) -> bool:
        offset = addr & ~LINE_MASK
        if offset + size > 64:
            return False
        mask = ((1 << size) - 1) << offset
        return line.write_mask & mask == mask

    def _wait_for_fill(self, addr: int, is_write: bool, cycle: int,
                       on_done: Callable[[int], None]) -> None:
        entry = self.mshrs.allocate(addr, is_write, cycle)
        if entry is None:
            # MSHR file full: park the request; it is retried whenever a
            # fill frees an entry (no polling).
            self._pending.append([addr, is_write, on_done, 1])
            self._pending_reads += 1
            return
        fresh = not entry.waiters and not entry.meta.get("launched")
        entry.waiters.append(on_done)
        if fresh:
            entry.meta["launched"] = True
            entry.meta["write"] = is_write
            self._launch(addr, is_write, cycle)

    def parked(self) -> Tuple[Tuple[int, bool], ...]:
        """The parked requests, oldest first, as ``(line, is_write)``; a
        run of ``k`` parked writes is its line ``k`` times."""
        if not self._pending:
            return ()
        return tuple(chain.from_iterable(
            repeat((addr, is_write), count)
            for addr, is_write, _on_done, count in self._pending))

    def _park_write(self, addr: int,
                    on_done: Optional[Callable[[int], None]]) -> None:
        """Park a demand write (its line already masked)."""
        self._pending_writes[addr] = self._pending_writes.get(addr, 0) + 1
        self._queue([addr, True, _ignore if on_done is None else on_done, 1])

    def _queue(self, run: list) -> None:
        """Append a run to the parked queue.  A callback-free run of
        writes joins the last run if that is one of the same line, and
        not the last run of the retry pass in progress."""
        pending = self._pending
        if run[2] is _ignore and pending:
            tail = pending[-1]
            if tail[0] == run[0] and tail[2] is _ignore \
                    and tail is not self._pass_end:
                tail[3] += run[3]
                return
        pending.append(run)

    def _retry_pending(self, cycle: int) -> None:
        """Drain parked requests into freed MSHRs (oldest first).

        Each parked request is retried once; parks made during the pass
        queue behind the last run it retries.  A parked write to line X
        can only progress if X is writable, X already has an MSHR, or
        the file has a free entry; only a fill makes a line writable or
        frees an MSHR, and none happens during the pass.  So once the
        file is full, a run of writes to any other line is refused
        without being re-run: it goes to the back exactly as its
        re-parked retries would, and each refusal is bookkept by the
        MSHR file.  Past the last parked read and the last write that
        can still progress, the rest of the pass is one rotation.  So a
        pass costs O(runs), however many requests a run holds.
        """
        pending = self._pending
        if not pending:
            return
        self._pass_end = last = pending[-1]
        try:
            self._retry_runs(pending, last, cycle)
        finally:
            self._pass_end = None

    def _retry_runs(self, pending: deque, last: list, cycle: int) -> None:
        mshrs = self.mshrs
        live = None             # lines that can progress on a full file
        live_writes = 0         # parked writes to them, not yet retried
        runs = len(pending)     # runs not yet retried, ``last`` included
        units = self._pending_reads + sum(self._pending_writes.values())
        while True:
            if live is None and mshrs.full:
                live = self._live_lines()
                live_writes = sum(self._pending_writes[line]
                                  for line in live)
            if live is not None and not live_writes \
                    and not self._pending_reads:
                mshrs.refuse_all(
                    chain.from_iterable(repeat(run[0], run[3])
                                        for run in islice(pending, runs)),
                    units, cycle)
                pending.rotate(-runs)
                return
            runs -= 1
            run = pending.popleft()
            addr, is_write, on_done, count = run
            units -= count
            if is_write:
                if live is not None:
                    if addr not in live:
                        self._queue(run)
                        mshrs.refuse_all(repeat(addr, count), count, cycle)
                        if run is last:
                            return
                        continue
                    live_writes -= count
                self._retry_writes(addr, on_done, count, cycle)
            else:
                line = self.l1d.probe(addr)
                if (line is not None
                        and (not line.not_visible or line.ready)):
                    # The line arrived while the request was parked.
                    self._pending_reads -= 1
                    self.l1d.record_read()
                    on_done(cycle + self.system.config.memory.l1d.latency)
                else:
                    entry = mshrs.allocate(addr, is_write, cycle)
                    if entry is None:
                        pending.appendleft(run)
                        return
                    self._pending_reads -= 1
                    fresh = not entry.meta.get("launched")
                    entry.waiters.append(on_done)
                    if fresh:
                        entry.meta["launched"] = True
                        entry.meta["write"] = is_write
                        self._launch(addr, is_write, cycle)
            if run is last:
                return

    def _retry_writes(self, addr: int, on_done: Callable[[int], None],
                      count: int, cycle: int) -> None:
        """Retry a run of ``count`` parked writes to ``addr``, in order.

        Each re-enters through :meth:`request_write`, so read-in-flight
        chaining and the writable fast path apply.  Once one finds the
        line writable or merges into its write MSHR, so would every
        later one of the run (nothing changes in between): those only
        run their no-op callbacks, or are counted as merges and wait on
        the MSHR.
        """
        writes = self._pending_writes
        rest = writes[addr] - count
        if rest:
            writes[addr] = rest
        else:
            del writes[addr]
        for left in range(count - 1, -1, -1):
            self.request_write(addr, cycle, on_done)
            if not left or self.is_writable(addr):
                return
            entry = self.mshrs.get(addr)
            if entry is not None and entry.meta.get("write"):
                self.mshrs.count_merges(left)
                entry.waiters.extend(repeat(on_done, left))
                return

    def _live_lines(self) -> set:
        """Parked-write lines that can progress on a full MSHR file:
        those with an MSHR, and those a fill has made writable (a
        parked line only becomes writable through a fill, which records
        it in ``_filled_parked``).  Prunes the record to lines that are
        still parked and writable; a later fill re-adds the others."""
        parked = self._pending_writes
        self._filled_parked = {line for line in self._filled_parked
                               if line in parked and self.is_writable(line)}
        return self._filled_parked.union(
            line for line in self.mshrs.lines() if line in parked)

    # -- stores -------------------------------------------------------------
    def request_write(self, addr: int, cycle: int,
                      on_done: Optional[Callable[[int], None]] = None,
                      prefetch: bool = False) -> bool:
        """Acquire write permission (GetX/Upgrade) for ``addr``.

        Returns False when the request could not even be queued (MSHR file
        full and no existing entry) — for prefetches that means the hint is
        dropped; demand users simply retry next cycle.
        """
        if self.is_writable(addr):
            if on_done is not None:
                on_done(cycle)
            return True
        existing = self.mshrs.get(addr)
        if existing is not None and existing.meta.get("launched") \
                and not existing.meta.get("write"):
            # A read transaction is already in flight for this line; it
            # will grant at most S.  Chain: when it fills, re-request
            # the write permission (which then issues an Upgrade).
            existing.waiters.append(
                lambda c, a=addr: self.request_write(a, c, on_done,
                                                     prefetch))
            return True
        entry = self.mshrs.allocate(addr, True, cycle, prefetch=prefetch)
        if entry is None:
            if prefetch:
                return False   # hints are droppable
            # Demand write requests park until an MSHR frees up.
            self._park_write(addr & LINE_MASK, on_done)
            return True
        fresh = not entry.meta.get("launched")
        if on_done is not None:
            entry.waiters.append(on_done)
        if fresh:
            entry.meta["launched"] = True
            entry.meta["write"] = True
            self._launch(addr, True, cycle)
        return True

    def request_read(self, addr: int, cycle: int,
                     prefetch: bool = False) -> bool:
        """Issue a read (GetS) prefetch; drops silently if resources full."""
        if self.l1d.probe(addr) is not None:
            return True
        entry = self.mshrs.allocate(addr, False, cycle, prefetch=prefetch)
        if entry is None:
            return False
        if not entry.meta.get("launched"):
            entry.meta["launched"] = True
            self._launch(addr, False, cycle, prefetch=True)
        return True

    def write_hit(self, addr: int, cycle: int) -> None:
        """Perform a store into a line the core has permission for."""
        line = self.l1d.probe(addr)
        if line is None or line.state < State.E:
            raise ProtocolError(
                f"core {self.core_id}: write_hit without permission "
                f"at {addr:#x}")
        line.state = State.M
        line.prefetched = False
        self.l1d.policy.touch(line, cycle)
        self.l1d.record_write()
        if self.probe:
            self.probe.emit(cycle, "store:visible", lines=[line.addr])
        if self.visibility_hook is not None:
            self.visibility_hook([line.addr], cycle)

    def write_request_outstanding(self, addr: int) -> bool:
        """Is a write-permission acquisition in flight (or parked) for
        ``addr``?  Drain paths use this to avoid both duplicate requests
        and lost wake-ups when a granted line is stolen before use."""
        if addr & LINE_MASK in self._pending_writes:
            return True
        entry = self.mshrs.get(addr)
        return entry is not None and entry.is_write

    def update_l2(self, addr: int) -> None:
        """Push the current L1D data for ``addr`` down to the private L2.

        TUS does this before overwriting a visible modified line with
        unauthorized data (the L2 must keep a valid *authorized* copy);
        SSB does it for every store it drains.
        """
        self.c_l2_updates.inc()
        self.l2.record_write()

    # -- transaction launch ---------------------------------------------------
    def _launch(self, addr: int, is_write: bool, cycle: int,
                prefetch: bool = False) -> None:
        cfg = self.system.config.memory
        l2line = self.l2.lookup(addr, cycle=cycle)
        if l2line is not None and (not is_write or l2line.state >= State.E):
            # Private L2 satisfies the request.
            self.l2.record_read()
            state = l2line.state if is_write else (
                State.S if l2line.state == State.S else State.E)
            done = cycle + cfg.l2.latency
            self.system.events.schedule(
                done, lambda: self._fill(addr, max(state, State.E) if is_write
                                         else state, done, None),
                label=f"l2fill:{addr:#x}", actor=self.core_id)
            return
        req = ReqType.GETX if is_write else ReqType.GETS
        if is_write and (l2line is not None or self.l1d.probe(addr)):
            req = ReqType.UPGRADE
        leave_l2 = cycle + cfg.l2.latency
        self.system.start_transaction(req, addr, self.core_id, leave_l2,
                                      lambda done: None, prefetch)

    def _fill(self, addr: int, state: State, cycle: int,
              _unused: Optional[Callable[[int], None]]) -> None:
        """A fill (data and/or permission) arrives at this private
        hierarchy; install in L2 and L1D and wake the MSHR waiters."""
        self.touch()
        self._install_l2(addr, state, cycle)
        line = self.l1d.probe(addr)
        if line is not None:
            self._upgrade_l1_line(line, state, cycle)
        else:
            line = self._install_l1(addr, state, cycle)
        if addr & LINE_MASK in self._pending_writes:
            self._filled_parked.add(addr & LINE_MASK)
        for waiter in self.mshrs.complete(addr, cycle):
            waiter(cycle)
        self._retry_pending(cycle)

    def _upgrade_l1_line(self, line: CacheLine, state: State,
                         cycle: int) -> None:
        if line.not_visible:
            if state < State.E:
                # A read fill reached an unauthorized line (e.g. a load
                # to a relinquished line): data arrives but no write
                # permission — the line stays unauthorized.
                return
            # TUS: permission/data arrives for a line holding unauthorized
            # data.  Combine (mask-guided) and hand control to the WOQ.
            line.state = State.M
            line.ready = True
            self.l1d.record_write()   # the combine writes the data array
            if self.fill_hook is not None:
                self.fill_hook(line.addr, line, cycle)
            return
        if state >= State.E and line.state < State.E:
            line.state = State.E
        elif not line.state:
            line.state = state
        self.l1d.policy.touch(line, cycle)

    def _install_l1(self, addr: int, state: State,
                    cycle: int) -> Optional[CacheLine]:
        if not self.l1d.has_free_way(addr):
            # Every way is pinned (locked or unauthorized): serve the data
            # without caching it.
            self.c_uncached_fills.inc()
            return None
        line = self.l1d.allocate(addr, state, cycle,
                                 on_evict=self._evict_from_l1)
        self.l1d.record_write()
        return line

    def _install_l2(self, addr: int, state: State, cycle: int) -> None:
        l2line = self.l2.probe(addr)
        if l2line is not None:
            if state >= State.E and l2line.state < State.E:
                l2line.state = State.E
            self.l2.policy.touch(l2line, cycle)
            return
        if not self.l2.has_free_way(addr):
            return
        self.l2.allocate(addr, state, cycle, on_evict=self._evict_from_l2,
                         veto=self._l2_victim_veto)
        self.l2.record_write()

    def _l2_victim_veto(self, victim: CacheLine) -> bool:
        """The L2 may not evict a line whose L1D copy is not-visible: the
        back-invalidation would be NACKed (Section III-C), so the
        replacement policy must propose someone else."""
        l1copy = self.l1d.probe(victim.addr)
        return l1copy is not None and l1copy.not_visible

    def _evict_from_l1(self, victim: CacheLine) -> None:
        if victim.dirty:
            # Writeback to the (inclusive) private L2.
            l2line = self.l2.probe(victim.addr)
            if l2line is not None:
                l2line.state = State.M
            self.l2.record_write()

    def _evict_from_l2(self, victim: CacheLine) -> None:
        # Inclusive hierarchy: back-invalidate the L1D copy.
        l1copy = self.l1d.probe(victim.addr)
        dirty = victim.dirty
        if l1copy is not None:
            if l1copy.not_visible:
                raise ProtocolError("evicted an L2 line pinned by TUS")
            dirty = dirty or l1copy.dirty
            self.l1d.invalidate(victim.addr)
        if dirty:
            self._writeback_shared(victim.addr)
        entry = self.system.directory.lookup(victim.addr)
        if entry is not None and not entry.busy:
            entry.sharers.discard(self.core_id)
            if entry.owner == self.core_id:
                entry.owner = None

    def _writeback_shared(self, addr: int) -> None:
        l3line = self.system.l3.probe(addr)
        if l3line is not None:
            l3line.state = State.M
        self.system.l3.record_write()

    # -- snoops ---------------------------------------------------------------
    def _snoop(self, addr: int, kind: SnoopKind, requester: int,
               cycle: int) -> SnoopReply:
        self.touch()
        line = self.l1d.probe(addr)
        if line is not None and line.not_visible:
            if self.snoop_hook is None:
                raise ProtocolError(
                    "snoop hit a not-visible line but no TUS hook is set")
            return self.snoop_hook(addr, kind, requester, cycle)
        if (line is not None and self.hold_hook is not None
                and self.hold_hook(addr, kind, requester, cycle)):
            return SnoopReply(SnoopResult.DELAY)
        return self._snoop_normal(addr, kind, line)

    def _snoop_normal(self, addr: int, kind: SnoopKind,
                      line: Optional[CacheLine]) -> SnoopReply:
        dirty = False
        l2line = self.l2.probe(addr)
        if kind == SnoopKind.INVALIDATE:
            if line is not None:
                dirty = line.dirty
                self.l1d.invalidate(addr)
            if l2line is not None:
                dirty = dirty or l2line.dirty
                self.l2.invalidate(addr)
        else:  # downgrade to shared
            if line is not None:
                dirty = line.dirty
                line.state = State.S
            if l2line is not None:
                dirty = dirty or l2line.dirty
                l2line.state = State.S
        return SnoopReply(SnoopResult.ACK_DATA if dirty else SnoopResult.ACK,
                          had_dirty=dirty)
