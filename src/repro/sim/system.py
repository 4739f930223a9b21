"""System assembly and the top-level run loop.

A :class:`System` wires together the memory system, one core per trace,
and the configured store-handling mechanism, then runs cycle by cycle
with event-driven fast-forward: when no core can make progress in the
current cycle, the clock jumps to the next scheduled event (or the next
known core wake-up), charging the skipped cycles to each core's current
stall reason.  This is what makes hundreds-of-cycles store misses
affordable to simulate in pure Python.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from ..common.config import SystemConfig
from ..common.errors import ConfigError, DeadlockError
from ..common.events import EventQueue
from ..common.stats import StatGroup
from ..coherence.memsys import MemorySystem
from ..cpu.core import DEFER, Core
from ..cpu.trace import Trace
from ..mechanisms.registry import make_mechanism
from ..observe.bus import NULL_PROBE
from .progress import ProgressDump
from .results import CoreResult, SimResult


class System:
    """A complete simulated machine executing one trace per core.

    :meth:`run` visits only the cores an event cycle can have changed.
    A core whose step made no progress is *stale*: its state is frozen
    until its own wake cycle arrives or its own port changes, because
    other cores and the memory system reach it only through fills,
    snoops and MSHR changes, and each of those marks it touched
    (:meth:`~repro.coherence.memsys.CorePort.touch`).  So a cycle visits,
    in core-id order, the cores that are not stale, the stale cores
    whose wake cycle has arrived, and, on a cycle where events fired,
    the stale cores that are newly stale or touched (including touches
    by an earlier core's step that cycle).  A visited stale core's next
    step is judged by ``Core.idle_charge``: a provable no-op is skipped,
    and while that judgement is a charge, every event cycle that passes
    the core by is one more skip, which ``Core.settle_skips`` accounts
    in bulk at the core's next visit, before the warm-up reset, before
    a :class:`DeadlockError` and at the end of the run.  With a probe
    attached, every stale core is visited on every event cycle and
    stepped unless ``Core.stuck_at`` holds, so the probe sees each step.
    :meth:`run_controlled` keeps its own rule: any event re-enables
    every stale core, because that rule feeds ``sched_position``.

    Both run loops raise :class:`DeadlockError` ("watchdog") once
    ``config.deadlock_cycles`` cycles pass without progress, and only a
    core's commit, drain or dispatch is progress.  Events alone are not:
    a request retrying at the directory forever is a livelock.
    """

    def __init__(self, config: SystemConfig, traces: List[Trace],
                 workload: str = "",
                 stats: Optional[StatGroup] = None) -> None:
        config.validate()
        if len(traces) != config.num_cores:
            raise ConfigError(
                f"{config.num_cores} cores but {len(traces)} traces")
        self.config = config
        self.workload = workload or (traces[0].name if traces else "empty")
        self.events = EventQueue()
        #: The root of the statistics tree; :data:`~repro.common.stats
        #: .NULL_STATS` builds a machine that keeps none, whose result
        #: then carries no stall breakdown and no statistics.
        self.stats = stats if stats is not None else StatGroup("system")
        self.memsys = MemorySystem(config, self.events,
                                   self.stats.child("mem"))
        self.cores: List[Core] = []
        for cid, trace in enumerate(traces):
            core_stats = self.stats.child(f"core{cid}")
            port = self.memsys.ports[cid]
            # The core is created first so the mechanism can reach its SB.
            core = Core(cid, config, port, trace, None, core_stats)
            core.mechanism = make_mechanism(
                config.mechanism, config, port, core.sb, self.events,
                core_stats.child("mechanism"))
            self.cores.append(core)
        self.cycle = 0
        self._measure_start = 0
        self.probe = NULL_PROBE
        #: :meth:`run`'s loop bookkeeping when it stopped at
        #: ``max_cycles`` (None otherwise).
        self._paused: Optional[tuple] = None

    def run(self, max_cycles: Optional[int] = None,
            warmup_committed: int = 0) -> SimResult:
        """Run to completion (or ``max_cycles``); returns the result.

        ``warmup_committed``: total committed micro-ops (across cores)
        after which all statistics are reset and the measured region
        begins — the equivalent of the paper's cache-warming prefix
        before each simulation point.

        A run stopped at ``max_cycles`` resumes where it stopped when
        called again: the split run's result equals the unsplit one's,
        statistic for statistic.
        """
        watchdog = self.config.deadlock_cycles
        warmup_pending = warmup_committed > 0
        check_warmup = warmup_pending
        cores = self.cores
        events = self.events
        memsys = self.memsys
        run_until = events.run_until
        event_cycles = events._cycles
        # Event-driven core visits (see the class docstring).  Core sets
        # are bit masks over core ids: ``live`` (not done), ``stale``,
        # ``due`` (stale, wake cycle arrived) and the memory system's
        # ``touched``; ``wakes`` is a heap of stale cores' wake cycles.
        # ``since[cid]`` is the cycle a stale core's stall cycles are
        # charged up to, ``charges[cid]`` its last ``idle_charge`` while
        # that is a charge (else None), and ``base[cid]`` how many event
        # cycles had been counted (``skips``, the last one
        # ``last_skip``) when it was last accounted.
        # A run that stopped at ``max_cycles`` resumes with this
        # bookkeeping as it stopped (its stale cores charged up to the
        # stop), so it steps exactly the cores an unsplit run does.
        if self._paused is not None:
            (since, charges, base, wakes, live, stale, due, skips,
             last_skip, last_progress) = self._paused
            self._paused = None
        else:
            n = len(cores)
            since = [0] * n
            charges = [None] * n
            base = [0] * n
            wakes: List[Tuple[int, int]] = []
            live = (1 << n) - 1
            stale = due = 0
            skips = last_skip = last_progress = 0
        port_aware = not self.probe
        while live:
            cycle = self.cycle
            if check_warmup:
                # Only a commit can reach the threshold, and a commit is
                # a step's progress.
                check_warmup = False
                if sum(c._committed for c in cores) >= warmup_committed:
                    warmup_pending = False
                    _settle(cores, stale, charges, base, since, skips,
                            last_skip)
                    self._begin_measurement()
            if max_cycles is not None and cycle >= max_cycles:
                self._paused = (since, charges, base, wakes, live, stale,
                                due, skips, last_skip, last_progress)
                break
            fired = run_until(cycle) if (
                event_cycles and event_cycles[0] <= cycle) else 0
            progress = fired > 0
            while wakes and wakes[0][0] <= cycle:
                wake, cid = heappop(wakes)
                if stale >> cid & 1 and cores[cid].wake_cycle == wake:
                    due |= 1 << cid
            visit = live & ~stale | due
            if fired:
                visit |= stale & (memsys.touched if port_aware else -1)
            while visit:
                low = visit & -visit
                visit ^= low
                cid = low.bit_length() - 1
                core = cores[cid]
                if stale & low:
                    charge = charges[cid]
                    if charge is not None and skips > base[cid]:
                        since[cid] = core.settle_skips(
                            charge, skips - base[cid], since[cid], last_skip)
                    if due & low:
                        charges[cid] = None
                        if fired and core.stuck_at(cycle):
                            continue
                    else:
                        memsys.touched &= ~low
                        if port_aware:
                            charge = core.idle_charge(cycle)
                        else:
                            charge = DEFER if core.stuck_at(cycle) else None
                        if charge is not None:
                            since[cid] = core.settle_skips(
                                charge, 1, since[cid], cycle)
                            charges[cid] = None if charge is DEFER else charge
                            base[cid] = skips + 1
                            continue
                    core.charge_skipped(cycle - since[cid] - 1, cycle)
                    stale ^= low
                    due &= ~low
                stepped = core.step(cycle)
                if stepped:
                    progress = True
                    last_progress = cycle   # see the class docstring
                    check_warmup = warmup_pending
                # step() records finish_cycle exactly when the core first
                # reports is_done(); checking it avoids a third is_done()
                # call per step.
                if core.finish_cycle is not None and core.is_done():
                    live ^= low
                elif not stepped:
                    stale |= low
                    since[cid] = cycle
                    charges[cid] = None
                    # Evaluated at the next event cycle, like a touch.
                    memsys.touched |= low
                    wake = core.next_wake(cycle)
                    core.wake_cycle = wake
                    if wake is not None:
                        heappush(wakes, (wake, cid))
                if fired and port_aware:
                    # A step can touch the ports of cores after it.
                    visit |= memsys.touched & stale & -(low << 1)
            if fired:
                skips += 1
                last_skip = cycle
            if not live:
                break
            if progress:
                target = cycle + 1
            else:
                # Fast-forward.  Every live core is stale here (a step
                # that made progress would have set ``progress``), and
                # no event has fired since each went stale, so the
                # cached ``wake_cycle`` values are exact — no need to
                # recompute next_wake per core as
                # _next_interesting_cycle() does.
                target = None
                next_event = events.next_cycle()
                if next_event is not None:
                    target = next_event if next_event > cycle else cycle + 1
                while wakes:
                    wake, cid = wakes[0]
                    if stale >> cid & 1 and cores[cid].wake_cycle == wake:
                        cand = wake if wake > cycle else cycle + 1
                        if target is None or cand < target:
                            target = cand
                        break
                    heappop(wakes)      # a core no longer stale on it
                if target is None:
                    _settle(cores, stale, charges, base, since, skips,
                            last_skip)
                    raise self._deadlock(
                        "no-progress",
                        f"no progress possible at cycle {cycle} "
                        f"({self.workload}/{self.config.mechanism})")
            self.cycle = target
            if target - last_progress > watchdog:
                _settle(cores, stale, charges, base, since, skips, last_skip)
                raise self._deadlock(
                    "watchdog",
                    f"watchdog: {watchdog} cycles without progress "
                    f"({self.workload}/{self.config.mechanism})")
        _settle(cores, stale, charges, base, since, skips, last_skip)
        for cid, core in enumerate(cores):
            if stale >> cid & 1:
                core.charge_skipped(self.cycle - since[cid] - 1, self.cycle)
                since[cid] = self.cycle - 1     # charged up to here
        return self._result()

    def run_controlled(self, scheduler, max_cycles: int = 100_000
                       ) -> SimResult:
        """Run under an external scheduler that chooses interleavings.

        Within a cycle the *enabled actions* are: fire one due event, or
        step one runnable core (each core steps at most once per cycle,
        as in :meth:`run`).  Whenever more than one action is enabled the
        scheduler's ``choose(system, actions)`` picks the index — that is
        a *decision point*; with a single action no choice is consumed.
        After every action ``after_action(system, action)`` runs, which
        is where the model checker evaluates its invariants.

        Core staleness mirrors :meth:`run`: a core whose step made no
        progress is not re-stepped until an event has fired since or its
        own ``next_wake`` arrives, so pure waiting creates no spurious
        decision points.  When a whole cycle yields no progress the clock
        fast-forwards deterministically to the next interesting cycle.

        Raises :class:`DeadlockError` when no progress is possible, when
        the watchdog trips, or when ``max_cycles`` elapses — the model
        checker treats all three as potential liveness violations.
        """
        watchdog = self.config.deadlock_cycles
        last_progress = 0
        cores = self.cores
        events = self.events
        due_entries = events.due_entries
        done = [core.is_done() for core in cores]
        # Per core: its last step made no progress and no event has
        # fired since.
        stale = [False] * len(cores)
        while not all(done):
            cycle = self.cycle
            if cycle >= max_cycles:
                raise self._deadlock(
                    "cycle-budget",
                    f"controlled run exceeded {max_cycles} cycles "
                    f"({self.workload}/{self.config.mechanism})")
            stepped = list(done)
            progress = False
            core_progress = False
            while True:
                actions = [("event", handle)
                           for handle in due_entries(cycle)]
                for cid, core in enumerate(cores):
                    if stepped[cid]:
                        continue
                    if stale[cid] and (core.wake_cycle is None
                                       or core.wake_cycle > cycle):
                        continue
                    actions.append(("core", cid))
                if not actions:
                    break
                # Published for the model checker's state encoder: which
                # cores already took their step this cycle and which are
                # currently stale-excluded.  Two pauses with identical
                # cache/core state but different intra-cycle positions
                # enable different action sets, so they are distinct
                # states.
                self.sched_position = (tuple(stepped), tuple(stale))
                index = 0 if len(actions) == 1 else \
                    scheduler.choose(self, actions)
                action = actions[index]
                kind, target = action
                if kind == "event":
                    events.fire_entry(target)
                    stale = [False] * len(cores)
                    progress = True
                else:
                    core = cores[target]
                    stepped[target] = True
                    if core.step(cycle):
                        # Only core steps feed the watchdog (see the
                        # class docstring); events keep the clock going.
                        progress = core_progress = True
                        stale[target] = False
                    else:
                        stale[target] = True
                        core.wake_cycle = core.next_wake(cycle)
                    if core.is_done():
                        done[target] = True
                scheduler.after_action(self, action)
            if all(done):
                break
            if core_progress:
                last_progress = cycle
            if progress:
                self.cycle = cycle + 1
            else:
                target_cycle = self._next_interesting_cycle()
                if target_cycle is None:
                    raise self._deadlock(
                        "no-progress",
                        f"no progress possible at cycle {cycle} "
                        f"({self.workload}/{self.config.mechanism})")
                self.cycle = target_cycle
            if self.cycle - last_progress > watchdog:
                raise self._deadlock(
                    "watchdog",
                    f"watchdog: {watchdog} cycles without progress "
                    f"({self.workload}/{self.config.mechanism})")
        return self._result()

    def release(self) -> None:
        """Break this machine's reference cycles, so that dropping the
        last outside reference frees it by reference counting alone.

        Pending event closures, parked requests, MSHR waiters and the
        TUS/CSB hooks all point back into the ports that hold them, so
        without this every machine waits for the cyclic collector.  The
        machine cannot run afterwards.  The model checker releases each
        execution's machine once its outcome is built, and
        :meth:`~repro.harness.runner.Runner.simulate` each point's once
        its result is.
        """
        self.events.clear()
        self.memsys.release()

    def _deadlock(self, reason: str, message: str) -> DeadlockError:
        """Build a DeadlockError carrying a structured progress dump."""
        dump = ProgressDump.capture(self, reason, message)
        return DeadlockError(message, dump=dump)

    def _begin_measurement(self) -> None:
        """End the warmup region: zero every statistic and restart the
        cycle base so results cover only the measured region."""
        self.stats.reset()
        self._measure_start = self.cycle
        for core in self.cores:
            core.finish_cycle = None
        if self.probe:
            self.probe.emit(self.cycle, "measure:begin")

    def _next_interesting_cycle(self) -> Optional[int]:
        candidates = []
        next_event = self.events.next_cycle()
        if next_event is not None:
            candidates.append(max(next_event, self.cycle + 1))
        for core in self.cores:
            wake = core.next_wake(self.cycle)
            if wake is not None:
                candidates.append(max(wake, self.cycle + 1))
        return min(candidates) if candidates else None

    def _result(self) -> SimResult:
        start = self._measure_start
        live = bool(self.stats)
        cores = [
            CoreResult(core.core_id,
                       int(core.c_committed.value) if live
                       else core.committed,
                       (core.finish_cycle if core.finish_cycle is not None
                        else self.cycle) - start,
                       core.stalls.breakdown() if live else {})
            for core in self.cores
        ]
        return SimResult(self.workload, self.config.mechanism,
                         self.config.core.sb_entries, self.cycle - start,
                         cores, self.stats.flatten())


def _settle(cores: List[Core], stale: int, charges: list, base: list,
            since: list, skips: int, last_skip: int) -> None:
    """Settle every stale core's implicit skips: each event cycle up to
    ``last_skip`` (the ``skips``-th) that passed the core by while its
    ``charges`` entry held a charge."""
    for cid, core in enumerate(cores):
        charge = charges[cid]
        if stale >> cid & 1 and charge is not None and skips > base[cid]:
            since[cid] = core.settle_skips(charge, skips - base[cid],
                                           since[cid], last_skip)
            base[cid] = skips


def run_single(config: SystemConfig, trace: Trace,
               max_cycles: Optional[int] = None) -> SimResult:
    """Convenience: run one trace on a single-core system."""
    system = System(config.with_cores(1), [trace])
    return system.run(max_cycles)
