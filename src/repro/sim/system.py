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

from typing import List, Optional

from ..common.config import SystemConfig
from ..common.errors import ConfigError, DeadlockError
from ..common.events import EventQueue
from ..common.stats import StatGroup
from ..coherence.memsys import MemorySystem
from ..cpu.core import Core
from ..cpu.trace import Trace
from ..mechanisms.registry import make_mechanism
from ..observe.bus import NULL_PROBE
from .progress import ProgressDump
from .results import CoreResult, SimResult


class System:
    """A complete simulated machine executing one trace per core.

    Both run loops raise :class:`DeadlockError` ("watchdog") once
    ``config.deadlock_cycles`` cycles pass without progress, and only a
    core's commit, drain or dispatch is progress.  Events alone are not:
    a request retrying at the directory forever is a livelock.
    """

    def __init__(self, config: SystemConfig, traces: List[Trace],
                 workload: str = "") -> None:
        config.validate()
        if len(traces) != config.num_cores:
            raise ConfigError(
                f"{config.num_cores} cores but {len(traces)} traces")
        self.config = config
        self.workload = workload or (traces[0].name if traces else "empty")
        self.events = EventQueue()
        self.stats = StatGroup("system")
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

    def run(self, max_cycles: Optional[int] = None,
            warmup_committed: int = 0) -> SimResult:
        """Run to completion (or ``max_cycles``); returns the result.

        ``warmup_committed``: total committed micro-ops (across cores)
        after which all statistics are reset and the measured region
        begins — the equivalent of the paper's cache-warming prefix
        before each simulation point.
        """
        watchdog = self.config.deadlock_cycles
        last_progress = 0
        warmup_pending = warmup_committed > 0
        cores = self.cores
        events = self.events
        run_until = events.run_until
        event_cycles = events._cycles
        # Per-core skip state.  A core whose step made no progress is
        # stale: its state is frozen until its own wake cycle arrives or
        # its own port changes.  Other cores and the memory system reach
        # a core only through events that fill or snoop its caches or
        # change its MSHRs, and those bump its port stamp
        # (``CorePort.epoch``, ``MSHRFile.version``).  So a stale core
        # is not stepped on a cycle without events, and on an event
        # cycle its next step's outcome (``Core.idle_charge``) is
        # computed once per stamp and reused: a provable no-op is
        # skipped, its stall cycles and drain counts charged as the step
        # would have (``Core.skip_idle``).  With a probe attached every
        # event re-steps each stale core unless ``Core.stuck_at`` holds,
        # so the probe sees every step.
        n = len(cores)
        stale_since = [None] * n
        stamps = [None] * n
        idle = [None] * n
        port_aware = not self.probe
        done = [False] * n
        remaining = n
        while remaining:
            cycle = self.cycle
            if warmup_pending and sum(
                    c._committed for c in cores) >= warmup_committed:
                warmup_pending = False
                self._begin_measurement()
            if max_cycles is not None and cycle >= max_cycles:
                break
            fired = run_until(cycle) if (
                event_cycles and event_cycles[0] <= cycle) else 0
            progress = fired > 0
            for cid, core in enumerate(cores):
                if done[cid]:
                    continue
                since = stale_since[cid]
                if since is not None:
                    wake = core.wake_cycle
                    if wake is not None and wake <= cycle:
                        if fired and core.stuck_at(cycle):
                            continue
                    elif not fired:
                        continue
                    elif port_aware:
                        port = core.port
                        stamp = (port.epoch, port.mshrs.version)
                        if stamp != stamps[cid]:
                            stamps[cid] = stamp
                            idle[cid] = core.idle_charge(cycle)
                        charge = idle[cid]
                        if charge is not None:
                            stale_since[cid] = core.skip_idle(
                                charge, since, cycle)
                            continue
                    elif core.stuck_at(cycle):
                        # The fired events cannot have unblocked this
                        # core; keep it stale (its skipped cycles keep
                        # accruing to the same stall reason).
                        continue
                    core.charge_skipped(cycle - since - 1, cycle)
                    stale_since[cid] = None
                stepped = core.step(cycle)
                if stepped:
                    progress = True
                    last_progress = cycle   # see the class docstring
                # step() records finish_cycle exactly when the core first
                # reports is_done(); checking it avoids a third is_done()
                # call per step.
                if core.finish_cycle is not None and core.is_done():
                    done[cid] = True
                    remaining -= 1
                elif not stepped:
                    stale_since[cid] = cycle
                    stamps[cid] = None
                    core.wake_cycle = core.next_wake(cycle)
            if not remaining:
                break
            if progress:
                target = cycle + 1
            else:
                # Fast-forward.  Every non-done core is stale here (a
                # step that made progress would have set ``progress``),
                # and no event has fired since each went stale, so the
                # cached ``wake_cycle`` values are exact — no need to
                # recompute next_wake per core as
                # _next_interesting_cycle() does.
                target = None
                next_event = events.next_cycle()
                if next_event is not None:
                    target = next_event if next_event > cycle else cycle + 1
                for cid, core in enumerate(cores):
                    if done[cid]:
                        continue
                    wake = core.wake_cycle
                    if wake is not None:
                        cand = wake if wake > cycle else cycle + 1
                        if target is None or cand < target:
                            target = cand
                if target is None:
                    raise self._deadlock(
                        "no-progress",
                        f"no progress possible at cycle {cycle} "
                        f"({self.workload}/{self.config.mechanism})")
            self.cycle = target
            if target - last_progress > watchdog:
                raise self._deadlock(
                    "watchdog",
                    f"watchdog: {watchdog} cycles without progress "
                    f"({self.workload}/{self.config.mechanism})")
        for cid, core in enumerate(self.cores):
            if stale_since[cid] is not None and not done[cid]:
                core.charge_skipped(self.cycle - stale_since[cid] - 1,
                                    self.cycle)
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
        done = [core.is_done() for core in self.cores]
        # Event count at the time each core went stale (None = not stale).
        stale_at: List[Optional[int]] = [None] * len(self.cores)
        events_fired = 0
        while not all(done):
            if self.cycle >= max_cycles:
                raise self._deadlock(
                    "cycle-budget",
                    f"controlled run exceeded {max_cycles} cycles "
                    f"({self.workload}/{self.config.mechanism})")
            stepped = list(done)
            progress = False
            core_progress = False
            while True:
                actions = [("event", handle)
                           for handle in self.events.due_entries(self.cycle)]
                for cid, core in enumerate(self.cores):
                    if stepped[cid]:
                        continue
                    if (stale_at[cid] is not None
                            and events_fired == stale_at[cid]
                            and (core.wake_cycle is None
                                 or core.wake_cycle > self.cycle)):
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
                self.sched_position = (
                    tuple(stepped),
                    tuple(stale_at[cid] is not None
                          and events_fired == stale_at[cid]
                          for cid in range(len(self.cores))))
                index = 0 if len(actions) == 1 else \
                    scheduler.choose(self, actions)
                action = actions[index]
                kind, target = action
                if kind == "event":
                    self.events.fire_entry(target)
                    events_fired += 1
                    progress = True
                else:
                    core = self.cores[target]
                    stepped[target] = True
                    if core.step(self.cycle):
                        # Only core steps feed the watchdog (see the
                        # class docstring); events keep the clock going.
                        progress = core_progress = True
                        stale_at[target] = None
                    else:
                        stale_at[target] = events_fired
                        core.wake_cycle = core.next_wake(self.cycle)
                    if core.is_done():
                        done[target] = True
                scheduler.after_action(self, action)
            if all(done):
                break
            if core_progress:
                last_progress = self.cycle
            if progress:
                self.cycle += 1
            else:
                target_cycle = self._next_interesting_cycle()
                if target_cycle is None:
                    raise self._deadlock(
                        "no-progress",
                        f"no progress possible at cycle {self.cycle} "
                        f"({self.workload}/{self.config.mechanism})")
                self.cycle = target_cycle
            if self.cycle - last_progress > watchdog:
                raise self._deadlock(
                    "watchdog",
                    f"watchdog: {watchdog} cycles without progress "
                    f"({self.workload}/{self.config.mechanism})")
        return self._result()

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
        cores = [
            CoreResult(core.core_id, int(core.c_committed.value),
                       (core.finish_cycle if core.finish_cycle is not None
                        else self.cycle) - start,
                       core.stalls.breakdown())
            for core in self.cores
        ]
        return SimResult(self.workload, self.config.mechanism,
                         self.config.core.sb_entries, self.cycle - start,
                         cores, self.stats.flatten())


def run_single(config: SystemConfig, trace: Trace,
               max_cycles: Optional[int] = None) -> SimResult:
    """Convenience: run one trace on a single-core system."""
    system = System(config.with_cores(1), [trace])
    return system.run(max_cycles)
