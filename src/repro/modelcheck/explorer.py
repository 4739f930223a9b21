"""Frontier BFS over schedule prefixes with counterexample minimisation.

The checker is *stateless* in the model-checking sense: a state is
identified with the schedule prefix that reaches it, and a state is
reached by executing its prefix on a fresh system.  That avoids
deep-copying a live simulator (event closures capture real objects)
and guarantees every explored state is genuinely reachable by the
production code.  Replaying a prefix costs O(depth), so a run does not
stop at its record's pause: it settles the record there and goes on
into the first child it pushed, whose outcome is kept until the BFS
pops that child — one replay serves two records.

Exploration loop:

1. pop a record from the frontier queue; if an earlier run continued
   into it, take its kept outcome (counted in ``resumed``) and go to 3;
2. replay its prefix with a pausing :class:`ReplayScheduler` under the
   checking wrapper.  Invariants run only on the actions past the
   prefix: the run that pushed the record already checked every
   action before its pause, and replay is deterministic
   (:func:`~repro.modelcheck.scheduler.replayed_decisions`);
3. settle the outcome (:func:`drain_frontier`): at a pause, hash the
   paused state; if unseen, enqueue one child prefix per branch
   (subject to depth/state budget) — and a live run then takes the
   first child's branch and stops at that child's own pause,
   completion or violation, keeping that outcome for step 1;
4. on an invariant violation or deadlock, minimise the schedule
   (shortest prefix under default continuation, then greedy zeroing)
   and stop;
5. a run that completes without a new decision point is a terminal
   state: the scenario finished under this interleaving.

The search is exhaustive (``complete=True``) when the queue empties
without hitting any budget.

Two orthogonal extensions ride on the same loop:

* **partial-order reduction** (``por="sleep"`` or ``"persistent"``):
  the pausing scheduler captures action footprints at each frontier
  (:mod:`repro.modelcheck.por`), sleep sets prune commuting sibling
  orders, and the persistent-set provider drops whole conflict-free
  processes.  ``por="off"`` takes the exact pre-POR code path.
* **a spool frontier** (``spool=...``): the in-memory frontier,
  checkpointed now and then to one file in a spool directory
  (:mod:`repro.modelcheck.frontier`), so a killed run resumes from its
  last checkpoint and reports what an uninterrupted run reports.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..common.errors import DeadlockError
from ..common.stats import NULL_STATS
from ..cpu.trace import Trace
from ..models import DEFAULT_MODEL, get_model
from ..sim.system import System
from .frontier import DiskFrontier, MemoryFrontier, make_record
from .invariants import CheckContext, InvariantViolation
from .observer import VisibilityObserver, store_order_pairs
from .por import POR_MODES, describe_for, sleep_filter
from .scenarios import check_config, get_scenario, machine_overrides
from .scheduler import (CheckingScheduler, FrontierReached, ReplayScheduler,
                        render_trace)
from .state import canonical_key, symmetry_permutations

DEFAULT_MAX_CYCLES = 20_000


@dataclass
class Violation:
    """A minimised, replayable counterexample."""

    invariant: str
    message: str
    schedule: Tuple[int, ...]
    scenario: str
    mechanism: str
    cores: int
    lines: int
    unsound: bool
    model: str = DEFAULT_MODEL
    trace: Tuple[str, ...] = ()
    #: The check's ``machine`` overrides (see :func:`explore`).
    machine: Optional[dict] = None
    #: The check's per-run cycle budget; a replay needs the same one
    #: (a budget violation may not reproduce under a larger budget).
    max_cycles: int = DEFAULT_MAX_CYCLES

    def describe(self) -> str:
        overrides = machine_overrides(self.machine)
        lines = [
            f"invariant violated: {self.invariant}",
            f"  {self.message}",
            f"scenario {self.scenario}, mechanism {self.mechanism}, "
            f"{self.cores} cores x {self.lines} lines"
            + (f", model {self.model}" if self.model != DEFAULT_MODEL
               else "")
            + (f", machine {overrides}" if overrides else "")
            + (f", max_cycles {self.max_cycles}"
               if self.max_cycles != DEFAULT_MAX_CYCLES else "")
            + (", unsound authorization" if self.unsound else ""),
            f"minimised schedule ({len(self.schedule)} decisions): "
            f"{list(self.schedule)}",
            "trace:",
        ]
        lines.extend(f"  {step}" for step in self.trace)
        lines.append("replay with:")
        lines.append(self.as_pytest())
        return "\n".join(lines)

    def as_pytest(self) -> str:
        """A ready-to-paste pytest case replaying this counterexample."""
        extra_args = ("" if self.model == DEFAULT_MODEL
                      else f", model={self.model!r}")
        overrides = machine_overrides(self.machine)
        if overrides:
            extra_args += f",\n                     machine={overrides!r}"
        if self.max_cycles != DEFAULT_MAX_CYCLES:
            extra_args += f", max_cycles={self.max_cycles}"
        return (
            "def test_replay_counterexample():\n"
            "    from repro.modelcheck import replay\n"
            f"    outcome = replay({self.scenario!r}, {self.mechanism!r},\n"
            f"                     {list(self.schedule)!r},\n"
            f"                     cores={self.cores}, lines={self.lines},\n"
            f"                     unsound={self.unsound}{extra_args})\n"
            "    assert outcome.kind == 'violation'\n"
            f"    assert outcome.invariant == {self.invariant!r}\n"
        )


@dataclass
class RunOutcome:
    """Result of executing one schedule."""

    kind: str                       # "done" | "frontier" | "violation"
    branches: int = 0               # frontier: enabled actions at the pause
    key: str = ""                   # canonical state hash (every kind:
    #                                 the pause, completion or violation
    #                                 state)
    invariant: str = ""             # violation: which invariant
    message: str = ""
    taken: Tuple[int, ...] = ()     # choices actually consumed
    steps: Sequence[Tuple] = ()     # raw trace (CheckingScheduler.steps)
    committed: Tuple[int, ...] = ()  # done: per-core committed uops
    actions: Optional[Tuple] = None  # frontier, POR on: (infos, keep)

    @property
    def trace(self) -> Tuple[str, ...]:
        """The human-readable action trace, rendered on demand."""
        return render_trace(self.steps)


@dataclass
class CheckReport:
    """Outcome of one (scenario, mechanism) model-check run."""

    scenario: str
    mechanism: str
    cores: int
    lines: int
    mode: str                       # "exhaustive" | "fuzz"
    model: str = DEFAULT_MODEL
    executions: int = 0
    unique_states: int = 0
    terminal_states: int = 0
    complete: bool = False
    truncated: bool = False
    violation: Optional[Violation] = None
    wall_seconds: float = 0.0
    por: str = "off"
    #: Distinct terminal *states* (``terminal_states`` counts terminal
    #: executions, which several schedules may share).
    distinct_terminals: int = 0
    #: Order-independent hash over the distinct terminal state keys —
    #: what the differential suite compares between POR modes.
    terminal_fingerprint: str = ""
    #: Of ``executions``, the records whose outcome came from their
    #: parent's run continuing into them rather than from a replay.
    resumed: int = 0

    @property
    def passed(self) -> bool:
        return self.violation is None

    @property
    def states_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.unique_states / self.wall_seconds

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extent = ("exhaustive" if self.complete
                  else f"bounded ({self.mode})")
        if self.model != DEFAULT_MODEL:
            extent = f"{self.model}, {extent}"
        if self.por != "off":
            extent = f"por={self.por}, {extent}"
        return (f"{status} {self.scenario}/{self.mechanism} "
                f"[{self.cores}c x {self.lines}l, {extent}]: "
                f"{self.executions} executions, "
                f"{self.unique_states} states, "
                f"{self.terminal_states} terminal, "
                f"{self.states_per_sec:.0f} states/s, "
                f"{self.wall_seconds:.1f}s")


def _shape(scenario, cores: int, lines: int) -> Tuple[int, int]:
    """Litmus-bridge scenarios carry a fixed shape; honour it."""
    return (getattr(scenario, "fixed_cores", None) or cores,
            getattr(scenario, "fixed_lines", None) or lines)


class CheckRunner:
    """Executes the schedules of one check.

    Everything that depends only on the check — the reduced machine's
    configuration (validated once, with its latency table and topology;
    see :class:`~repro.common.config.SystemConfig`), the scenario's
    traces, their symmetry permutations, the line pairs their store
    order constrains and the model-filtered invariant names — is built
    once here; each execution builds a fresh :class:`System` from it.
    That system keeps no statistics
    (:data:`~repro.common.stats.NULL_STATS`): no state key, invariant,
    POR footprint, counterexample or progress dump reads one.  Every
    execution is counted in :attr:`report` (``executions``), which is
    what the frontier loop's state budget reads.  Calling the runner
    replays ``schedule`` (see :meth:`__call__`); :meth:`run` executes
    under any inner scheduler.
    """

    def __init__(self, scenario_name: str, mechanism: str, *,
                 cores: int = 2, lines: int = 2, unsound: bool = False,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 machine: Optional[dict] = None,
                 model: str = DEFAULT_MODEL, por: str = "off",
                 mode: str = "exhaustive") -> None:
        scenario = get_scenario(scenario_name)
        cores, lines = _shape(scenario, cores, lines)
        self.scenario = scenario
        self.mechanism = mechanism
        self.cores = cores
        self.lines = lines
        self.unsound = unsound
        self.max_cycles = max_cycles
        self.machine = machine
        self.model = model
        self.describe = describe_for(por)
        self.report = CheckReport(scenario.name, mechanism, cores, lines,
                                  mode=mode, model=model, por=por)
        self.config = check_config(cores, mechanism, unsound=unsound,
                                   **(machine or {}))
        self.traces = [Trace(f"mc-{scenario.name}-c{cid}", program)
                       for cid, program in
                       enumerate(scenario.build(cores, lines))]
        self.perms = symmetry_permutations(self.traces,
                                           self.config.interconnect)
        self.store_pairs = [store_order_pairs(t) for t in self.traces]
        self.invariant_names: Optional[Sequence[str]] = None

    def build(self):
        """A fresh system for one execution: ``(system, observer, ctx)``."""
        system = System(self.config, self.traces,
                        workload=f"mc-{self.scenario.name}",
                        stats=NULL_STATS)
        observer = VisibilityObserver()
        observer.attach(system)
        return system, observer, CheckContext(system, self.traces, observer,
                                              self.store_pairs)

    def __call__(self, schedule: Tuple[int, ...], pause: bool,
                 settle=None) -> RunOutcome:
        """Replay ``schedule`` once, then continue in the default order
        or, with ``pause`` set, stop at the first decision beyond it
        with a ``"frontier"`` outcome.

        ``settle``, when given, is handed that frontier outcome first;
        if it returns a branch index, the same live run takes that
        branch and the outcome returned is the one at the next pause
        (or completion, or violation) instead — exactly what a fresh
        run of the extended prefix returns, since its invariants would
        see the same actions from the same state.
        """
        if not pause:
            return self.run(ReplayScheduler(schedule))
        built = self.build()
        observer = built[1]

        def on_pause(system, actions, taken) -> int:
            nonlocal settle
            described = (None if self.describe is None
                         else self.describe(system, actions))
            outcome = RunOutcome(
                "frontier", branches=len(actions),
                key=canonical_key(system, observer, self.perms),
                taken=tuple(taken), actions=described)
            branch = None if settle is None else settle(outcome)
            settle = None           # only the first pause is settled
            if branch is None:
                raise FrontierReached(outcome)
            return branch

        return self.run(ReplayScheduler(schedule, on_pause), built)

    def run(self, inner, built=None) -> RunOutcome:
        """Execute once under ``inner`` with invariant checking, on
        ``built`` (from :meth:`build`) or a fresh system."""
        self.report.executions += 1
        system, observer, ctx = built if built is not None else self.build()
        if self.invariant_names is None:
            # Invariants that assume orderings the base model does not
            # guarantee (e.g. store-order under the relaxed model) are
            # filtered out; under the default model this is the
            # identity.
            mechanism = system.cores[0].mechanism
            self.invariant_names = get_model(self.model).filter_invariants(
                mechanism.modelcheck_invariants())
        sched = CheckingScheduler(inner, ctx, self.invariant_names)
        taken = getattr(inner, "taken", [])
        perms = self.perms
        try:
            system.run_controlled(sched, max_cycles=self.max_cycles)
        except FrontierReached as paused:
            return paused.outcome
        except InvariantViolation as violation:
            return RunOutcome("violation", invariant=violation.invariant,
                              message=violation.message, taken=tuple(taken),
                              steps=sched.steps,
                              key=canonical_key(system, observer, perms))
        except DeadlockError as deadlock:
            return RunOutcome("violation", invariant="deadlock",
                              message=str(deadlock), taken=tuple(taken),
                              steps=sched.steps,
                              key=canonical_key(system, observer, perms))
        else:
            # A finished run has no scheduling position: neutralise the
            # run loop's intra-cycle bookkeeping so terminal states hash
            # by architectural content alone (two interleavings that end
            # in the same caches/memory but parked their stale cores
            # differently are the same terminal state).
            neutral = (False,) * len(system.cores)
            system.sched_position = (neutral, neutral)
            return RunOutcome("done", taken=tuple(taken), steps=sched.steps,
                              committed=tuple(core.committed
                                              for core in system.cores),
                              key=canonical_key(system, observer, perms))
        finally:
            # The outcome holds no part of the machine that a cycle
            # runs through: released, the machine is freed by reference
            # counting, not later by the cyclic collector.
            system.release()


def run_schedule(scenario_name: str, mechanism: str,
                 schedule: Tuple[int, ...] = (), *, cores: int = 2,
                 lines: int = 2, unsound: bool = False,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 pause: bool = False,
                 machine: Optional[dict] = None,
                 model: str = DEFAULT_MODEL,
                 por: str = "off") -> RunOutcome:
    """Execute one schedule (replaying ``schedule`` at decision points,
    then pausing or continuing with default choices).  With ``por``
    set, a pause also captures the POR action descriptions
    (``outcome.actions``)."""
    runner = CheckRunner(scenario_name, mechanism, cores=cores, lines=lines,
                         unsound=unsound, max_cycles=max_cycles,
                         machine=machine, model=model, por=por)
    return runner(schedule, pause)


def _resolve_child(store, record: dict, fresh: bool) -> None:
    """Report this record's fate to its parent's proviso bookkeeping;
    when the parent's reduced expansion turns out to have led nowhere
    new (the ignoring problem), requeue it for a full expansion."""
    parent = record.get("parent")
    if parent is None:
        return
    refire = store.proviso_resolve(parent, record["id"], fresh)
    if refire is not None:
        store.push(make_record(refire, (), None, full=True))


def drain_frontier(store, runner, report: CheckReport, *, por: str,
                   max_depth: int, max_states: int,
                   on_violation) -> None:
    """The BFS loop over a frontier store, its one consumer.

    A popped record is evaluated by running its prefix, and settled
    (``settle``: claim, child pushes, proviso, ack) at the run's pause,
    from ``runner``'s ``settle`` hook.  When that pushes a child the
    state budget will reach, the live run continues into the first
    child pushed and its outcome is kept until the child is popped,
    which then needs no run (``report.resumed``).  A kept outcome holds
    no trace (``steps`` reach the whole system).  The loop is the
    store's one consumer, so it pops every child it pushes: a kept
    outcome waits only until the BFS reaches its child.

    With ``por="off"`` and a :class:`MemoryFrontier` this is
    operation-for-operation the pre-POR explorer loop (pop order,
    execution accounting, seen-check placement), which is what keeps
    ``--por off`` bit-identical.  The queue is read once per record,
    by its ``pop``: a pop that finds nothing ends the drain.
    ``queue_empty`` is asked only at the state budget, where it
    decides ``truncated``.  A stored violation (a resumed spool) is
    read once, up front; past that the loop stops on the violating
    outcome itself.
    """
    kept: Dict[str, RunOutcome] = {}

    def settle(record: dict, outcome: RunOutcome) -> Optional[dict]:
        """Settle one evaluated record; returns the first child record
        the store actually took, if any."""
        prefix = record["prefix"]
        if outcome.kind == "violation":
            on_violation(outcome)
            store.ack(record)
            return None
        if outcome.kind == "done":
            store.terminal(record["id"], outcome.key)
            _resolve_child(store, record, fresh=True)
            store.ack(record)
            return None
        sleep = frozenset(record["sleep"])
        status = store.claim(outcome.key, record["id"], sleep)
        if status == "seen" and not record["full"]:
            stored = None if por == "off" else store.get_sleep(outcome.key)
            if por == "off" or stored is not None and stored <= sleep:
                # Everything we would newly explore was already
                # explored from this state — prune (covering check).
                _resolve_child(store, record, fresh=False)
                store.ack(record)
                return None
            # Visited before, but with a larger sleep set: re-expand
            # under the intersection so the union of both visits
            # covers every non-slept branch.
            sleep = sleep & stored if stored is not None else sleep
            store.set_sleep(outcome.key, sleep)
        if len(prefix) >= max_depth:
            report.truncated = True
            _resolve_child(store, record, fresh=True)
            store.ack(record)
            return None
        if por == "off":
            children = [make_record(prefix + (branch,))
                        for branch in range(outcome.branches)]
        else:
            infos, keep = outcome.actions
            if record["full"]:
                explored = list(range(outcome.branches))
                child_sleeps = [frozenset()] * outcome.branches
            else:
                explored, child_sleeps = sleep_filter(sleep, infos, keep)
            reduced = 0 < len(explored) < outcome.branches
            parent_key = outcome.key if reduced else None
            if reduced:
                store.proviso_open(outcome.key, len(explored), prefix)
            children = [make_record(prefix + (index,), child_sleep,
                                    parent_key)
                        for index, child_sleep in zip(explored,
                                                      child_sleeps)]
        first = None
        for child in children:
            if store.push(child) and first is None:
                first = child
        _resolve_child(store, record, fresh=True)
        store.ack(record)
        return first

    if store.get_violation() is not None:
        return
    while True:
        if report.executions >= max_states and not store.queue_empty():
            report.truncated = True
            break
        record = store.pop()
        if record is None:
            break
        ready = kept.pop(record["id"], None)
        if ready is not None:
            report.executions += 1
            report.resumed += 1
            settle(record, ready)
            if ready.kind == "violation":
                break
            continue
        settled = []

        def settle_here(outcome: RunOutcome) -> Optional[int]:
            ahead = store.backlog()
            child = settle(record, outcome)
            settled.append(child)
            if child is None or report.executions + ahead >= max_states:
                return None     # nothing pushed, or the budget ends first
            return child["prefix"][-1]

        outcome = runner(record["prefix"], True, settle_here)
        if not settled:         # completed or violated before a pause
            settle(record, outcome)
            if outcome.kind == "violation":
                break
        elif len(outcome.taken) > len(record["prefix"]):
            # The run went on into the child: keep its outcome.
            kept[settled[0]["id"]] = replace(outcome, steps=())


def finalise_report(report: CheckReport, store, start: float) -> None:
    """Fill the store-derived counters of a drained check; its wall
    time adds the time since ``start`` to what a resumed spool's
    checkpoint carried (nothing otherwise)."""
    report.unique_states = store.visited_count()
    count, distinct = store.terminal_stats()
    report.terminal_states = count
    report.distinct_terminals = len(distinct)
    report.terminal_fingerprint = hashlib.sha1(
        ",".join(distinct).encode()).hexdigest()
    report.complete = (not report.truncated and report.violation is None
                       and store.queue_empty())
    report.wall_seconds += time.monotonic() - start


def job_meta(scenario_name: str, mechanism: str, *, cores: int, lines: int,
             max_depth: int, max_states: int, max_cycles: int,
             unsound: bool, machine: Optional[dict], model: str,
             por: str) -> dict:
    """The job parameters a spool's checkpoint carries: a resume must
    ask for the same check (``machine`` as its non-default entries, so
    an explicit default machine is the same check as none)."""
    return {"scenario": scenario_name, "mechanism": mechanism,
            "cores": cores, "lines": lines, "max_depth": max_depth,
            "max_states": max_states, "max_cycles": max_cycles,
            "unsound": unsound, "machine": machine_overrides(machine),
            "model": model, "por": por}


def explore(scenario_name: str, mechanism: str, *, cores: int = 2,
            lines: int = 2, max_depth: int = 64, max_states: int = 100_000,
            max_cycles: int = DEFAULT_MAX_CYCLES, unsound: bool = False,
            machine: Optional[dict] = None,
            model: str = DEFAULT_MODEL, por: str = "off",
            spool=None, store=None) -> CheckReport:
    """Exhaustive frontier BFS over all interleavings of a scenario.

    ``machine`` optionally overrides the reduced machine's shared level
    (``topology``/``dir_shards``/``dram_channels``/``link_latency`` as
    accepted by :func:`~repro.modelcheck.scenarios.check_config`), so
    checks can run on sharded/non-uniform layouts.

    ``por`` selects the partial-order reduction ("off", "sleep" or
    "persistent"); ``spool`` (a directory path) checkpoints the frontier
    there — re-running the same check with the same spool resumes a
    killed one, and a spool holding another check raises
    :class:`~repro.common.errors.ReproError`.
    """
    if por not in POR_MODES:
        raise ValueError(
            f"unknown POR mode {por!r}; available: {', '.join(POR_MODES)}")
    start = time.monotonic()
    runner = CheckRunner(scenario_name, mechanism, cores=cores, lines=lines,
                         unsound=unsound, max_cycles=max_cycles,
                         machine=machine, model=model, por=por)
    report = runner.report
    if store is None:
        store = MemoryFrontier() if spool is None else DiskFrontier(spool)
    spooled = isinstance(store, DiskFrontier)
    if spooled:
        store.report = report     # its checkpoints carry the counters
    store.seed(job_meta(scenario_name, mechanism, cores=runner.cores,
                        lines=runner.lines, max_depth=max_depth,
                        max_states=max_states, max_cycles=max_cycles,
                        unsound=unsound, machine=machine, model=model,
                        por=por),
               make_record(()))

    def minimise_violation(outcome: RunOutcome) -> None:
        store.set_violation({"invariant": outcome.invariant,
                             "message": outcome.message,
                             "taken": list(outcome.taken)})
        report.violation = _minimise(outcome, runner)

    drain_frontier(store, runner, report, por=por, max_depth=max_depth,
                   max_states=max_states, on_violation=minimise_violation)
    if spooled:
        store.checkpoint()
    if report.violation is None:
        stored = store.get_violation()
        if stored is not None:
            # A killed run found the violation and checkpointed it;
            # minimise it here, with the runs the killed one would
            # have made.
            report.violation = _minimise(RunOutcome(
                "violation", invariant=stored["invariant"],
                message=stored["message"], taken=tuple(stored["taken"])),
                runner)
    finalise_report(report, store, start)
    return report


def _minimise(outcome: RunOutcome, runner: CheckRunner) -> Violation:
    """Shrink a violating schedule while preserving the violated
    invariant: shortest prefix under default continuation, then greedy
    zeroing of individual choices, then trailing-zero stripping.  The
    counterexample's message and trace come from the last run that
    reproduced the violation — a run of ``best`` itself."""
    invariant = outcome.invariant
    final: Optional[RunOutcome] = None

    def reproduces(schedule: Tuple[int, ...]) -> bool:
        nonlocal final
        result = runner(schedule, False)
        if result.kind == "violation" and result.invariant == invariant:
            final = result
            return True
        return False

    best = tuple(outcome.taken)
    for k in range(len(best) + 1):
        if reproduces(best[:k]):
            best = best[:k]
            break
    changed = True
    while changed:
        changed = False
        for i, choice in enumerate(best):
            if choice == 0:
                continue
            candidate = best[:i] + (0,) + best[i + 1:]
            if reproduces(candidate):
                best = candidate
                changed = True
    while best and best[-1] == 0 and reproduces(best[:-1]):
        best = best[:-1]
    if final is None:   # pragma: no cover - minimisation is conservative
        final = runner(tuple(outcome.taken), False)
        best = tuple(outcome.taken)
    return Violation(invariant=invariant, message=final.message,
                     schedule=best, scenario=runner.scenario.name,
                     mechanism=runner.mechanism, cores=runner.cores,
                     lines=runner.lines, unsound=runner.unsound,
                     model=runner.model, trace=final.trace,
                     machine=runner.machine, max_cycles=runner.max_cycles)
