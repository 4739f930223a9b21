"""Schedulers for :meth:`repro.sim.system.System.run_controlled`.

A scheduler answers one question: *given several enabled actions, which
happens first?*  An action is either firing one due event or stepping
one runnable core.  The system consults ``choose(system, actions)``
only when two or more actions are enabled — a *decision point* — so a
schedule is fully described by the sequence of indices chosen at
decision points.  ``after_action(system, action)`` runs after every
action (chosen or forced), which is where the checking wrapper
evaluates invariants — except on the replayed prefix of a pausing
:class:`ReplayScheduler`, whose actions the execution that recorded
the prefix already checked (see :func:`replayed_decisions`).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .invariants import INVARIANTS, CheckContext, InvariantViolation


class FrontierReached(Exception):
    """Stops a run at a pause.  Raised by a pausing
    :class:`ReplayScheduler`'s ``on_pause`` hook; carries whatever the
    hook captured there (the explorer's frontier
    :class:`~repro.modelcheck.explorer.RunOutcome`), since the paused
    system dies with the unwound run."""

    def __init__(self, outcome) -> None:
        super().__init__("frontier reached")
        self.outcome = outcome


class DefaultScheduler:
    """Always picks action 0 — reproduces the normal ``run()`` order
    (events in (cycle, insertion) order, then cores in id order)."""

    def choose(self, system, actions: Sequence[Tuple]) -> int:
        return 0

    def after_action(self, system, action: Tuple) -> None:
        pass


class ReplayScheduler:
    """Replays a recorded choice sequence, then pauses or defaults.

    With an ``on_pause`` hook the scheduler *pauses* (:attr:`pause`)
    at every decision point beyond the recorded prefix — the
    explorer's probe mode: it calls ``on_pause(system, actions,
    taken)`` (``taken``: the choices made so far),
    which either raises (:class:`FrontierReached`) to stop the run or
    returns the choice to take there, so the same live run goes on to
    the next decision (how the explorer settles a record at its pause
    and continues into one child; see
    :meth:`~repro.modelcheck.explorer.CheckRunner.__call__`).  Without
    one it continues with choice 0 (the default order), which is how
    minimised prefixes are run to completion.  Out-of-range recorded
    choices are clamped, so a schedule is always applicable.  Every
    choice actually taken is appended to :attr:`taken`.
    """

    def __init__(self, choices: Sequence[int], on_pause=None) -> None:
        self.choices = list(choices)
        self.on_pause = on_pause
        self.taken: List[int] = []
        self.decisions = 0

    @property
    def pause(self) -> bool:
        return self.on_pause is not None

    def choose(self, system, actions: Sequence[Tuple]) -> int:
        index = self.decisions
        self.decisions += 1
        if index < len(self.choices):
            choice = min(self.choices[index], len(actions) - 1)
        elif self.on_pause is not None:
            choice = self.on_pause(system, actions, self.taken)
        else:
            choice = 0
        self.taken.append(choice)
        return choice

    def after_action(self, system, action: Tuple) -> None:
        pass


class RandomScheduler:
    """Uniformly random choices from a seeded generator (swarm mode).

    Records every choice in :attr:`taken` so a violating random walk
    can be minimised and replayed exactly like an exhaustive one.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.taken: List[int] = []
        self.decisions = 0

    def choose(self, system, actions: Sequence[Tuple]) -> int:
        self.decisions += 1
        choice = self.rng.randrange(len(actions))
        self.taken.append(choice)
        return choice

    def after_action(self, system, action: Tuple) -> None:
        pass


def replayed_decisions(inner) -> int:
    """How many leading decisions of a run under ``inner`` replay a
    prefix whose every action was already checked.

    A pausing :class:`ReplayScheduler` re-executes a frontier record's
    prefix.  The record was pushed only after its parent's run checked
    every action up to that parent's pause, and replay is
    deterministic, so the actions before the last recorded choice are
    exactly the ones the ancestors checked.  Every other run — random
    walks, minimisation and ``replay`` runs (``pause=False``), the
    fault campaign's default order — checks from the first action.
    """
    if isinstance(inner, ReplayScheduler) and inner.pause:
        return len(inner.choices)
    return 0


class CheckingScheduler:
    """Wraps an inner scheduler with invariant checking and tracing.

    After every action past the replayed prefix
    (:func:`replayed_decisions`) the configured invariants run against
    the live system; the first failure raises
    :class:`InvariantViolation` with the action trace accumulated so
    far attached.  The trace keeps the raw ``(cycle, index, actions)``
    decisions and ``(cycle, action)`` steps and renders its
    human-readable lines only when :attr:`trace` is read.
    """

    def __init__(self, inner, ctx: CheckContext,
                 invariant_names: Sequence[str]) -> None:
        self.inner = inner
        self.ctx = ctx
        self.invariants = [(name, INVARIANTS[name])
                           for name in invariant_names]
        self.steps: List[Tuple] = []
        self.replayed = replayed_decisions(inner)

    @property
    def trace(self) -> Tuple[str, ...]:
        return render_trace(self.steps)

    def choose(self, system, actions: Sequence[Tuple]) -> int:
        index = self.inner.choose(system, actions)
        self.steps.append((system.cycle, index, actions))
        return index

    def after_action(self, system, action: Tuple) -> None:
        self.steps.append((system.cycle, action))
        self.inner.after_action(system, action)
        if self.replayed:
            if self.inner.decisions < self.replayed:
                return
            self.replayed = 0
        self.ctx.begin_action()
        for name, fn in self.invariants:
            message = fn(self.ctx)
            if message is not None:
                raise InvariantViolation(name, message, self.trace)


def render_trace(steps: Sequence[Tuple]) -> Tuple[str, ...]:
    """The human-readable lines of a :class:`CheckingScheduler` trace."""
    lines = []
    for step in steps:
        if len(step) == 3:
            cycle, index, actions = step
            lines.append(f"cycle {cycle}: choose {index} of "
                         f"[{', '.join(_describe(a) for a in actions)}]")
        else:
            cycle, action = step
            lines.append(f"cycle {cycle}: {_describe(action)}")
    return tuple(lines)


def _describe(action: Tuple) -> str:
    kind, target = action
    if kind == "event":
        actor = "" if target.actor is None else f"@core{target.actor}"
        label = target.label or "event"
        return f"{label}{actor}"
    return f"step core{target}"
