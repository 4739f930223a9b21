"""Deterministic replay of a counterexample schedule.

A minimised schedule from the explorer (or the fuzzer) plus the
scenario coordinates fully determine an execution: decision points are
replayed from the recorded choices and everything between them is the
simulator's own deterministic order.  The generated pytest cases (see
:meth:`repro.modelcheck.explorer.Violation.as_pytest`) call
:func:`replay` and assert the violation reproduces.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .explorer import DEFAULT_MAX_CYCLES, RunOutcome, run_schedule


def replay(scenario: str, mechanism: str, schedule: Sequence[int], *,
           cores: int = 2, lines: int = 2, unsound: bool = False,
           max_cycles: int = DEFAULT_MAX_CYCLES,
           machine: Optional[dict] = None) -> RunOutcome:
    """Re-execute ``schedule`` and return the outcome.

    The outcome's ``kind`` is ``"violation"`` when the schedule still
    triggers an invariant failure (with ``invariant``/``message``
    filled in), or ``"done"`` when the system runs to completion.
    """
    return run_schedule(scenario, mechanism, tuple(schedule), cores=cores,
                        lines=lines, unsound=unsound, max_cycles=max_cycles,
                        pause=False, machine=machine)
