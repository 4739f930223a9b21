"""Randomised swarm exploration (``repro check --fuzz``).

For state spaces too large to exhaust (3 cores, longer programs) the
checker falls back to seeded random walks: each run draws every
decision uniformly from the enabled actions.  The per-run seed is
derived from the base seed and the run index, so any violating walk is
reproducible, and its recorded choice sequence is minimised through
the same machinery as an exhaustive counterexample.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from .explorer import DEFAULT_MAX_CYCLES, CheckReport, CheckRunner, _minimise
from .scheduler import RandomScheduler


def fuzz(scenario_name: str, mechanism: str, *, cores: int = 2,
         lines: int = 2, runs: int = 100, seed: int = 0,
         unsound: bool = False, max_cycles: int = DEFAULT_MAX_CYCLES,
         machine: Optional[dict] = None) -> CheckReport:
    """Run ``runs`` random schedules; minimise the first violation."""
    start = time.monotonic()
    runner = CheckRunner(scenario_name, mechanism, cores=cores, lines=lines,
                         unsound=unsound, max_cycles=max_cycles,
                         machine=machine, mode="fuzz")
    report = runner.report
    outcomes = set()
    for index in range(runs):
        rng = random.Random(f"{seed}:{index}")
        outcome = runner.run(RandomScheduler(rng))
        if outcome.kind == "violation":
            report.violation = _minimise(outcome, runner)
            break
        outcomes.add(outcome.committed)
        report.terminal_states += 1
    report.unique_states = len(outcomes)
    report.truncated = True   # sampling never proves exhaustiveness
    report.complete = False
    report.wall_seconds = time.monotonic() - start
    return report
