"""Exhaustive protocol model checking for the MESI + TUS stack.

This package drives the *real* simulator (``repro.sim.System`` with the
production coherence, core, and mechanism code — not a re-specification)
through every reachable interleaving of a small concurrent scenario and
checks protocol invariants after every atomic step.  The pieces:

* :mod:`~repro.modelcheck.scheduler` — controllable schedulers plugged
  into :meth:`repro.sim.system.System.run_controlled`;
* :mod:`~repro.modelcheck.state` — canonical state hashing with
  symmetric-core reduction;
* :mod:`~repro.modelcheck.invariants` — the invariant registry (SWMR,
  directory backing, inclusivity, TUS WOQ/L1D sync, store order,
  wait-for-graph acyclicity);
* :mod:`~repro.modelcheck.scenarios` — small litmus-style concurrent
  programs and the reduced machine configuration they run on;
* :mod:`~repro.modelcheck.explorer` — frontier BFS over schedule
  prefixes with budgets and counterexample minimisation;
* :mod:`~repro.modelcheck.replay` — deterministic re-execution of a
  counterexample schedule (what the generated pytest cases call);
* :mod:`~repro.modelcheck.fuzz` — randomised swarm exploration for
  state spaces too large to exhaust;
* :mod:`~repro.modelcheck.por` — partial-order reduction (sleep sets
  and a persistent-set provider over action footprints);
* :mod:`~repro.modelcheck.frontier` — the in-memory frontier store,
  and its subclass checkpointed to a spool dir, from which a killed
  check resumes;
* :mod:`~repro.modelcheck.litmus` — the cross-model litmus corpus
  lowered to fixed-shape scenarios (``lit:IRIW`` etc.).
"""

from .explorer import CheckReport, Violation, explore, run_schedule
from .frontier import DiskFrontier, MemoryFrontier
from .fuzz import fuzz
from .invariants import INVARIANTS, InvariantViolation
from .litmus import litmus_names, litmus_scenarios
from .por import POR_MODES
from .replay import replay
from .scenarios import SCENARIOS, Scenario, check_config, get_scenario
from .scheduler import (DefaultScheduler, FrontierReached, RandomScheduler,
                        ReplayScheduler)

__all__ = [
    "CheckReport", "Violation", "explore", "run_schedule", "fuzz",
    "INVARIANTS", "InvariantViolation", "replay",
    "SCENARIOS", "Scenario", "check_config", "get_scenario",
    "DefaultScheduler", "FrontierReached", "RandomScheduler",
    "ReplayScheduler", "POR_MODES",
    "DiskFrontier", "MemoryFrontier", "litmus_names", "litmus_scenarios",
]
