"""Model-independent schedule drivers for functional litmus machines.

The exhaustive DFS with state memoisation and the seeded random-walk
sampler operate on *any* machine implementing the step protocol of
:mod:`repro.models.base`, so the same drivers enumerate the TUS
machine on every model's storage and the relaxed reference machine.
"""

from __future__ import annotations

from typing import Callable, Set

from ..common.config import MECHANISMS
from ..common.errors import ModelError
from ..common.rng import make_rng
from .base import DEFAULT_MODEL, get_model
from .program import Outcome, Program


def enumerate_machine(root, max_states: int = 200_000,
                      what: str = "TUS") -> Set[Outcome]:
    """All outcomes reachable from ``root`` (exhaustive DFS with state
    memoisation)."""
    outcomes: Set[Outcome] = set()
    seen = set()
    stack = [root]
    while stack:
        machine = stack.pop()
        key = machine.state_key()
        if key in seen:
            continue
        seen.add(key)
        if len(seen) > max_states:
            raise ModelError(
                f"program too large for exhaustive {what} search")
        steps = machine.enabled_steps()
        if not steps:
            if not machine.done():
                raise ModelError(
                    f"{what} machine stuck before completion")
            outcomes.add(machine.outcome())
            continue
        for token in steps:
            successor = machine.clone()
            successor.step(*token)
            stack.append(successor)
    return outcomes


def random_walks(factory: Callable[[], object], walks: int = 200,
                 seed: int = 0, what: str = "TUS") -> Set[Outcome]:
    """Sample outcomes via seeded random schedules (for programs too
    large to exhaust).  Walk ``i`` draws from
    ``make_rng(seed, f"walk{i}")``, so a seed pins the stream."""
    outcomes: Set[Outcome] = set()
    for walk in range(walks):
        rng = make_rng(seed, f"walk{walk}")
        machine = factory()
        while True:
            steps = machine.enabled_steps()
            if not steps:
                break
            token = rng.choice(steps)
            machine.step(*token)
        if not machine.done():
            raise ModelError(f"{what} machine stuck before completion")
        outcomes.add(machine.outcome())
    return outcomes


#: Store paths whose functional visibility model coalesces stores into
#: atomic groups; the rest publish one store at a time in FIFO order.
COALESCING_MECHANISMS = ("csb", "tus")


# ----------------------------------------------------------------------
# Model-aware entry points
# ----------------------------------------------------------------------

def enumerate_model_outcomes(program: Program,
                             model: str = DEFAULT_MODEL,
                             max_states: int = 200_000) -> Set[Outcome]:
    """All outcomes the plain (mechanism-free) model allows."""
    return get_model(model).reference_outcomes(program, max_states)


def enumerate_tus_outcomes(program: Program,
                           max_states: int = 200_000,
                           model: str = DEFAULT_MODEL) -> Set[Outcome]:
    """All outcomes of the TUS atomic-group machine on ``model``."""
    backend = get_model(model)
    return enumerate_machine(backend.machine(program), max_states,
                             what=f"TUS-on-{backend.name}")


def enumerate_mechanism_outcomes(program: Program, mechanism: str,
                                 max_states: int = 200_000,
                                 model: str = DEFAULT_MODEL
                                 ) -> Set[Outcome]:
    """All outcomes of one mechanism's store path on ``model``."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r} "
                         f"(expected one of {MECHANISMS})")
    backend = get_model(model)
    coalescing = mechanism in COALESCING_MECHANISMS
    return enumerate_machine(
        backend.machine(program, coalescing=coalescing), max_states,
        what=f"{mechanism}-on-{backend.name}")


def random_walk_outcomes(program: Program, walks: int = 200,
                         seed: int = 0,
                         model: str = DEFAULT_MODEL) -> Set[Outcome]:
    """Sample TUS-machine outcomes on ``model`` via random schedules."""
    backend = get_model(model)
    return random_walks(lambda: backend.machine(program), walks, seed,
                        what=f"TUS-on-{backend.name}")
