"""Pluggable base consistency models (ROADMAP item 4).

``repro.models`` holds the model-independent machinery — programs and
outcomes (:mod:`.program`), the enumeration/random-walk schedule
drivers (:mod:`.drivers`), and the one TUS atomic-group machine with
the WCB insert rules (:mod:`.machine`) — and puts a
:class:`~repro.models.base.MemoryModel` registry in front of the
operational backends, mirroring ``repro.mechanisms.registry``.  Each
backend runs the TUS machine over its own storage:

* ``tso`` — the paper's base model (:mod:`.tso`): Sewell et al.'s
  x86-TSO reference plus a flat multi-copy-atomic storage;
* ``relaxed`` — an ARM-flavoured backend (:mod:`.relaxed`):
  instruction reordering, non-multi-copy-atomic propagation,
  cumulative ``dmb``-style fences, and a storage that lets
  disjoint-line groups publish out of order.

:mod:`.axiomatic` judges candidate executions against per-model
acyclicity axioms, and :mod:`.corpus` pins per-model allowed/forbidden
verdicts for the classic litmus shapes; ``repro litmus`` and the tests
cross-validate operational == axiomatic == corpus verdicts for every
model.

The registry serves this functional layer only: the cycle-level
simulator implements x86-TSO alone, so ``repro check``, ``repro
faults`` and the service's check and faults jobs take no model.

Importing this package imports (and so registers) every built-in
backend.
"""

from .base import (DEFAULT_MODEL, MemoryModel, available_models,
                   get_model, register_model)
from .drivers import (enumerate_machine, enumerate_mechanism_outcomes,
                      enumerate_model_outcomes, enumerate_tus_outcomes,
                      random_walk_outcomes, random_walks)
from .machine import drain_into_groups
from .program import (Fence, Load, Outcome, Program, Store,
                      make_outcome, outcome_matches)
from . import relaxed, tso  # noqa: F401  (import = registration)

__all__ = [
    "DEFAULT_MODEL", "MemoryModel", "available_models", "get_model",
    "register_model",
    "drain_into_groups", "enumerate_machine",
    "enumerate_mechanism_outcomes", "enumerate_model_outcomes",
    "enumerate_tus_outcomes", "random_walk_outcomes", "random_walks",
    "Fence", "Load", "Outcome", "Program", "Store", "make_outcome",
    "outcome_matches",
]
