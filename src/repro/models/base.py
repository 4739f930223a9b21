"""The :class:`MemoryModel` protocol and the model registry.

A *memory model* bundles three artefacts under one name, mirroring how
``repro.mechanisms.registry`` names store mechanisms:

* a **reference machine** — the plain operational semantics of the model
  (Sewell et al.'s x86-TSO abstract machine; the Colvin & Smith-style
  reordering machine for the relaxed backend);
* a **TUS machine** — the one functional atomic-group store path (SB →
  pending groups → visible), :class:`repro.models.machine.TUSMachine`,
  over that model's storage subsystem, used by
  :func:`repro.models.drivers.enumerate_tus_outcomes`;
* an **axiomatic judgment** — per-model acyclicity axioms over the
  po/rf/co/fr relations :mod:`repro.models.axiomatic` extracts from
  candidate executions.

Machines follow one step protocol so the drivers in
:mod:`repro.models.drivers` can enumerate or random-walk any of them:

``enabled_steps() -> list[tuple]``
    hashable step tokens enabled in the current state;
``step(*token)``
    apply one token; a token is a step kind followed by its arguments,
    e.g. ``("exec", cid)``;
``clone()``, ``state_key()``, ``done()``, ``outcome()``
    copy, memoise, terminate, and project to a canonical
    :data:`~repro.models.program.Outcome`.

Backends self-register with :func:`register_model` when imported; the
package ``__init__`` imports every built-in backend, so the registry is
complete before any lookup.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Set, Tuple

from .program import Outcome, Program


class MemoryModel(abc.ABC):
    """One pluggable base consistency model."""

    #: Registry key (set by :func:`register_model`'s decoratee).
    name: str = ""
    #: One-line human description for ``repro models``.
    description: str = ""
    #: Writes become visible to all other cores at one instant.
    multi_copy_atomic: bool = True

    # -- operational ---------------------------------------------------
    @abc.abstractmethod
    def reference_machine(self, program: Program):
        """The plain (mechanism-free) operational machine."""

    @abc.abstractmethod
    def machine(self, program: Program, coalescing: bool = True):
        """The TUS atomic-group machine on this model's storage.

        ``coalescing=False`` models the non-coalescing store paths
        (baseline/SSB/SPB): every store is its own singleton group.
        """

    def reference_outcomes(self, program: Program,
                           max_states: int = 200_000) -> Set[Outcome]:
        """All outcomes the plain model allows (exhaustive search)."""
        from .drivers import enumerate_machine
        return enumerate_machine(self.reference_machine(program),
                                 max_states, what=self.name)

    # -- axiomatic -----------------------------------------------------
    @abc.abstractmethod
    def consistent(self, execution) -> bool:
        """Does this model's axiom set accept the candidate execution?"""

    @abc.abstractmethod
    def axiom_names(self) -> Tuple[str, ...]:
        """The named acyclicity axioms :meth:`consistent` conjoins."""


#: name -> registered model instance (models are stateless).
_REGISTRY: Dict[str, MemoryModel] = {}


def register_model(cls):
    """Class decorator registering (an instance of) a model backend."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} has no name")
    _REGISTRY[instance.name] = instance
    return cls


def get_model(name: str) -> MemoryModel:
    """Look up a registered memory model by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown memory model {name!r} (known: {known})") from None


def available_models() -> List[str]:
    """Names of all registered memory models."""
    return sorted(_REGISTRY)


#: The model every knob defaults to — the paper's base assumption.
DEFAULT_MODEL = "tso"
