"""Litmus-test program representation, shared by every memory model.

A :class:`Program` is a tiny multi-threaded program: per core, a list of
loads, stores, and fences over a handful of addresses.  It is *model
independent*: the same program can be enumerated under the x86-TSO
reference (:mod:`repro.models.tso`), the relaxed operational backend
(:mod:`repro.models.relaxed`), or judged axiomatically
(:mod:`repro.models.axiomatic`).  ``Fence`` is the strongest barrier of
whichever model interprets it — ``mfence`` under TSO, a full
(cumulative) ``dmb sy`` under the relaxed model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Store:
    addr: int
    value: int


@dataclass(frozen=True)
class Load:
    addr: int
    reg: str


@dataclass(frozen=True)
class Fence:
    pass


Op = object  # Store | Load | Fence


class Program:
    """One litmus program: a list of op sequences, one per core."""

    def __init__(self, threads: Sequence[Sequence[Op]],
                 name: str = "") -> None:
        self.threads: List[List[Op]] = [list(t) for t in threads]
        self.name = name
        self._validate()

    def _validate(self) -> None:
        regs = set()
        for ops in self.threads:
            for op in ops:
                if isinstance(op, Load):
                    if op.reg in regs:
                        raise ValueError(f"register {op.reg} reused")
                    regs.add(op.reg)

    @property
    def num_cores(self) -> int:
        return len(self.threads)

    def addresses(self) -> List[int]:
        addrs = set()
        for ops in self.threads:
            for op in ops:
                if isinstance(op, (Load, Store)):
                    addrs.add(op.addr)
        return sorted(addrs)

    def registers(self) -> List[str]:
        regs = []
        for ops in self.threads:
            for op in ops:
                if isinstance(op, Load):
                    regs.append(op.reg)
        return regs


#: An outcome: ((reg, value) pairs sorted, (addr, value) pairs sorted).
Outcome = Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[int, int], ...]]


def make_outcome(regs: Dict[str, int], memory: Dict[int, int],
                 addresses: Sequence[int]) -> Outcome:
    """Canonical outcome tuple for set comparisons."""
    return (tuple(sorted(regs.items())),
            tuple((addr, memory.get(addr, 0)) for addr in addresses))


def outcome_matches(outcome: Outcome, regs: Dict[str, int],
                    memory: Optional[Dict[int, int]] = None) -> bool:
    """Partial match: does ``outcome`` assign every register in ``regs``
    (and every address in ``memory``, when given) the stated value?"""
    got_regs = dict(outcome[0])
    for reg, value in regs.items():
        if got_regs.get(reg) != value:
            return False
    if memory:
        got_mem = dict(outcome[1])
        for addr, value in memory.items():
            if got_mem.get(addr, 0) != value:
                return False
    return True
