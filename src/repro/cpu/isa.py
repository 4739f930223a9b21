"""Micro-op vocabulary for the trace-driven core model.

A trace is a sequence of :class:`UOp`.  Memory micro-ops carry a physical
byte address and size; every micro-op may name a producer it depends on
via ``dep_dist`` (how many micro-ops earlier in the trace the producer
sits).  That is enough to express the behaviours the paper's evaluation
turns on: store bursts, long-latency pointer-chasing loads that fill the
ROB, and fences that flush the SB.
"""

from __future__ import annotations

import enum
from typing import Optional

from ..common.addr import word_mask
from ..common.config import CoreConfig


class OpKind(enum.IntEnum):
    """Micro-op classes with distinct timing behaviour."""

    INT_ALU = 0
    INT_MUL = 1
    INT_DIV = 2
    FP_ADD = 3
    FP_MUL = 4
    FP_DIV = 5
    LOAD = 6
    STORE = 7
    FENCE = 8

    @property
    def is_load(self) -> bool:
        return self == OpKind.LOAD

    @property
    def is_store(self) -> bool:
        return self == OpKind.STORE

    @property
    def is_mem(self) -> bool:
        return self in (OpKind.LOAD, OpKind.STORE)

    @property
    def is_fence(self) -> bool:
        return self == OpKind.FENCE


def exec_latency(kind: OpKind, config: CoreConfig) -> int:
    """Execution latency of a micro-op class (Table I)."""
    return config.exec_latencies[kind]


class UOp:
    """One micro-op of a trace."""

    __slots__ = ("kind", "addr", "size", "dep_dist")

    def __init__(self, kind: OpKind, addr: int = 0, size: int = 8,
                 dep_dist: Optional[int] = None) -> None:
        self.kind = kind
        self.addr = addr
        self.size = size
        #: Distance (in micro-ops, >0) back to the producer this micro-op
        #: waits for before executing; None means ready at dispatch.
        self.dep_dist = dep_dist

    def mask(self) -> int:
        """Byte mask of this access within its cache line."""
        return word_mask(self.addr, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind.is_mem:
            return f"UOp({self.kind.name} {self.addr:#x}+{self.size})"
        return f"UOp({self.kind.name})"


def alu(dep_dist: Optional[int] = None) -> UOp:
    """Shorthand: an integer ALU micro-op."""
    return UOp(OpKind.INT_ALU, dep_dist=dep_dist)


def load(addr: int, size: int = 8, dep_dist: Optional[int] = None) -> UOp:
    """Shorthand: a load micro-op."""
    return UOp(OpKind.LOAD, addr, size, dep_dist)


def store(addr: int, size: int = 8, dep_dist: Optional[int] = None) -> UOp:
    """Shorthand: a store micro-op."""
    return UOp(OpKind.STORE, addr, size, dep_dist)


def fence() -> UOp:
    """Shorthand: a full fence (flushes the SB before committing)."""
    return UOp(OpKind.FENCE)
