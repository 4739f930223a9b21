"""Trace containers and basic analysis.

A :class:`Trace` wraps a list of micro-ops together with a name and the
seed that generated it.  Traces can be summarised (op mix, footprint,
burstiness) — the workload generators use the summaries in their tests to
prove that a profile produces what it promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence

from ..common.addr import line_addr
from ..common.errors import TraceError
from .isa import OpKind, UOp

_LOAD = OpKind.LOAD
_STORE = OpKind.STORE


class Trace:
    """A named sequence of micro-ops."""

    def __init__(self, name: str, uops: Sequence[UOp], seed: int = 0) -> None:
        self.name = name
        self.uops: List[UOp] = list(uops)
        self.seed = seed
        self._validate()

    def _validate(self) -> None:
        for i, uop in enumerate(self.uops):
            dep = uop.dep_dist
            if dep is not None and (dep <= 0 or dep > i):
                raise TraceError(
                    f"{self.name}: uop {i} has invalid dep_dist {dep}")
            kind = uop.kind
            if (kind is _LOAD or kind is _STORE) and uop.addr < 0:
                raise TraceError(f"{self.name}: uop {i} has negative address")

    def __len__(self) -> int:
        return len(self.uops)

    def __iter__(self) -> Iterator[UOp]:
        return iter(self.uops)

    def __getitem__(self, idx: int) -> UOp:
        return self.uops[idx]

    def summary(self) -> "TraceSummary":
        return TraceSummary.from_trace(self)


@dataclass
class TraceSummary:
    """Aggregate characteristics of a trace."""

    name: str
    length: int
    loads: int
    stores: int
    fences: int
    store_lines: int               # distinct cache lines stored to
    load_lines: int                # distinct cache lines loaded from
    max_store_burst: int           # longest run of consecutive stores
    mean_stores_per_line_run: float  # coalescing potential
    kind_mix: Dict[str, int] = field(default_factory=dict)

    @property
    def store_ratio(self) -> float:
        return self.stores / self.length if self.length else 0.0

    @property
    def load_ratio(self) -> float:
        return self.loads / self.length if self.length else 0.0

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceSummary":
        loads = stores = fences = 0
        store_lines = set()
        load_lines = set()
        kind_mix: Dict[str, int] = {}
        burst = max_burst = 0
        line_run = 0
        line_runs: List[int] = []
        last_store_line = None
        for uop in trace:
            kind_mix[uop.kind.name] = kind_mix.get(uop.kind.name, 0) + 1
            if uop.kind.is_store:
                stores += 1
                burst += 1
                max_burst = max(max_burst, burst)
                line = line_addr(uop.addr)
                store_lines.add(line)
                if line == last_store_line:
                    line_run += 1
                else:
                    if line_run:
                        line_runs.append(line_run)
                    line_run = 1
                    last_store_line = line
            else:
                burst = 0
                if uop.kind.is_load:
                    loads += 1
                    load_lines.add(line_addr(uop.addr))
                elif uop.kind.is_fence:
                    fences += 1
        if line_run:
            line_runs.append(line_run)
        mean_run = sum(line_runs) / len(line_runs) if line_runs else 0.0
        return cls(trace.name, len(trace), loads, stores, fences,
                   len(store_lines), len(load_lines), max_burst, mean_run,
                   kind_mix)
