"""Canonical state hashing with symmetric-core reduction.

The explorer deduplicates frontier states by a canonical key computed
from everything that can influence future behaviour: core pipeline
state, private caches, MSHRs, mechanism structures, the shared L3,
directory, DRAM timing, pending events, in-flight transactions, the
per-core publication history (the store-order invariant depends on it),
and the intra-cycle scheduling position (which cores have already
stepped this cycle — it determines the enabled actions).

Two reductions keep the space small:

* **time shift** — absolute cycle numbers are removed; every timestamp
  is encoded relative to the current cycle (clamped at zero: a
  completion in the past behaves identically however far past it is);
* **core symmetry** — cores executing identical traces are
  interchangeable, so the key is the minimum over all trace-preserving
  permutations of the state with core ids consistently renamed.  On a
  non-uniform interconnect cores stop being interchangeable even with
  identical traces — a core one hop from a line's directory home and a
  core three hops away reach genuinely different futures — so the
  permutations are additionally filtered to those that preserve every
  core-to-home and core-to-core distance
  (:meth:`~repro.coherence.topology.Topology.permutation_ok`).  The
  default point-to-point layout has all-zero distances and keeps the
  original unrestricted reduction.

Known approximation: cache-line LRU timestamps are *not* part of the
key.  Replacement order only matters when a set overflows, and the
model-check configurations (:func:`repro.modelcheck.scenarios
.check_config`) give every scenario line its own set with spare ways,
so no checked scenario ever exercises replacement.
"""

from __future__ import annotations

import hashlib
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

from ..coherence.topology import Topology
from ..cpu.trace import Trace
from .observer import VisibilityObserver


def canonical_key(system, observer: Optional[VisibilityObserver],
                  perms: Sequence[Dict[int, int]]) -> str:
    """Return a short stable hash of the canonicalised system state.

    ``perms`` are the check's :func:`symmetry_permutations`; they depend
    only on the check, so its runner computes them once."""
    best = None
    for perm in perms:
        encoded = repr(_encode(system, observer, perm))
        if best is None or encoded < best:
            best = encoded
    return hashlib.sha1(best.encode()).hexdigest()


def symmetry_permutations(traces: Sequence[Trace],
                          topology: Topology) -> List[Dict[int, int]]:
    """Core renamings that preserve the per-core trace AND the per-core
    interconnect position (behaviourally legal relabelings; the rest of
    the configuration is shared by construction).

    The topology filter is what keeps the reduction sound on sharded /
    non-uniform machines: with >1 directory home, two cores with equal
    traces but different distances to a home are *not* interchangeable —
    merging their states would collapse distinguishable timings.  On the
    default point-to-point layout every permutation passes, preserving
    the original reduction exactly.
    """
    signatures = [tuple((uop.kind, uop.addr, uop.size, uop.dep_dist)
                        for uop in trace)
                  for trace in traces]
    n = len(signatures)
    perms = []
    for order in permutations(range(n)):
        if not all(signatures[order[i]] == signatures[i]
                   for i in range(n)):
            continue
        # order[i] is the old core placed at canonical position i.
        perm = {order[i]: i for i in range(n)}
        if not topology.permutation_ok(perm):
            continue
        perms.append(perm)
    return perms


def _encode(system, observer: Optional[VisibilityObserver],
            perm: Dict[int, int]) -> Tuple:
    now = system.cycle

    def rel(t: Optional[int]) -> Optional[int]:
        return None if t is None else max(t - now, 0)

    def remap(cid: Optional[int]) -> Optional[int]:
        return None if cid is None else perm[cid]

    cores = [None] * len(system.cores)
    for cid, core in enumerate(system.cores):
        cores[perm[cid]] = _encode_core(core, rel)
    ports = [None] * len(system.memsys.ports)
    for cid, port in enumerate(system.memsys.ports):
        ports[perm[cid]] = _encode_port(port)
    published: List[Tuple] = [()] * len(system.cores)
    if observer is not None:
        for cid in range(len(system.cores)):
            seen = []
            for _cycle, _seq, line in observer.events.get(cid, []):
                if line not in seen:
                    seen.append(line)
            published[perm[cid]] = tuple(seen)
    l3 = tuple(sorted(
        (line.addr, line.state.name, line.not_visible)
        for line in system.memsys.l3))
    directory = tuple(sorted(
        (entry.addr, remap(entry.owner),
         tuple(sorted(remap(s) for s in entry.sharers)), entry.busy)
        for entry in system.memsys.directory.entries()))
    events = tuple(sorted(
        (rel(entry.cycle), entry.label, remap(entry.actor))
        for entry in system.events.pending()))
    inflight = tuple(sorted(
        (trans.req.name, trans.addr, remap(trans.requester),
         tuple(sorted(remap(r) for r in trans.resolved)),
         trans.data_from_remote, remap(trans.waiting_on))
        for trans in system.memsys.inflight))
    dram = tuple(rel(free) for free in system.memsys.dram._free_at)
    stepped, stale = getattr(
        system, "sched_position",
        ((False,) * len(system.cores), (False,) * len(system.cores)))
    position = tuple(
        (stepped[cid], stale[cid]) for cid in
        sorted(range(len(system.cores)), key=lambda c: perm[c]))
    return (tuple(cores), tuple(ports), tuple(published), l3, directory,
            events, inflight, dram, position)


def _encode_core(core, rel) -> Tuple:
    rob = tuple(
        (entry.index, entry.uop.kind.name, entry.uop.addr,
         rel(entry.complete_cycle), entry.waiting_mem,
         tuple(dep.index for dep in entry.dependents))
        for entry in core.rob)
    sb = tuple((entry.line, entry.mask, entry.committed)
               for entry in core.sb._entries)
    mech = _normalise(core.mechanism.modelcheck_state())
    return (core._next_uop, rob, sb, len(core.lq),
            rel(core.wake_cycle), mech)


def _encode_port(port) -> Tuple:
    def lines_of(cache) -> Tuple:
        return tuple(sorted(
            (line.addr, line.state.name, line.not_visible, line.ready,
             line.locked, line.write_mask, line.prefetched)
            for line in cache))

    mshrs = tuple(sorted(
        (entry.addr, entry.is_write, bool(entry.meta.get("launched")),
         bool(entry.meta.get("write")), len(entry.waiters))
        for entry in port.mshrs._entries.values()))
    pending = port.parked()
    pending_writes = tuple(sorted(port._pending_writes.items()))
    return (lines_of(port.l1d), lines_of(port.l2), mshrs, pending,
            pending_writes)


def _normalise(value) -> Tuple:
    """Recursively freeze a mechanism snapshot into plain hashable data."""
    if isinstance(value, (list, tuple)):
        return tuple([v if type(v) in _SCALARS else _normalise(v)
                      for v in value])
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_normalise(v) for v in value))
    if isinstance(value, dict):
        return tuple(sorted((k, _normalise(v)) for k, v in value.items()))
    return value


#: Types :func:`_normalise` returns unchanged, tested before the call.
_SCALARS = frozenset((int, bool, str, type(None)))
