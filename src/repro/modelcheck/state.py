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
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..coherence.topology import Topology
from ..cpu.isa import OpKind
from ..cpu.trace import Trace
from ..mem.cacheline import State
from .observer import VisibilityObserver


def canonical_key(system, observer: Optional[VisibilityObserver],
                  perms: Sequence[Dict[int, int]]) -> str:
    """Return a short stable hash of the canonicalised system state.

    ``perms`` are the check's :func:`symmetry_permutations`; they depend
    only on the check, so its runner computes them once.  The hash is
    of the least ``repr`` of the state tuple over the permutations.
    Each core's own parts are encoded once; a permutation reorders
    them and renames the core ids the directory, the events and the
    in-flight transactions hold.
    """
    now = system.cycle
    cores = system.cores
    memsys = system.memsys
    count = len(cores)
    core_parts = [_encode_core(core, now) for core in cores]
    port_parts = [_encode_port(port) for port in memsys.ports]
    published = ([()] * count if observer is None
                 else [observer.published(cid) for cid in range(count)])
    stepped, stale = getattr(system, "sched_position",
                             ((False,) * count, (False,) * count))
    position = list(zip(stepped, stale))
    l3 = tuple(sorted([(line.addr, _STATE_NAMES[line.state],
                        line.not_visible) for line in memsys.l3]))
    dram = tuple([_rel(free, now) for free in memsys.dram._free_at])
    directory = memsys.directory.entries()
    directory.sort(key=attrgetter("addr"))
    events = [(_rel(entry.cycle, now), entry.label, entry.actor)
              for entry in system.events.pending()]
    inflight = memsys.inflight
    best = None
    for perm in perms:
        # order[i]: the core placed at canonical position i.
        order = sorted(perm, key=perm.__getitem__)
        encoded = repr((
            tuple([core_parts[cid] for cid in order]),
            tuple([port_parts[cid] for cid in order]),
            tuple([published[cid] for cid in order]),
            l3,
            tuple([(entry.addr, _rename(entry.owner, perm),
                    tuple(sorted([perm[s] for s in entry.sharers])),
                    entry.busy) for entry in directory]),
            tuple(sorted([(cycle, label, _rename(actor, perm))
                          for cycle, label, actor in events])),
            tuple(sorted([
                (trans.req.name, trans.addr, perm[trans.requester],
                 tuple(sorted([perm[r] for r in trans.resolved])),
                 trans.data_from_remote, _rename(trans.waiting_on, perm))
                for trans in inflight])),
            dram,
            tuple([position[cid] for cid in order])))
        if best is None or encoded < best:
            best = encoded
    return hashlib.sha1(best.encode()).hexdigest()


def _rename(cid: Optional[int], perm: Dict[int, int]) -> Optional[int]:
    return None if cid is None else perm[cid]


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


def _encode_core(core, now: int) -> Tuple:
    """One core's pipeline and mechanism state, timestamps relative to
    ``now`` (``None`` stays ``None``)."""
    rob = tuple([
        (entry.index, _KIND_NAMES[entry.uop.kind], entry.uop.addr,
         _rel(entry.complete_cycle, now), entry.waiting_mem,
         () if entry.dependents is None
         else tuple([dep.index for dep in entry.dependents]))
        for entry in core.rob])
    sb = tuple([(entry.line, entry.mask, entry.committed)
                for entry in core.sb._entries])
    return (core._next_uop, rob, sb, len(core.lq),
            _rel(core.wake_cycle, now), core.mechanism.modelcheck_state())


def _rel(cycle: Optional[int], now: int) -> Optional[int]:
    """``cycle`` relative to ``now``, clamped at zero."""
    if cycle is None:
        return None
    return cycle - now if cycle > now else 0


def _encode_port(port) -> Tuple:
    mshrs = sorted([(entry.addr, entry.is_write,
                     bool(entry.meta.get("launched")),
                     bool(entry.meta.get("write")), len(entry.waiters))
                    for entry in port.mshrs._entries.values()])
    return (_lines_of(port.l1d), _lines_of(port.l2), tuple(mshrs),
            port.parked(), tuple(sorted(port._pending_writes.items())))


def _lines_of(cache) -> Tuple:
    return tuple(sorted([
        (line.addr, _STATE_NAMES[line.state], line.not_visible, line.ready,
         line.locked, line.write_mask, line.prefetched) for line in cache]))


#: Enum member names by value, read without the enum's ``name``
#: property on every line and ROB entry.
_STATE_NAMES = {state: state.name for state in State}
_KIND_NAMES = {kind: kind.name for kind in OpKind}
