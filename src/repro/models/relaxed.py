"""A relaxed (ARM/POWER-flavoured) operational memory-model backend.

One storage subsystem serves two machines, following the
instruction-level operational style of Colvin & Smith's wide-spectrum
semantics and the storage-subsystem treatment of "Taming Weak Memory
Models" (both in PAPERS.md):

* :class:`RelaxedMachine` — the *reference* semantics.  Each core holds
  its remaining instructions as a reorder window: an instruction may
  commit ahead of program-earlier ones whenever they touch disjoint
  addresses and no fence intervenes (load-load, load-store, store-load
  and store-store reordering).  Committed stores enter a global
  coherence list but propagate to each other core *independently* — the
  storage subsystem is **not multi-copy atomic**, so two observers may
  see independent writes in opposite orders (IRIW).
* the TUS atomic-group store path — the shared
  :class:`~repro.models.machine.TUSMachine` over :class:`_Storage`.
  Group formation is the paper's WCB rules, exactly as under TSO; what
  weakens is *publication*: a pending group may become visible ahead
  of an older group when the two touch disjoint lines
  (:meth:`_Storage.publishable`, store-store reordering at group
  granularity), and a published group propagates to each core
  independently, as one atomic batch.

``Fence`` is a full cumulative barrier (``dmb sy``): it commits only
once every program-earlier instruction has committed (for the TUS
machine: SB and pending groups empty), and committing it propagates
every write its core has observed to every other core — the
A/B-cumulativity that restores SC for the fenced litmus shapes
(MP+dmb, SB+dmb, fenced IRIW).

Reads return the coherence-latest write the core has observed (its own
committed writes count as observed), which keeps per-location SC:
per-core reads of one address never go backwards in coherence order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .base import MemoryModel, register_model
from .machine import TUSMachine
from .program import Fence, Load, Outcome, Program, Store, make_outcome

#: One published batch: the publishing core plus its (addr, value)
#: writes, applied atomically.  Reference-machine batches are
#: singletons; TUS batches are whole atomic groups.
_Batch = Tuple[int, Tuple[Tuple[int, int], ...]]


class _Storage:
    """The non-multi-copy-atomic storage subsystem.

    ``batches`` is the global coherence list (commit order = coherence
    order per address); ``seen[c]`` is the set of batch indices core
    ``c`` has observed.  A batch propagates to one core at a time,
    oldest-first per address, so different cores may interleave
    independent addresses differently.
    """

    __slots__ = ("batches", "seen")

    def __init__(self, cores: int) -> None:
        self.batches: List[_Batch] = []
        self.seen: List[Set[int]] = [set() for _ in range(cores)]

    def commit(self, cid: int, writes: Tuple[Tuple[int, int], ...]) -> int:
        """Publish one atomic batch; the writer observes it at once."""
        self.batches.append((cid, writes))
        index = len(self.batches) - 1
        self.seen[cid].add(index)
        return index

    def view(self, cid: int, addr: int) -> int:
        """Coherence-latest observed value of ``addr`` for core
        ``cid`` (0 when the core has seen no write to it)."""
        for index in sorted(self.seen[cid], reverse=True):
            value = self._batch_value(index, addr)
            if value is not None:
                return value
        return 0

    def _batch_value(self, index: int, addr: int) -> Optional[int]:
        for b_addr, value in reversed(self.batches[index][1]):
            if b_addr == addr:
                return value
        return None

    def publishable(self, groups) -> List[int]:
        """Pending groups (oldest first) that may publish now: any
        group touching no line an older pending group touches, so
        groups over disjoint lines publish in either order."""
        return [gi for gi, group in enumerate(groups)
                if all(not {a for a, _ in group} & {a for a, _ in older}
                       for older in groups[:gi])]

    def propagation_steps(self, cid: int) -> List[int]:
        """Batch indices that may propagate to core ``cid`` now: each
        address in the batch must have every coherence-earlier write
        already observed (propagation respects per-address coherence
        order)."""
        steps = []
        for index, (_, writes) in enumerate(self.batches):
            if index in self.seen[cid]:
                continue
            addrs = {a for a, _ in writes}
            ok = all(earlier in self.seen[cid]
                     for earlier, (_, ws) in enumerate(self.batches[:index])
                     if any(a in addrs for a, _ in ws))
            if ok:
                steps.append(index)
        return steps

    def propagate(self, index: int, cid: int) -> None:
        self.seen[cid].add(index)

    def flush(self, cid: int) -> None:
        """Cumulative fence: everything core ``cid`` has observed
        becomes observed by every core."""
        observed = self.seen[cid]
        for seen in self.seen:
            seen |= observed

    def memory(self, addresses) -> Dict[int, int]:
        """Final memory: the coherence-last write per address."""
        image: Dict[int, int] = {}
        for addr in addresses:
            for index in range(len(self.batches) - 1, -1, -1):
                value = self._batch_value(index, addr)
                if value is not None:
                    image[addr] = value
                    break
        return image

    def state_key(self):
        return (tuple(self.batches),
                tuple(tuple(sorted(seen)) for seen in self.seen))

    def clone(self) -> "_Storage":
        other = _Storage.__new__(_Storage)
        other.batches = list(self.batches)
        other.seen = [set(seen) for seen in self.seen]
        return other


def _op_addrs(op) -> FrozenSet[int]:
    if isinstance(op, (Store, Load)):
        return frozenset((op.addr,))
    return frozenset()


def _can_reorder(earlier, later) -> bool:
    """May ``later`` commit ahead of ``earlier`` (same core)?  Fences
    order everything; same-address accesses stay in program order
    (per-location SC); everything else is free to reorder."""
    if isinstance(earlier, Fence) or isinstance(later, Fence):
        return False
    return not (_op_addrs(earlier) & _op_addrs(later))


class RelaxedMachine:
    """Reference relaxed semantics: instruction-level reordering over
    the non-MCA storage subsystem."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: Per core: remaining (program position, op) pairs, in order.
        self.todo: List[List[Tuple[int, object]]] = [
            list(enumerate(thread)) for thread in program.threads]
        self.storage = _Storage(program.num_cores)
        self.regs: Dict[str, int] = {}

    # -- step enumeration ---------------------------------------------
    def enabled_steps(self) -> List[Tuple]:
        steps: List[Tuple] = []
        for cid, pending in enumerate(self.todo):
            for index, (_, op) in enumerate(pending):
                if all(_can_reorder(earlier, op)
                       for _, earlier in pending[:index]):
                    steps.append(("exec", cid, index))
                if isinstance(op, Fence):
                    break   # nothing commits past an uncommitted fence
        if self._props_matter():
            for cid in range(self.program.num_cores):
                for index in self.storage.propagation_steps(cid):
                    steps.append(("prop", index, cid))
        return steps

    def _props_matter(self) -> bool:
        """Propagation only affects outcomes while loads or fences
        remain; pruning the post-program propagation tail keeps the
        DFS small without losing any outcome."""
        return any(isinstance(op, (Load, Fence))
                   for pending in self.todo for _, op in pending)

    def step(self, kind: str, *args) -> None:
        if kind == "exec":
            cid, index = args
            _, op = self.todo[cid].pop(index)
            self._commit(cid, op)
        elif kind == "prop":
            index, cid = args
            self.storage.propagate(index, cid)
        else:
            raise ValueError(f"unknown step kind {kind!r}")

    # -- semantics ----------------------------------------------------
    def _commit(self, cid: int, op) -> None:
        if isinstance(op, Store):
            self.storage.commit(cid, ((op.addr, op.value),))
        elif isinstance(op, Load):
            self.regs[op.reg] = self.storage.view(cid, op.addr)
        elif isinstance(op, Fence):
            self.storage.flush(cid)
        else:
            raise TypeError(f"unknown op {op!r}")

    # -- termination --------------------------------------------------
    def done(self) -> bool:
        return all(not pending for pending in self.todo)

    def outcome(self) -> Outcome:
        addresses = self.program.addresses()
        return make_outcome(self.regs, self.storage.memory(addresses),
                            addresses)

    # -- memoisation --------------------------------------------------
    def state_key(self):
        return (tuple(tuple(pos for pos, _ in pending)
                      for pending in self.todo),
                self.storage.state_key(),
                tuple(sorted(self.regs.items())))

    def clone(self) -> "RelaxedMachine":
        other = RelaxedMachine.__new__(RelaxedMachine)
        other.program = self.program
        other.todo = [list(pending) for pending in self.todo]
        other.storage = self.storage.clone()
        other.regs = dict(self.regs)
        return other


@register_model
class RelaxedModel(MemoryModel):
    """ARM/POWER-style relaxed ordering with cumulative full fences."""

    name = "relaxed"
    description = ("relaxed (ARM-flavoured): load/store reordering, "
                   "non-multi-copy-atomic stores, cumulative dmb")
    multi_copy_atomic = False

    def reference_machine(self, program: Program) -> RelaxedMachine:
        return RelaxedMachine(program)

    def machine(self, program: Program,
                coalescing: bool = True) -> TUSMachine:
        return TUSMachine(program, _Storage(program.num_cores),
                          coalescing=coalescing)

    def consistent(self, execution) -> bool:
        from .axiomatic import relaxed_consistent
        return relaxed_consistent(execution)

    def axiom_names(self) -> Tuple[str, ...]:
        return ("sc-per-location", "relaxed-ghb")
