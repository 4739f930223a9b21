"""A relaxed (ARM/POWER-flavoured) operational memory-model backend.

Two machines over one shared storage subsystem, following the
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
* :class:`RelaxedTUSMachine` — the TUS atomic-group store path (SB →
  pending groups → visible) ported onto the same storage.  Group
  formation (coalescing, store cycles, merging) is byte-for-byte the
  paper's WCB rules via :func:`~repro.models.drivers.drain_into_groups`;
  what weakens is *publication*: a pending group may become visible
  ahead of an older group when the two touch disjoint lines
  (store-store reordering at group granularity), and a published
  group propagates to each core independently, as one atomic batch.

``Fence`` is a full cumulative barrier (``dmb sy``): it commits only
once every program-earlier instruction has committed (for the TUS
machine: SB and pending groups empty, matching the TSO machine's fence
rule), and committing it propagates every write its core has observed
to every other core — the A/B-cumulativity that restores SC for the
fenced litmus shapes (MP+dmb, SB+dmb, fenced IRIW).

Reads return the coherence-latest write the core has observed (its own
committed writes count as observed), which keeps per-location SC:
per-core reads of one address never go backwards in coherence order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..common.errors import ModelError
from .base import MemoryModel, register_model
from .drivers import drain_into_groups
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

    def fully_propagated(self) -> bool:
        total = len(self.batches)
        return all(len(seen) == total for seen in self.seen)

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


class _TUSCoreState:
    """Mutable per-core TUS state (mirrors the TSO machine's)."""

    __slots__ = ("pc", "sb", "groups", "last_written_group")

    def __init__(self) -> None:
        self.pc = 0
        self.sb: List[Tuple[int, int]] = []
        self.groups: List[List[Tuple[int, int]]] = []
        self.last_written_group: Optional[int] = None


class RelaxedTUSMachine:
    """The TUS atomic-group store path on the relaxed storage.

    Instruction issue is in order (the store path, not the core, is
    what TUS changes); the weakening relative to the TSO TUS machine
    is (a) a pending group may publish ahead of an older group touching
    disjoint lines and (b) published groups propagate per-core.
    """

    def __init__(self, program: Program, coalescing: bool = True) -> None:
        self.program = program
        self.coalescing = coalescing
        self.cores = [_TUSCoreState() for _ in program.threads]
        self.storage = _Storage(program.num_cores)
        self.regs: Dict[str, int] = {}

    # -- step enumeration ---------------------------------------------
    def enabled_steps(self) -> List[Tuple]:
        steps: List[Tuple] = []
        props_matter = False
        for cid, core in enumerate(self.cores):
            thread = self.program.threads[cid]
            if core.pc < len(thread):
                op = thread[core.pc]
                if isinstance(op, Fence):
                    if not core.sb and not core.groups:
                        steps.append(("exec", cid))
                else:
                    steps.append(("exec", cid))
                if any(isinstance(later, (Load, Fence))
                       for later in thread[core.pc:]):
                    props_matter = True
            if core.sb:
                steps.append(("drain", cid))
            for gi, group in enumerate(core.groups):
                addrs = {a for a, _ in group}
                if all(not addrs & {a for a, _ in earlier}
                       for earlier in core.groups[:gi]):
                    steps.append(("visible", cid, gi))
        if props_matter:
            for cid in range(self.program.num_cores):
                for index in self.storage.propagation_steps(cid):
                    steps.append(("prop", index, cid))
        return steps

    def step(self, kind: str, *args) -> None:
        if kind == "exec":
            (cid,) = args
            self._exec(cid)
        elif kind == "drain":
            (cid,) = args
            self._drain(cid)
        elif kind == "visible":
            cid, gi = args
            self._make_visible(cid, gi)
        elif kind == "prop":
            index, cid = args
            self.storage.propagate(index, cid)
        else:
            raise ValueError(f"unknown step kind {kind!r}")

    # -- semantics ----------------------------------------------------
    def _exec(self, cid: int) -> None:
        core = self.cores[cid]
        op = self.program.threads[cid][core.pc]
        core.pc += 1
        if isinstance(op, Store):
            core.sb.append((op.addr, op.value))
        elif isinstance(op, Load):
            self.regs[op.reg] = self._local_read(cid, op.addr)
        elif isinstance(op, Fence):
            if core.sb or core.groups:
                raise ModelError("fence executed with pending stores")
            self.storage.flush(cid)
        else:
            raise TypeError(f"unknown op {op!r}")

    def _local_read(self, cid: int, addr: int) -> int:
        """Youngest own SB entry, then youngest pending-group write,
        then the storage view (same forwarding rule as the TSO TUS
        machine, over the relaxed storage)."""
        core = self.cores[cid]
        for sb_addr, value in reversed(core.sb):
            if sb_addr == addr:
                return value
        for group in reversed(core.groups):
            for g_addr, value in reversed(group):
                if g_addr == addr:
                    return value
        return self.storage.view(cid, addr)

    def _drain(self, cid: int) -> None:
        core = self.cores[cid]
        addr, value = core.sb.pop(0)
        drain_into_groups(core, addr, value, self.coalescing)

    def _make_visible(self, cid: int, gi: int) -> None:
        """Publish pending group ``gi`` as one atomic batch."""
        core = self.cores[cid]
        group = core.groups.pop(gi)
        self.storage.commit(cid, tuple(group))
        if core.last_written_group is not None:
            if core.last_written_group == gi:
                core.last_written_group = None
            elif core.last_written_group > gi:
                core.last_written_group -= 1

    # -- termination --------------------------------------------------
    def done(self) -> bool:
        return all(core.pc >= len(self.program.threads[cid])
                   and not core.sb and not core.groups
                   for cid, core in enumerate(self.cores))

    def outcome(self) -> Outcome:
        addresses = self.program.addresses()
        return make_outcome(self.regs, self.storage.memory(addresses),
                            addresses)

    # -- memoisation --------------------------------------------------
    def state_key(self):
        return (
            tuple(core.pc for core in self.cores),
            tuple(tuple(core.sb) for core in self.cores),
            tuple(tuple(tuple(g) for g in core.groups)
                  for core in self.cores),
            tuple(core.last_written_group for core in self.cores),
            self.storage.state_key(),
            tuple(sorted(self.regs.items())),
        )

    def clone(self) -> "RelaxedTUSMachine":
        other = RelaxedTUSMachine.__new__(RelaxedTUSMachine)
        other.program = self.program
        other.coalescing = self.coalescing
        other.storage = self.storage.clone()
        other.regs = dict(self.regs)
        other.cores = []
        for core in self.cores:
            copy = _TUSCoreState()
            copy.pc = core.pc
            copy.sb = list(core.sb)
            copy.groups = [list(g) for g in core.groups]
            copy.last_written_group = core.last_written_group
            other.cores.append(copy)
        return other


@register_model
class RelaxedModel(MemoryModel):
    """ARM/POWER-style relaxed ordering with cumulative full fences."""

    name = "relaxed"
    description = ("relaxed (ARM-flavoured): load/store reordering, "
                   "non-multi-copy-atomic stores, cumulative dmb")
    multi_copy_atomic = False
    guarantees_store_order = False

    def reference_machine(self, program: Program) -> RelaxedMachine:
        return RelaxedMachine(program)

    def machine(self, program: Program,
                coalescing: bool = True) -> RelaxedTUSMachine:
        return RelaxedTUSMachine(program, coalescing=coalescing)

    def consistent(self, execution) -> bool:
        from .axiomatic import relaxed_consistent
        return relaxed_consistent(execution)

    def axiom_names(self) -> Tuple[str, ...]:
        return ("sc-per-location", "relaxed-ghb")
