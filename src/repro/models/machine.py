"""The TUS atomic-group functional machine, one for every memory model.

A value-accurate functional model of the TUS store path (Section III):
stores leave each core's FIFO SB into *pending atomic groups* — the
functional shadow of the WCB + WOQ + unauthorized-L1D machinery — and
a group becomes *visible* by publishing all its writes as one atomic
batch.  Group formation follows the paper's WCB rules
(:func:`drain_into_groups`).  Timing is abstracted into scheduler
nondeterminism: any interleaving of the enabled steps is a legal
schedule, explored by :mod:`repro.models.drivers`.

Instruction issue is in order and everything a memory model changes
lives in the *storage* object the backend passes in, in the spirit of
Zhang et al.'s I2E framework (one operational machine, a per-model
storage and publication rule).  A storage provides:

``publishable(groups)``
    indices of the pending groups that may publish now;
``commit(cid, writes)``
    publish one group's ``(addr, value)`` writes atomically;
``view(cid, addr)``
    the value core ``cid`` reads from storage;
``flush(cid)``
    a committed fence's effect on storage;
``propagation_steps(cid)`` / ``propagate(index, cid)``
    published batches that may still reach core ``cid`` (an empty list
    for multi-copy-atomic storage, which then never sees ``propagate``);
``memory(addresses)``, ``state_key()``, ``clone()``
    final image, memoisation key and copy.

Step tokens are ``("exec", cid)``, ``("drain", cid)``,
``("visible", cid, gi)`` and ``("prop", index, cid)``; per core they
are listed exec, drain, visible, so a seeded random walk draws the same
schedule for the same state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.errors import ModelError
from .program import Fence, Load, Outcome, Program, Store, make_outcome


def drain_into_groups(core, addr: int, value: int,
                      coalescing: bool) -> None:
    """Insert one drained store into ``core``'s pending atomic groups.

    ``core`` needs ``groups`` (list of lists of (addr, value)) and
    ``last_written_group`` attributes.  A store joins the group already
    holding its line; joining a group other than the most recently
    written one is a store *cycle* and merges every group in between
    into one atomic group.  With ``coalescing=False`` every store is a
    fresh singleton group (FIFO store paths).
    """
    if not coalescing:
        core.groups.append([(addr, value)])
        core.last_written_group = len(core.groups) - 1
        return
    target = None
    for index, group in enumerate(core.groups):
        if any(g_addr == addr for g_addr, _ in group):
            target = index
            break
    if target is None:
        core.groups.append([(addr, value)])
        core.last_written_group = len(core.groups) - 1
        return
    if (core.last_written_group is not None
            and core.last_written_group != target):
        # A store cycle: merge every group from `target` to the tail
        # into one atomic group (paper Section III-B).
        merged: List[Tuple[int, int]] = []
        for group in core.groups[target:]:
            merged.extend(group)
        core.groups = core.groups[:target] + [merged]
        target = len(core.groups) - 1
    core.groups[target].append((addr, value))
    core.last_written_group = target


class _CoreState:
    """Mutable per-core state (converted to tuples for memoisation)."""

    __slots__ = ("pc", "sb", "groups", "last_written_group")

    def __init__(self) -> None:
        self.pc = 0
        self.sb: List[Tuple[int, int]] = []
        #: Ordered pending atomic groups (oldest first).
        self.groups: List[List[Tuple[int, int]]] = []
        #: Index of the group that received the last drained store.
        self.last_written_group: Optional[int] = None

    def clone(self) -> "_CoreState":
        other = _CoreState()
        other.pc = self.pc
        other.sb = list(self.sb)
        other.groups = [list(g) for g in self.groups]
        other.last_written_group = self.last_written_group
        return other


class TUSMachine:
    """Executes one litmus program under TUS visibility semantics.

    With ``coalescing=False`` the drain step never joins or merges
    groups: every store becomes its own singleton atomic group.  That
    models the non-coalescing store paths (baseline, SSB, SPB).
    """

    def __init__(self, program: Program, storage,
                 coalescing: bool = True) -> None:
        self.program = program
        self.storage = storage
        self.coalescing = coalescing
        self.cores = [_CoreState() for _ in program.threads]
        self.regs: Dict[str, int] = {}

    # -- step enumeration ---------------------------------------------
    def enabled_steps(self) -> List[Tuple]:
        steps: List[Tuple] = []
        props_matter = False
        for cid, core in enumerate(self.cores):
            thread = self.program.threads[cid]
            if core.pc < len(thread):
                # A fence waits until the SB and pending groups drain.
                if not (isinstance(thread[core.pc], Fence)
                        and (core.sb or core.groups)):
                    steps.append(("exec", cid))
                # Propagation only affects outcomes while loads or
                # fences remain; pruning the tail keeps the DFS small.
                if any(isinstance(later, (Load, Fence))
                       for later in thread[core.pc:]):
                    props_matter = True
            if core.sb:
                steps.append(("drain", cid))
            for gi in self.storage.publishable(core.groups):
                steps.append(("visible", cid, gi))
        if props_matter:
            for cid in range(len(self.cores)):
                for index in self.storage.propagation_steps(cid):
                    steps.append(("prop", index, cid))
        return steps

    def step(self, kind: str, *args) -> None:
        if kind == "exec":
            self._exec(*args)
        elif kind == "drain":
            core = self.cores[args[0]]
            addr, value = core.sb.pop(0)
            drain_into_groups(core, addr, value, self.coalescing)
        elif kind == "visible":
            self._make_visible(*args)
        elif kind == "prop":
            self.storage.propagate(*args)
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
        """Loads see their own stores early: youngest SB entry, then the
        youngest pending-group write, then storage (x86-TSO read rule
        extended to the SB's WCB/WOQ 'extension')."""
        core = self.cores[cid]
        for sb_addr, value in reversed(core.sb):
            if sb_addr == addr:
                return value
        for group in reversed(core.groups):
            for g_addr, value in reversed(group):
                if g_addr == addr:
                    return value
        return self.storage.view(cid, addr)

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

    @property
    def memory(self) -> Dict[int, int]:
        """The storage's memory image over the program's addresses."""
        return self.storage.memory(self.program.addresses())

    def outcome(self) -> Outcome:
        return make_outcome(self.regs, self.memory,
                            self.program.addresses())

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

    def clone(self) -> "TUSMachine":
        other = TUSMachine.__new__(TUSMachine)
        other.program = self.program
        other.storage = self.storage.clone()
        other.coalescing = self.coalescing
        other.cores = [core.clone() for core in self.cores]
        other.regs = dict(self.regs)
        return other
