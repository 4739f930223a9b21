"""The x86-TSO backend: the paper's base consistency model.

Two operational machines live here, registered under the ``"tso"``
name so the model-generic drivers, CLI, and service reach them through
the registry:

* :func:`enumerate_outcomes` — Sewell et al.'s abstract machine ("x86-TSO:
  A Rigorous and Usable Programmer's Model", CACM 2010), written as its
  own functional DFS.  Each hardware thread has a FIFO store buffer; a
  step either executes the next instruction of some thread (loads read
  the youngest matching SB entry, else memory; stores append to the SB;
  fences require an empty SB) or drains the head of some thread's SB to
  memory.  It shares no code with the TUS machine, so it stays the
  independent ground truth the tests compare against.
* :class:`TUSMachine` — a value-accurate functional model of the TUS
  store path (Section III): stores leave each core's FIFO SB into
  *pending atomic groups* — the functional shadow of the WCB + WOQ +
  unauthorized-L1D machinery — and a group becomes *visible* by applying
  all its writes to global memory atomically, in WOQ (allocation) order.
  Coalescing follows the paper's rules
  (:func:`~repro.models.drivers.drain_into_groups`).  Timing is
  abstracted into scheduler nondeterminism: any interleaving of
  ``exec`` / ``drain`` / ``visible`` steps across cores is a legal
  schedule, explored by :mod:`repro.models.drivers`.

The TSO-preservation theorem of Section III-D corresponds to: every
outcome of :class:`TUSMachine` is in :func:`enumerate_outcomes`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..common.errors import ModelError
from .base import MemoryModel, register_model
from .drivers import drain_into_groups
from .program import Fence, Load, Outcome, Program, Store, make_outcome

# ----------------------------------------------------------------------
# Sewell et al.'s reference machine
# ----------------------------------------------------------------------

#: Machine state, hashable for memoisation:
#: (per-core program counter, per-core SB tuple, per-core regs, memory).
_State = Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, int], ...], ...],
               Tuple[Tuple[str, int], ...], Tuple[Tuple[int, int], ...]]


def enumerate_outcomes(program: Program,
                       max_states: int = 200_000) -> Set[Outcome]:
    """All final outcomes x86-TSO allows for ``program`` (DFS over every
    interleaving with state memoisation).

    Raises :class:`ModelError` once more than ``max_states`` distinct
    states are seen, with :func:`~repro.models.drivers.enumerate_machine`'s
    message.
    """
    addresses = program.addresses()
    outcomes: Set[Outcome] = set()
    seen: Set[_State] = set()
    initial = (
        tuple(0 for _ in program.threads),
        tuple(() for _ in program.threads),
        (),
        (),
    )
    stack: List[_State] = [initial]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if len(seen) > max_states:
            raise ModelError("program too large for exhaustive tso search")
        pcs, sbs, regs_t, mem_t = state
        regs = dict(regs_t)
        memory = dict(mem_t)
        successors = _successors(program, pcs, sbs, regs, memory)
        if not successors:
            outcomes.add(make_outcome(regs, memory, addresses))
            continue
        stack.extend(successors)
    return outcomes


def _successors(program: Program, pcs, sbs, regs, memory) -> List[_State]:
    out: List[_State] = []
    for cid in range(program.num_cores):
        # Drain the head of this core's SB to memory.
        if sbs[cid]:
            addr, value = sbs[cid][0]
            new_sbs = _replace(sbs, cid, sbs[cid][1:])
            new_mem = dict(memory)
            new_mem[addr] = value
            out.append((pcs, new_sbs, _freeze(regs), _freeze(new_mem)))
        # Execute this core's next instruction.
        pc = pcs[cid]
        if pc >= len(program.threads[cid]):
            continue
        op = program.threads[cid][pc]
        new_pcs = _replace(pcs, cid, pc + 1)
        if isinstance(op, Store):
            new_sbs = _replace(sbs, cid, sbs[cid] + ((op.addr, op.value),))
            out.append((new_pcs, new_sbs, _freeze(regs), _freeze(memory)))
        elif isinstance(op, Load):
            value = _read(sbs[cid], memory, op.addr)
            new_regs = dict(regs)
            new_regs[op.reg] = value
            out.append((new_pcs, sbs, _freeze(new_regs), _freeze(memory)))
        elif isinstance(op, Fence):
            if not sbs[cid]:
                out.append((new_pcs, sbs, _freeze(regs), _freeze(memory)))
        else:
            raise TypeError(f"unknown op {op!r}")
    return out


def _read(sb, memory, addr: int) -> int:
    for sb_addr, sb_value in reversed(sb):
        if sb_addr == addr:
            return sb_value
    return memory.get(addr, 0)


def _replace(tup, index, value):
    return tup[:index] + (value,) + tup[index + 1:]


def _freeze(d: Dict) -> Tuple:
    return tuple(sorted(d.items()))


# ----------------------------------------------------------------------
# The TUS atomic-group machine
# ----------------------------------------------------------------------

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


class TUSMachine:
    """Executes one litmus program under TUS visibility semantics.

    With ``coalescing=False`` the drain step never joins or merges
    groups: every store becomes its own singleton atomic group and
    publishes in FIFO order.  That models the non-coalescing store
    paths (baseline, SSB, SPB), whose visibility order is exactly the
    store-buffer order — i.e. plain x86-TSO.
    """

    def __init__(self, program: Program, coalescing: bool = True) -> None:
        self.program = program
        self.coalescing = coalescing
        self.cores = [_CoreState() for _ in program.threads]
        self.memory: Dict[int, int] = {}
        self.regs: Dict[str, int] = {}

    # -- step enumeration ----------------------------------------------------
    def enabled_steps(self) -> List[Tuple[int, str]]:
        steps: List[Tuple[int, str]] = []
        for cid, core in enumerate(self.cores):
            thread = self.program.threads[cid]
            if core.pc < len(thread):
                op = thread[core.pc]
                if isinstance(op, Fence):
                    if not core.sb and not core.groups:
                        steps.append((cid, "exec"))
                else:
                    steps.append((cid, "exec"))
            if core.sb:
                steps.append((cid, "drain"))
            if core.groups:
                steps.append((cid, "visible"))
        return steps

    def step(self, cid: int, kind: str) -> None:
        core = self.cores[cid]
        if kind == "exec":
            self._exec(cid, core)
        elif kind == "drain":
            self._drain(core)
        elif kind == "visible":
            self._make_visible(core)
        else:
            raise ValueError(f"unknown step kind {kind!r}")

    # -- semantics -----------------------------------------------------------
    def _exec(self, cid: int, core: _CoreState) -> None:
        op = self.program.threads[cid][core.pc]
        core.pc += 1
        if isinstance(op, Store):
            core.sb.append((op.addr, op.value))
        elif isinstance(op, Load):
            self.regs[op.reg] = self._local_read(core, op.addr)
        elif isinstance(op, Fence):
            if core.sb or core.groups:
                raise ModelError("fence executed with pending stores")
        else:
            raise TypeError(f"unknown op {op!r}")

    def _local_read(self, core: _CoreState, addr: int) -> int:
        """Loads see their own stores early: youngest SB entry, then the
        youngest pending-group write, then memory (x86-TSO read rule
        extended to the SB's WCB/WOQ 'extension')."""
        for sb_addr, value in reversed(core.sb):
            if sb_addr == addr:
                return value
        for group in reversed(core.groups):
            for g_addr, value in reversed(group):
                if g_addr == addr:
                    return value
        return self.memory.get(addr, 0)

    def _drain(self, core: _CoreState) -> None:
        """Move the SB head into the pending groups (WCB insert rules)."""
        addr, value = core.sb.pop(0)
        drain_into_groups(core, addr, value, self.coalescing)

    def _make_visible(self, core: _CoreState) -> None:
        """Apply the head atomic group to memory, atomically."""
        group = core.groups.pop(0)
        for addr, value in group:
            self.memory[addr] = value
        if core.last_written_group is not None:
            core.last_written_group = (
                None if core.last_written_group == 0
                else core.last_written_group - 1)

    # -- termination -------------------------------------------------------
    def done(self) -> bool:
        return all(core.pc >= len(self.program.threads[cid])
                   and not core.sb and not core.groups
                   for cid, core in enumerate(self.cores))

    def outcome(self) -> Outcome:
        return make_outcome(self.regs, self.memory,
                            self.program.addresses())

    # -- memoisation key -----------------------------------------------------
    def state_key(self):
        return (
            tuple(core.pc for core in self.cores),
            tuple(tuple(core.sb) for core in self.cores),
            tuple(tuple(tuple(g) for g in core.groups)
                  for core in self.cores),
            tuple(core.last_written_group for core in self.cores),
            tuple(sorted(self.regs.items())),
            tuple(sorted(self.memory.items())),
        )

    def clone(self) -> "TUSMachine":
        other = TUSMachine.__new__(TUSMachine)
        other.program = self.program
        other.coalescing = self.coalescing
        other.memory = dict(self.memory)
        other.regs = dict(self.regs)
        other.cores = []
        for core in self.cores:
            copy = _CoreState()
            copy.pc = core.pc
            copy.sb = list(core.sb)
            copy.groups = [list(g) for g in core.groups]
            copy.last_written_group = core.last_written_group
            other.cores.append(copy)
        return other


@register_model
class TSOModel(MemoryModel):
    """x86-TSO (Sewell et al.): FIFO store buffers with forwarding."""

    name = "tso"
    description = ("x86-TSO (Sewell et al.): FIFO store buffer, store "
                   "forwarding, mfence drains; multi-copy atomic")
    multi_copy_atomic = True
    guarantees_store_order = True

    def reference_machine(self, program: Program):
        # The TUS machine without coalescing publishes every store as a
        # FIFO singleton group — operationally the TSO store buffer.
        return TUSMachine(program, coalescing=False)

    def machine(self, program: Program, coalescing: bool = True):
        return TUSMachine(program, coalescing=coalescing)

    def reference_outcomes(self, program: Program,
                           max_states: int = 200_000) -> Set[Outcome]:
        return enumerate_outcomes(program, max_states)

    def consistent(self, execution) -> bool:
        # Imported on first use: only the axiomatic checks need it, and
        # every ``import repro.models`` (the simulator's too) loads this
        # backend.
        from .axiomatic import tso_consistent
        return tso_consistent(execution)

    def axiom_names(self) -> Tuple[str, ...]:
        return ("sc-per-location", "tso-ghb")
