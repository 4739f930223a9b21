"""The x86-TSO backend: the paper's base consistency model.

Registered under the ``"tso"`` name so the model-generic drivers, CLI,
and service reach it through the registry.  It holds:

* :func:`enumerate_outcomes` — Sewell et al.'s abstract machine ("x86-TSO:
  A Rigorous and Usable Programmer's Model", CACM 2010), written as its
  own functional DFS.  Each hardware thread has a FIFO store buffer; a
  step either executes the next instruction of some thread (loads read
  the youngest matching SB entry, else memory; stores append to the SB;
  fences require an empty SB) or drains the head of some thread's SB to
  memory.  It shares no code with the TUS machine, so it stays the
  independent ground truth the tests compare against.
* :class:`_FlatMemory` — the storage x86-TSO gives the shared
  :class:`~repro.models.machine.TUSMachine`: one multi-copy-atomic
  memory, with pending atomic groups published one at a time in WOQ
  (allocation) order.

The TSO-preservation theorem of Section III-D corresponds to: every
outcome of the TUS machine on :class:`_FlatMemory` is in
:func:`enumerate_outcomes`.  Without coalescing every store is its own
group, published in SB order: the machine is then plain x86-TSO, and
serves as this backend's reference machine.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..common.errors import ModelError
from .base import MemoryModel, register_model
from .machine import TUSMachine
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
# The TUS machine's storage
# ----------------------------------------------------------------------

class _FlatMemory:
    """Multi-copy-atomic storage: one memory every core reads.

    Only the head pending group may publish (WOQ order), nothing
    propagates, and a fence has nothing left to do once the machine
    lets it commit.
    """

    __slots__ = ("image",)

    def __init__(self) -> None:
        self.image: Dict[int, int] = {}

    def publishable(self, groups) -> List[int]:
        return [0] if groups else []

    def commit(self, cid: int, writes) -> None:
        for addr, value in writes:
            self.image[addr] = value

    def view(self, cid: int, addr: int) -> int:
        return self.image.get(addr, 0)

    def flush(self, cid: int) -> None:
        pass

    def propagation_steps(self, cid: int) -> List[int]:
        return []

    def memory(self, addresses) -> Dict[int, int]:
        return dict(self.image)

    def state_key(self):
        return tuple(sorted(self.image.items()))

    def clone(self) -> "_FlatMemory":
        other = _FlatMemory()
        other.image = dict(self.image)
        return other


@register_model
class TSOModel(MemoryModel):
    """x86-TSO (Sewell et al.): FIFO store buffers with forwarding."""

    name = "tso"
    description = ("x86-TSO (Sewell et al.): FIFO store buffer, store "
                   "forwarding, mfence drains; multi-copy atomic")
    multi_copy_atomic = True

    def reference_machine(self, program: Program):
        # The TUS machine without coalescing publishes every store as a
        # FIFO singleton group — operationally the TSO store buffer.
        return TUSMachine(program, _FlatMemory(), coalescing=False)

    def machine(self, program: Program, coalescing: bool = True):
        return TUSMachine(program, _FlatMemory(), coalescing=coalescing)

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
