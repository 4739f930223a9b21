"""The invariant registry the model checker evaluates after every step.

Each invariant is a pure read-only predicate over the live system (plus
the visibility observer); it returns ``None`` when satisfied or a
human-readable message describing the violation.  Invariants must use
side-effect-free accessors only (:meth:`CacheArray.probe`,
:meth:`Directory.probe`, iteration) so that checking a state cannot
perturb LRU or statistics and thereby change the behaviour being
checked.

Mapping to the paper:

* ``swmr`` / ``directory-backing`` / ``inclusivity`` — the classic MESI
  single-writer-multiple-reader discipline TUS must preserve *for
  visible lines* (Section III-A: unauthorized lines are hidden from
  coherence, so they are exempt by definition);
* ``no-unauthorized`` — for the non-TUS mechanisms, a not-visible line
  (or a residual write mask / ready bit) anywhere is itself a bug;
* ``tus-sync`` — the WOQ and the L1D must agree line-for-line on the
  set of unauthorized lines, their masks, and their ready bits
  (Section IV's Figure 6 bookkeeping);
* ``store-order`` — Store->Store order of x86-TSO over the publication
  events recorded so far (Section III-B's atomic groups are the only
  permitted coarsening);
* ``wait-graph`` — acyclicity of the delay wait-for graph.  Section
  III-C argues every chain of DELAY answers follows strictly increasing
  lex order, so a cycle of live delays is precisely the cross-core
  livelock the lex rule exists to exclude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..common.errors import ReproError, TSOViolationError
from ..cpu.trace import Trace
from ..mem.cacheline import State
from ..sim.progress import delay_edges, wait_cycle
from .observer import StorePairs, VisibilityObserver, store_order_pairs


class InvariantViolation(ReproError):
    """An invariant failed on a reachable state."""

    def __init__(self, invariant: str, message: str,
                 trace: Tuple[str, ...] = ()) -> None:
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant
        self.message = message
        self.trace = trace


#: Every tracked line, ascending, with each core's protocol-visible state.
VisibleStates = List[Tuple[int, Tuple[State, ...]]]


@dataclass
class CheckContext:
    """Everything an invariant may inspect."""

    system: object                    # repro.sim.system.System
    traces: Sequence[Trace]
    observer: VisibilityObserver
    #: Per core, :func:`store_order_pairs` of its trace (one per check).
    store_pairs: Optional[List[StorePairs]] = None
    _visible: Optional[VisibleStates] = field(default=None, repr=False)

    def begin_action(self) -> None:
        """Forget the last action's derived views (call after every
        action, before its invariants run)."""
        self._visible = None

    def visible_states(self) -> VisibleStates:
        """The current action's tracked lines and visible states, built
        by the first invariant that reads them and shared by the rest."""
        if self._visible is None:
            ports = self.system.memsys.ports
            self._visible = [
                (addr, tuple(_visible_state(port, addr) for port in ports))
                for addr in _tracked_lines(self.system)]
        return self._visible


#: name -> predicate(ctx) returning None or a violation message.
INVARIANTS: Dict[str, Callable[[CheckContext], Optional[str]]] = {}


def invariant(name: str):
    def register(fn):
        INVARIANTS[name] = fn
        return fn
    return register


def _visible_state(port, addr: int) -> State:
    """Strongest coherence state core ``port`` holds for ``addr`` that is
    visible to the protocol (not-visible L1D lines are hidden)."""
    strongest = State.I
    line = port.l1d.probe(addr)
    if line is not None and not line.not_visible:
        strongest = line.state
    l2line = port.l2.probe(addr)
    if l2line is not None and l2line.state > strongest:
        strongest = l2line.state
    return strongest


def _tracked_lines(system) -> List[int]:
    addrs = set()
    for port in system.memsys.ports:
        for line in port.l1d:
            addrs.add(line.addr)
        for line in port.l2:
            addrs.add(line.addr)
    for line in system.memsys.l3:
        addrs.add(line.addr)
    # entries() spans every directory home, so on a sharded machine the
    # invariants quantify over all shards, not just shard 0.
    for entry in system.memsys.directory.entries():
        addrs.add(entry.addr)
    return sorted(addrs)


@invariant("swmr")
def check_swmr(ctx: CheckContext) -> Optional[str]:
    """Single-Writer-Multiple-Reader over protocol-visible copies."""
    for addr, states in ctx.visible_states():
        writers = [cid for cid, st in enumerate(states) if st.writable]
        readers = [cid for cid, st in enumerate(states) if st.valid]
        if len(writers) > 1:
            return (f"line {addr:#x} writable at cores "
                    f"{writers} simultaneously")
        if writers and len(readers) > 1:
            return (f"line {addr:#x} writable at core {writers[0]} "
                    f"while cores {readers} hold valid copies")
    return None


@invariant("directory-backing")
def check_directory_backing(ctx: CheckContext) -> Optional[str]:
    """A visible writable copy implies the directory tracks the line and
    (outside an in-flight transaction) names that core as owner.
    ``peek`` routes to the home shard owning the line, so the check is
    exact on sharded directories too."""
    directory = ctx.system.memsys.directory
    visible = ctx.visible_states()
    for cid in range(len(ctx.system.memsys.ports)):
        for addr, states in visible:
            if not states[cid].writable:
                continue
            entry = directory.peek(addr)
            if entry is None:
                return (f"core {cid} holds {addr:#x} writable but the "
                        f"directory does not track the line")
            if not entry.busy and entry.owner != cid:
                return (f"core {cid} holds {addr:#x} writable but the "
                        f"directory owner is {entry.owner}")
    return None


@invariant("inclusivity")
def check_inclusivity(ctx: CheckContext) -> Optional[str]:
    """Every visible valid L1D line is backed by a valid private-L2 copy
    (the inclusive hierarchy TUS's NACK-and-refresh rule relies on)."""
    for cid, port in enumerate(ctx.system.memsys.ports):
        for line in port.l1d:
            if not line.state.valid or line.not_visible:
                continue
            l2line = port.l2.probe(line.addr)
            if l2line is None or not l2line.state.valid:
                return (f"core {cid}: L1D holds {line.addr:#x} "
                        f"({line.state.name}) without a valid L2 copy")
    return None


@invariant("no-unauthorized")
def check_no_unauthorized(ctx: CheckContext) -> Optional[str]:
    """Non-TUS mechanisms must never produce unauthorized state."""
    for cid, port in enumerate(ctx.system.memsys.ports):
        for level, cache in (("L1D", port.l1d), ("L2", port.l2)):
            for line in cache:
                if line.not_visible or line.ready or line.write_mask:
                    return (f"core {cid}: {level} line {line.addr:#x} "
                            f"carries unauthorized state (not_visible="
                            f"{line.not_visible}, ready={line.ready}, "
                            f"mask={line.write_mask:#x})")
    return None


@invariant("tus-sync")
def check_tus_sync(ctx: CheckContext) -> Optional[str]:
    """WOQ entries and not-visible L1D lines must be in exact 1:1
    correspondence, with matching masks and ready bits."""
    for cid, core in enumerate(ctx.system.cores):
        controller = getattr(core.mechanism, "controller", None)
        if controller is None:
            continue
        port = core.port
        nv_lines = {line.addr: line for line in port.l1d if line.not_visible}
        woq_lines = {entry.line: entry for entry in controller.woq}
        if set(nv_lines) != set(woq_lines):
            only_l1 = sorted(set(nv_lines) - set(woq_lines))
            only_woq = sorted(set(woq_lines) - set(nv_lines))
            return (f"core {cid}: not-visible L1D lines and WOQ disagree "
                    f"(L1D-only {[hex(a) for a in only_l1]}, "
                    f"WOQ-only {[hex(a) for a in only_woq]})")
        for addr, entry in woq_lines.items():
            line = nv_lines[addr]
            if line.write_mask != entry.mask:
                return (f"core {cid}: {addr:#x} mask mismatch (L1D "
                        f"{line.write_mask:#x} vs WOQ {entry.mask:#x})")
            if line.ready != entry.ready:
                return (f"core {cid}: {addr:#x} ready mismatch (L1D "
                        f"{line.ready} vs WOQ {entry.ready})")
            if entry.ready and line.state != State.M:
                return (f"core {cid}: {addr:#x} is ready but the L1D "
                        f"state is {line.state.name}, not M")
            if not entry.ready and line.state.writable:
                return (f"core {cid}: {addr:#x} holds write permission "
                        f"({line.state.name}) but is not marked ready")
        for level, cache in (("L2", port.l2), ("L3", ctx.system.memsys.l3)):
            for line in cache:
                if line.not_visible:
                    return (f"core {cid}: {level} line {line.addr:#x} is "
                            f"marked not-visible (only the L1D may hide "
                            f"lines)")
    return None


@invariant("store-order")
def check_store_order(ctx: CheckContext) -> Optional[str]:
    """Store->Store order over the publications recorded so far."""
    if ctx.store_pairs is None:
        ctx.store_pairs = [store_order_pairs(t) for t in ctx.traces]
    for cid, trace in enumerate(ctx.traces):
        try:
            ctx.observer.check_store_store_order(cid, trace,
                                                 ctx.store_pairs[cid])
        except TSOViolationError as exc:
            return str(exc)
    return None


@invariant("wait-graph")
def check_wait_graph(ctx: CheckContext) -> Optional[str]:
    """Acyclicity of the live delay wait-for graph.

    An edge ``requester -> delayer`` exists for every in-flight
    transaction whose last snoop was answered DELAY, provided the
    delayer's mechanism still holds an unpublished store to the line
    (once published, the pending re-poll will succeed, so the edge is
    no longer a dependency).  A cycle means a set of cores each waiting
    for another to publish first — the cross-core livelock Section
    III-C's lex order exists to exclude.
    """
    hops = wait_cycle(delay_edges(ctx.system))
    if hops is None:
        return None
    hops = ", ".join(f"core {a} waits for core {b} (line {line:#x})"
                     for a, b, line in hops)
    return f"delay cycle: {hops}"
