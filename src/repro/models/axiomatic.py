"""Axiomatic (herd-style) litmus judgment: po/rf/co/fr + acyclicity.

The second leg of the three-way cross-validation.  A *candidate
execution* fixes, for one program, a reads-from map (each load reads
one same-address store, or the zero-initialised memory) and a coherence
order (per address, a total order over its stores that respects each
core's program order).  A memory model is a predicate over candidates
built from acyclicity axioms over the classic relations:

``po``    program order (same core), restricted to loads/stores;
``po_loc``  po between same-address accesses;
``fence`` accesses separated by a Fence in program order;
``rf``    the reads-from map; ``rfe`` its external (cross-core) part;
``co``    coherence order (adjacent edges);
``fr``    from-read: each load to the coherence successors of the
          store it read (to every store of its address when it read
          the initial value).

Axioms (herding-cats vocabulary):

* ``sc-per-location`` — acyclic(po_loc ∪ rf ∪ co ∪ fr); both models.
* ``tso-ghb`` — acyclic(ppo ∪ fence ∪ rfe ∪ co ∪ fr) with
  ppo = po minus store→load pairs (the one TSO reordering) and internal
  reads-from excluded (store forwarding lets a load complete early).
* ``relaxed-ghb`` — acyclic(fence ∪ rfe ∪ co ∪ fr): program order
  constrains nothing across addresses unless fenced.  Cumulativity
  needs no extra edges for this corpus: every forbidden relaxed shape
  carries fences on each participating observer, and rfe/co/fr alone
  cannot close a cycle (each stays within one address and moves
  forward in coherence order).

Outcomes project from consistent candidates (registers from ``rf``,
final memory from the coherence maximum), giving
``axiomatic_outcomes`` the same ``Set[Outcome]`` shape as operational
enumeration — the containment tests compare them directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .base import get_model
from .program import Fence, Load, Outcome, Program, Store, make_outcome

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Event:
    """One load or store instance; ``eid`` is globally unique."""
    eid: int
    cid: int
    index: int          # position within the core's thread
    kind: str           # "R" or "W"
    addr: int
    value: Optional[int] = None   # store value (writes only)
    reg: Optional[str] = None     # destination register (reads only)


@dataclass
class Execution:
    """One candidate execution of ``program``."""
    program: Program
    events: Tuple[Event, ...]
    #: read eid -> write eid it reads from, or None for the initial 0.
    rf: Dict[int, Optional[int]]
    #: addr -> write eids in coherence order.
    co: Dict[int, Tuple[int, ...]]

    def reads(self) -> List[Event]:
        return [e for e in self.events if e.kind == "R"]

    def writes(self) -> List[Event]:
        return [e for e in self.events if e.kind == "W"]

    def read_value(self, read: Event) -> int:
        source = self.rf[read.eid]
        if source is None:
            return 0
        return self._event(source).value

    def _event(self, eid: int) -> Event:
        return self.events[eid]

    def outcome(self) -> Outcome:
        regs = {read.reg: self.read_value(read) for read in self.reads()}
        memory = {}
        for addr, order in self.co.items():
            if order:
                memory[addr] = self._event(order[-1]).value
        return make_outcome(regs, memory, self.program.addresses())


# ----------------------------------------------------------------------
# Candidate enumeration
# ----------------------------------------------------------------------

def extract_events(program: Program) -> Tuple[Event, ...]:
    """Load/store events in (cid, index) order; fences contribute no
    event but shape the ``fence`` relation via their position."""
    events: List[Event] = []
    for cid, thread in enumerate(program.threads):
        for index, op in enumerate(thread):
            if isinstance(op, Store):
                events.append(Event(len(events), cid, index, "W",
                                    op.addr, value=op.value))
            elif isinstance(op, Load):
                events.append(Event(len(events), cid, index, "R",
                                    op.addr, reg=op.reg))
    return tuple(events)


def _coherence_orders(writes: Sequence[Event]) -> Iterator[Tuple[int, ...]]:
    """Total orders over same-address writes that keep each core's
    writes in program order (anything else loses sc-per-location)."""
    for perm in itertools.permutations(writes):
        ok = True
        last_index: Dict[int, int] = {}
        for event in perm:
            if last_index.get(event.cid, -1) > event.index:
                ok = False
                break
            last_index[event.cid] = event.index
        if ok:
            yield tuple(e.eid for e in perm)


def candidate_executions(program: Program) -> Iterator[Execution]:
    """Every (rf, co) candidate; consistency is judged separately."""
    events = extract_events(program)
    reads = [e for e in events if e.kind == "R"]
    writes_by_addr: Dict[int, List[Event]] = {}
    for e in events:
        if e.kind == "W":
            writes_by_addr.setdefault(e.addr, []).append(e)

    rf_choices: List[List[Optional[int]]] = [
        [None] + [w.eid for w in writes_by_addr.get(r.addr, [])]
        for r in reads]
    co_choices: List[List[Tuple[int, ...]]] = []
    addrs_with_writes = sorted(writes_by_addr)
    for addr in addrs_with_writes:
        co_choices.append(list(_coherence_orders(writes_by_addr[addr])))

    for rf_pick in itertools.product(*rf_choices):
        rf = {r.eid: source for r, source in zip(reads, rf_pick)}
        for co_pick in itertools.product(*co_choices):
            co = dict(zip(addrs_with_writes, co_pick))
            yield Execution(program, events, rf, co)


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------

def po_pairs(ex: Execution) -> Set[Edge]:
    """Full (transitive) program order over load/store events."""
    pairs: Set[Edge] = set()
    by_core: Dict[int, List[Event]] = {}
    for e in ex.events:
        by_core.setdefault(e.cid, []).append(e)
    for events in by_core.values():
        for i, e1 in enumerate(events):
            for e2 in events[i + 1:]:
                pairs.add((e1.eid, e2.eid))
    return pairs


def po_loc(ex: Execution) -> Set[Edge]:
    return {(a, b) for a, b in po_pairs(ex)
            if ex.events[a].addr == ex.events[b].addr}


def fence_pairs(ex: Execution) -> Set[Edge]:
    """(e1, e2) with a Fence between them in e1's thread."""
    pairs: Set[Edge] = set()
    for cid, thread in enumerate(ex.program.threads):
        fence_positions = [i for i, op in enumerate(thread)
                           if isinstance(op, Fence)]
        if not fence_positions:
            continue
        events = [e for e in ex.events if e.cid == cid]
        for e1 in events:
            for e2 in events:
                if any(e1.index < p < e2.index for p in fence_positions):
                    pairs.add((e1.eid, e2.eid))
    return pairs


def rf_pairs(ex: Execution, external_only: bool = False) -> Set[Edge]:
    pairs: Set[Edge] = set()
    for read_eid, write_eid in ex.rf.items():
        if write_eid is None:
            continue
        if external_only and \
                ex.events[write_eid].cid == ex.events[read_eid].cid:
            continue
        pairs.add((write_eid, read_eid))
    return pairs


def co_pairs(ex: Execution) -> Set[Edge]:
    """Adjacent coherence edges (paths give the full order)."""
    pairs: Set[Edge] = set()
    for order in ex.co.values():
        for a, b in zip(order, order[1:]):
            pairs.add((a, b))
    return pairs


def fr_pairs(ex: Execution) -> Set[Edge]:
    """Each read to the immediate coherence successor of its source
    (the rest of the successors follow through ``co`` edges)."""
    pairs: Set[Edge] = set()
    for read in ex.reads():
        order = ex.co.get(read.addr, ())
        source = ex.rf[read.eid]
        if source is None:
            if order:
                pairs.add((read.eid, order[0]))
        else:
            position = order.index(source)
            if position + 1 < len(order):
                pairs.add((read.eid, order[position + 1]))
    return pairs


def acyclic(edges: Set[Edge]) -> bool:
    graph: Dict[int, List[int]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[int, int] = {}
    for root in graph:
        if colour.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[int, Iterator[int]]] = \
            [(root, iter(graph.get(root, ())))]
        colour[root] = GREY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for nxt in successors:
                state = colour.get(nxt, WHITE)
                if state == GREY:
                    return False
                if state == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return True


# ----------------------------------------------------------------------
# Per-model axiom sets
# ----------------------------------------------------------------------

def sc_per_location(ex: Execution) -> bool:
    """Coherence: acyclic(po_loc ∪ rf ∪ co ∪ fr)."""
    return acyclic(po_loc(ex) | rf_pairs(ex) | co_pairs(ex)
                   | fr_pairs(ex))


def tso_ghb(ex: Execution) -> bool:
    """x86-TSO global happens-before: ppo keeps everything but
    store→load; internal rf excluded (forwarding)."""
    ppo = {(a, b) for a, b in po_pairs(ex)
           if not (ex.events[a].kind == "W" and ex.events[b].kind == "R")}
    ghb = ppo | fence_pairs(ex) | rf_pairs(ex, external_only=True) \
        | co_pairs(ex) | fr_pairs(ex)
    return acyclic(ghb)


def relaxed_ghb(ex: Execution) -> bool:
    """Relaxed global happens-before: only fences order across
    addresses; rfe/co/fr carry inter-core observation."""
    ghb = fence_pairs(ex) | rf_pairs(ex, external_only=True) \
        | co_pairs(ex) | fr_pairs(ex)
    return acyclic(ghb)


def tso_consistent(ex: Execution) -> bool:
    return sc_per_location(ex) and tso_ghb(ex)


def relaxed_consistent(ex: Execution) -> bool:
    return sc_per_location(ex) and relaxed_ghb(ex)


# ----------------------------------------------------------------------
# Outcome projection
# ----------------------------------------------------------------------

def axiomatic_outcomes(program: Program, model) -> Set[Outcome]:
    """All outcomes of candidates the model's axioms accept.  ``model``
    is a model name or a :class:`~repro.models.base.MemoryModel`."""
    if isinstance(model, str):
        model = get_model(model)
    outcomes: Set[Outcome] = set()
    for ex in candidate_executions(program):
        if model.consistent(ex):
            outcomes.add(ex.outcome())
    return outcomes
