"""Partial-order reduction: action signatures, independence, providers.

The explorer identifies a state with the schedule prefix reaching it,
so everything POR needs to reason about an enabled action must be
captured *at the pause* and carried in the frontier record.  This
module computes that capture (:func:`describe_actions`) and the two
relations built on it:

* :func:`independent` — a conservative *conditional* commutation
  relation between two enabled actions, used by **sleep sets**.  Two
  actions commute when they belong to different actors, their cache-line
  footprints are disjoint, and at most one of them can reach the shared
  DRAM timing state (two same-cycle DRAM accesses serialise on the
  channel, so their order is visible in the canonical state).
* :func:`persistent_set` — a **stubborn-set style** provider over
  *processes* (an actor plus all its scheduled events and in-flight
  transactions).  Two processes conflict when their *future* line
  footprints intersect or both can still miss to DRAM; the provider
  returns the enabled actions of the smallest closed conflict component,
  which is a sound persistent set because every omitted process commutes
  with the chosen component now and in every future (their footprints
  never meet).

Action identity across replays is exact for events — the event queue's
insertion sequence number is deterministic for a given prefix, so
``(actor, seq, label)`` names the same event in parent and child
states — and structural for core steps (``(core id, next-uop index,
ROB/SB occupancy)``): a core untouched by independent actions presents
the identical signature at the child state.

The relations are deliberately conservative but still *heuristic* in
the sense of the reduction theorems they implement ("Lazy TSO
Reachability"; "A Better Reduction Theorem for Store Buffers"): the
repo does not trust them axiomatically.  ``tests/test_por.py`` pins
them two ways — a Hypothesis property that executes declared-independent
pairs in both orders and demands canonical-state equality, and a
differential suite that demands verdict and terminal-state agreement
with the unreduced BFS on every scenario and litmus program.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..common.addr import line_addr
from ..cpu.isa import OpKind

#: POR modes accepted by :func:`repro.modelcheck.explorer.explore`.
POR_MODES = ("off", "sleep", "persistent")

#: A described enabled action, JSON-plain so frontier records can be
#: spooled to disk:  (sig, lines, shared, progressing) where ``sig``
#: identifies the action across replays, ``lines`` is its sorted
#: may-touch line footprint, ``shared`` flags possible DRAM (global
#: timing) access and ``progressing`` says a core step is *guaranteed*
#: to make forward progress (see :func:`_surely_progresses` — the
#: staleness coupling makes non-progressing steps dependent on every
#: event).
ActionInfo = Tuple[Tuple, Tuple[int, ...], bool, bool]


def _l3_lines(system) -> Set[int]:
    return {line.addr for line in system.memsys.l3}


def _core_immediate_lines(system, cid: int) -> Set[int]:
    """Lines one ``core.step`` may touch: everything in flight in the
    core's structures plus the next fetch window of its trace."""
    core = system.cores[cid]
    lines: Set[int] = set()
    for entry in core.rob:
        if entry.uop.addr is not None:
            lines.add(line_addr(entry.uop.addr))
    for entry in core.sb._entries:
        lines.add(entry.line)
    lines |= set(core.mechanism.footprint_lines())
    fetch = core.config.fetch_width
    uops = core.trace.uops
    for uop in uops[core._next_uop:core._next_uop + fetch]:
        if uop.addr is not None:
            lines.add(line_addr(uop.addr))
    return set(core.mechanism.footprint_expand(lines))


def _core_future_lines(system, cid: int) -> Set[int]:
    """Every line core ``cid`` may touch from now to completion: the
    remaining trace plus everything already in flight on its behalf."""
    core = system.cores[cid]
    lines: Set[int] = set()
    for uop in core.trace.uops[core._next_uop:]:
        if uop.addr is not None:
            lines.add(line_addr(uop.addr))
    for entry in core.rob:
        if entry.uop.addr is not None:
            lines.add(line_addr(entry.uop.addr))
    for entry in core.sb._entries:
        lines.add(entry.line)
    lines |= set(core.mechanism.footprint_lines())
    for entry in system.events.pending():
        if entry.actor == cid:
            line = _label_line(entry.label)
            if line is not None:
                lines.add(line)
    for trans in system.memsys.inflight:
        if trans.requester == cid:
            lines.add(trans.addr)
    return set(core.mechanism.footprint_expand(lines))


def _surely_progresses(system, cid: int) -> bool:
    """Will ``core.step`` at this state definitely make progress?

    This matters because of the run loop's staleness bookkeeping: a
    step that makes *no* progress records the global fired-event
    counter (``stale_at[cid] = events_fired``), so its result depends
    on how many events fired before it — a genuine dependency between
    a non-progressing step and **every** event, regardless of lines.
    A guaranteed-progressing step resets the record to ``None`` under
    either order, restoring commutation.  Conservative: False means
    "might stall", which only costs reduction.
    """
    core = system.cores[cid]
    rob = core.rob
    if rob:
        head = rob[0]
        if (head.uop.kind is not OpKind.FENCE
                and head.complete_cycle is not None
                and head.complete_cycle <= system.cycle):
            return True     # commit retires at least the ROB head
    if (len(rob) < core.config.rob_entries
            and core._next_uop < len(core.trace.uops)):
        uop = core.trace.uops[core._next_uop]
        if uop.kind is OpKind.STORE and core.sb.full:
            return False
        if uop.kind is OpKind.LOAD and core.lq.full:
            return False
        return True         # dispatch inserts at least one micro-op
    return False


def _label_line(label: str) -> int:
    """Parse the line address out of an event label (``kind:0xADDR`` or
    ``kind:detail:0xADDR``); ``None`` when the label has no address."""
    _, _, tail = label.rpartition(":")
    try:
        return int(tail, 16)
    except ValueError:
        return None


def describe_actions(system, actions: Sequence[Tuple]) -> Tuple[ActionInfo, ...]:
    """Signatures + footprints for every enabled action at a pause."""
    l3 = _l3_lines(system)
    described: List[ActionInfo] = []
    for kind, target in actions:
        if kind == "event":
            line = _label_line(target.label)
            lines = () if line is None else (line,)
            head = target.label.split(":", 1)[0]
            # Only directory-bound work can reach DRAM, and only when
            # the line is not already backed by the L3 (the checked
            # machines never evict, so presence is permanent).
            shared = (line is None
                      or (head in ("dir", "busy", "poll")
                          and line not in l3))
            sig = ("event", target.actor, target.seq, target.label)
            described.append((sig, lines, shared, True))
        else:
            cid = target
            core = system.cores[cid]
            lines = _core_immediate_lines(system, cid)
            shared = any(line not in l3 for line in lines)
            sig = ("core", cid, core._next_uop, len(core.rob),
                   len(core.sb._entries))
            described.append((sig, tuple(sorted(lines)), shared,
                              _surely_progresses(system, cid)))
    return tuple(described)


def describe_for(mode: str):
    """How the explorer describes a pause's enabled actions under a
    POR mode, called as ``describe(system, actions)`` from the pause
    hook of :meth:`~repro.modelcheck.explorer.CheckRunner.__call__`:
    captures action infos (and, for persistent mode, the reduced index
    set) while the paused system is still alive.  Returns ``None`` for
    mode ``off`` — no capture, no overhead, bit-identical
    exploration."""
    if mode == "off":
        return None
    if mode not in POR_MODES:
        raise ValueError(
            f"unknown POR mode {mode!r}; available: {', '.join(POR_MODES)}")

    def describe(system, actions):
        infos = describe_actions(system, actions)
        keep = (persistent_set(system, infos) if mode == "persistent"
                else tuple(range(len(infos))))
        return (infos, keep)

    return describe


def actor_of(info: ActionInfo):
    return info[0][1]


def independent(a: ActionInfo, b: ActionInfo) -> bool:
    """Conditional independence of two enabled actions (sleep sets).

    Conservative: unknown actors, shared-timing pairs, same-actor
    pairs, line-overlapping pairs, and event-versus-maybe-stalling-step
    pairs (the staleness coupling) are all dependent.
    """
    sig_a, lines_a, shared_a, progress_a = a
    sig_b, lines_b, shared_b, progress_b = b
    actor_a, actor_b = sig_a[1], sig_b[1]
    if actor_a is None or actor_b is None or actor_a == actor_b:
        return False
    if shared_a and shared_b:
        return False
    if not lines_a or not lines_b:
        return False
    return not (set(lines_a) & set(lines_b))


def commutes_exactly(a: ActionInfo, b: ActionInfo) -> bool:
    """Does the pair commute to *identical* canonical states?

    :func:`independent` is independence up to stuttering: an event
    re-enables every stale core and a step that stalls records how
    many events fired first, so a disjoint-line mixed pair can leave
    the two orders differing in the run loop's staleness bookkeeping
    (``sched_position``) — a difference that decays at the stale
    core's next no-op step and never touches caches, directory or
    mechanism state.  When both actions are events or guaranteed-
    progressing core steps even that bookkeeping agrees, and the two
    orders land on the *same* canonical key — the property the
    Hypothesis commutation test pins.
    """
    return independent(a, b) and a[3] and b[3]


def persistent_set(system, infos: Sequence[ActionInfo]) -> Tuple[int, ...]:
    """Indices of a persistent subset of the enabled actions.

    Processes (actors) are grouped into conflict components by
    future-footprint overlap; the provider returns every enabled action
    of the smallest component that has one.  Falls back to the full set
    whenever an action has no actor (nothing can be proven about it).
    """
    if any(actor_of(info) is None for info in infos):
        return tuple(range(len(infos)))
    futures: Dict[int, Set[int]] = {}
    # Conflict components must close over *all* processes, not only the
    # ones with an enabled action: a currently quiescent core with an
    # overlapping future is reachable through in-component actions and
    # must keep its component's actions together.
    everyone = list(range(len(system.cores)))
    for cid in everyone:
        futures[cid] = _core_future_lines(system, cid)
    parent = {cid: cid for cid in everyone}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # Components are joined on future-footprint overlap only.  Two
    # line-disjoint components can still brush each other through the
    # DRAM channel's serialisation timing (their miss order shifts
    # ``_free_at`` and hence downstream event cycles), so serialising
    # components is commutation up to *timing*, not state equality —
    # like the staleness stuttering (:func:`commutes_exactly`), the
    # difference drains with the traffic and never reaches cache,
    # directory or mechanism state.  The sleep-set relation
    # (:func:`independent`) stays strict about shared-timing pairs;
    # this component rule is pinned by the differential suite.
    for i, x in enumerate(everyone):
        for y in everyone[i + 1:]:
            if futures[x] & futures[y]:
                union(x, y)
    by_component: Dict[int, List[int]] = {}
    for index, info in enumerate(infos):
        by_component.setdefault(find(actor_of(info)), []).append(index)
    # Any strict component works: cross-component pairs are disjoint in
    # every future and at most one component can reach DRAM (risky
    # processes were unioned), so omitted actions stay independent —
    # up to the staleness stuttering argued in :func:`commutes_exactly`
    # and docs/modelcheck.md — of the chosen component forever.
    eligible = [root for root, members in by_component.items()
                if len(members) < len(infos)]
    if not eligible:
        return tuple(range(len(infos)))
    # Deterministic choice: smallest action set, ties by component root.
    root = min(eligible, key=lambda r: (len(by_component[r]), r))
    return tuple(by_component[root])


def sleep_filter(sleep: FrozenSet[Tuple], infos: Sequence[ActionInfo],
                 explore_indices: Sequence[int]
                 ) -> Tuple[List[int], List[FrozenSet[Tuple]]]:
    """Apply sleep sets to the (possibly already persistent-reduced)
    branch list.

    Returns the branch indices to actually explore and, aligned with
    them, the sleep set each child inherits: entries of the incoming
    sleep set plus the signatures of earlier-explored siblings, filtered
    to those independent of the branch taken.
    """
    explored: List[int] = []
    child_sleeps: List[FrozenSet[Tuple]] = []
    taken_first: List[ActionInfo] = []
    for index in explore_indices:
        info = infos[index]
        if info[0] in sleep:
            continue
        inherited = set()
        for sig in sleep:
            # Sleep entries are signatures of actions described at an
            # ancestor; re-resolve them against the current action list
            # so footprints are current.  A signature no longer enabled
            # here stays in the sleep set only if some enabled action
            # carries it (otherwise it is dropped — conservative).
            match = next((i for i in infos if i[0] == sig), None)
            if match is not None and independent(match, info):
                inherited.add(sig)
        for earlier in taken_first:
            if independent(earlier, info):
                inherited.add(earlier[0])
        explored.append(index)
        child_sleeps.append(frozenset(inherited))
        taken_first.append(info)
    return explored, child_sleeps
