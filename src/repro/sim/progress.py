"""Structured forward-progress diagnostics.

When a watchdog fires, a bare "no progress for N cycles" string answers
none of the questions that matter: which core is stuck, on what, who is
waiting for whom, and whether the event queue still holds anything that
could unblock them.  :class:`ProgressDump` captures that state — per-core
SB/ROB/WOQ heads, unauthorized (not-visible) L1D lines, directory busy
entries, in-flight transactions, the delay wait-for graph, and a pending
event summary — as plain JSON-serialisable data, so a deadlock report
can be rendered by the CLI, attached to a failure manifest, and diffed
between a failing and a passing seed.

The dump rides on :class:`~repro.common.errors.DeadlockError` (its
``dump`` attribute); :meth:`ProgressDump.capture` is called at every
watchdog raise site in :mod:`repro.sim.system`.

Everything here is read-only introspection: capturing a dump must not
perturb the system (no stats, no LRU touches — directory state is read
via ``peek``-equivalent raw structures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


def delay_edges(system) -> List[Tuple[int, int, int, bool]]:
    """The delay wait-for edges ``(requester, delayer, line, live)``.

    One edge per in-flight transaction whose last snoop was answered
    DELAY.  It is *live* while the delayer's mechanism still holds an
    unpublished store to the line (see ``pending_publication``); once
    published, the pending re-poll succeeds and the edge is no longer
    a dependency.
    """
    edges = []
    for trans in system.memsys.inflight:
        if trans.waiting_on is not None:
            live = system.cores[trans.waiting_on].mechanism \
                .pending_publication(trans.addr)
            edges.append((trans.requester, trans.waiting_on, trans.addr,
                          live))
    return edges


def wait_cycle(edges) -> Optional[List[Tuple[int, int, int]]]:
    """One cycle over the *live* ``edges``, as ``(waiter, waitee,
    line)`` hops, or None.

    A requester may wait on several cores at once, so this is a
    depth-first search over the full graph (nodes and successors in
    sorted order, so the cycle found is deterministic).  Where two
    transactions join the same pair of cores, the hop names the later
    one's line.  The wait-graph invariant and the deadlock dump both
    read the graph through here.
    """
    graph: Dict[int, Dict[int, int]] = {}
    for waiter, waitee, line, live in edges:
        if live:
            graph.setdefault(waiter, {})[waitee] = line
    done = set()
    stack: List[int] = []

    def visit(node: int) -> Optional[List[int]]:
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if nxt in stack:
                return stack[stack.index(nxt):]
            if nxt not in done:
                found = visit(nxt)
                if found is not None:
                    return found
        stack.pop()
        done.add(node)
        return None

    nodes = set(graph).union(*graph.values())
    for node in sorted(nodes):
        if node not in done:
            cycle = visit(node)
            if cycle is not None:
                return [(a, b, graph[a][b])
                        for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return None


#: Cap on listed entries per section so a dump of a big system stays
#: readable; counts are always exact, only listings truncate.
_MAX_ITEMS = 16


@dataclass
class ProgressDump:
    """A snapshot of everything relevant to "why is nothing happening".

    All fields are JSON-plain (dicts/lists/ints/strings/None) so the
    dump round-trips through :meth:`to_dict`/:meth:`from_dict` and can
    be embedded in failure manifests verbatim.
    """

    reason: str                      # no-progress | watchdog | cycle-budget
    cycle: int
    workload: str
    mechanism: str
    message: str = ""
    cores: List[dict] = field(default_factory=list)
    mshrs: List[dict] = field(default_factory=list)
    directory: List[dict] = field(default_factory=list)
    inflight: List[dict] = field(default_factory=list)
    wait_edges: List[dict] = field(default_factory=list)
    wait_cycle: Optional[List[int]] = None
    events: dict = field(default_factory=dict)

    # -- construction -------------------------------------------------------
    @classmethod
    def capture(cls, system, reason: str, message: str = "") -> "ProgressDump":
        dump = cls(reason=reason, cycle=system.cycle,
                   workload=system.workload,
                   mechanism=system.config.mechanism, message=message)
        for core in system.cores:
            dump.cores.append(cls._core_state(core))
        for port in system.memsys.ports:
            dump.mshrs.append(cls._mshr_state(port))
        dump.directory = cls._directory_state(system.memsys.directory)
        dump.inflight = [cls._transaction_state(t)
                         for t in system.memsys.inflight[:_MAX_ITEMS]]
        dump._capture_wait_graph(system)
        dump.events = cls._event_state(system.events)
        return dump

    @staticmethod
    def _core_state(core) -> dict:
        sb_entries = core.sb._entries
        head = sb_entries[0] if sb_entries else None
        rob_head = core.rob[0] if core.rob else None
        state = {
            "core": core.core_id,
            "committed": core._committed,
            "next_uop": core._next_uop,
            "trace_len": core._trace_len,
            "done": core.is_done(),
            "last_stall": core.last_stall.name.lower(),
            "wake_cycle": core.wake_cycle,
            "rob": {
                "occupancy": len(core.rob),
                "head": None if rob_head is None else {
                    "kind": rob_head.uop.kind.name.lower(),
                    "addr": rob_head.uop.addr,
                    "waiting_mem": rob_head.waiting_mem,
                    "complete_cycle": rob_head.complete_cycle,
                },
            },
            "sb": {
                "occupancy": len(sb_entries),
                "capacity": core.sb.capacity,
                "committed": sum(1 for e in sb_entries if e.committed),
                "head": None if head is None else {
                    "seq": head.seq, "line": head.line,
                    "committed": head.committed,
                },
            },
            "lq_occupancy": len(core.lq),
        }
        state["mechanism"] = ProgressDump._mechanism_state(core)
        return state

    @staticmethod
    def _mechanism_state(core) -> dict:
        mech = core.mechanism
        state: dict = {"drained": mech.drained()}
        wcb = getattr(mech, "wcb", None)
        if wcb is not None:
            state["wcb"] = [{"line": e.addr, "group": e.group}
                            for e in list(wcb.buffers)[:_MAX_ITEMS]]
        controller = getattr(mech, "controller", None)
        woq = getattr(controller, "woq", None)
        if woq is not None:
            state["woq"] = [
                {"line": e.line, "group": e.group, "ready": e.ready,
                 "can_cycle": e.can_cycle, "deferred": e.deferred,
                 "request_outstanding": e.request_outstanding}
                for e in list(woq)[:_MAX_ITEMS]]
        unauthorized = [line.addr for line in core.port.l1d
                        if line.not_visible]
        if unauthorized:
            state["unauthorized_lines"] = sorted(unauthorized)[:_MAX_ITEMS]
            state["unauthorized_count"] = len(unauthorized)
        return state

    @staticmethod
    def _mshr_state(port) -> dict:
        entries = port.mshrs._entries
        return {
            "core": port.core_id,
            "occupancy": len(entries),
            "capacity": port.mshrs.capacity,
            "parked": len(port.parked()),
            "lines": [{"line": e.addr, "write": e.is_write}
                      for e in list(entries.values())[:_MAX_ITEMS]],
        }

    @staticmethod
    def _directory_state(directory) -> List[dict]:
        """Busy entries from *every* home shard.  The listing cap is
        per shard, so on a sharded directory the shard that is actually
        wedged can never be crowded out of the dump by a noisy
        neighbour."""
        listed = []
        for shard_id, shard in enumerate(directory.shards):
            busy = [entry for entry in shard.entries() if entry.busy]
            listed.extend(
                {"shard": shard_id, "line": e.addr, "owner": e.owner,
                 "sharers": sorted(e.sharers)}
                for e in busy[:_MAX_ITEMS])
        return listed

    @staticmethod
    def _transaction_state(trans) -> dict:
        return {"req": trans.req.value, "line": trans.addr,
                "requester": trans.requester, "issued": trans.issued_cycle,
                "polls": trans.polls, "retries": trans.retries,
                "waiting_on": trans.waiting_on}

    def _capture_wait_graph(self, system) -> None:
        """Every delay edge with its *live* flag, and the cycle the
        wait-graph invariant would report (live edges only)."""
        edges = delay_edges(system)
        self.wait_edges = [
            {"from": requester, "to": delayer, "line": line, "live": live}
            for requester, delayer, line, live in edges]
        hops = wait_cycle(edges)
        self.wait_cycle = None if hops is None else [a for a, _, _ in hops]

    @staticmethod
    def _event_state(events) -> dict:
        # pending() is unordered (bucketed queue); sort so the dump is
        # deterministic for a given machine state.
        pending = sorted(events.pending(), key=lambda e: (e.cycle, e.seq))
        return {
            "count": len(pending),
            "next_cycle": events.next_cycle(),
            "head": [{"cycle": e.cycle, "label": e.label, "actor": e.actor}
                     for e in pending[:8]],
        }

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "reason": self.reason, "cycle": self.cycle,
            "workload": self.workload, "mechanism": self.mechanism,
            "message": self.message, "cores": self.cores,
            "mshrs": self.mshrs, "directory": self.directory,
            "inflight": self.inflight, "wait_edges": self.wait_edges,
            "wait_cycle": self.wait_cycle, "events": self.events,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProgressDump":
        return cls(**data)

    # -- rendering ----------------------------------------------------------
    def render(self) -> str:
        out = [f"== progress dump: {self.reason} at cycle {self.cycle} "
               f"({self.workload}/{self.mechanism}) =="]
        if self.message:
            out.append(self.message)
        for core in self.cores:
            rob, sb = core["rob"], core["sb"]
            line = (f"core {core['core']}: committed {core['committed']}"
                    f"/{core['trace_len']} uops, rob {rob['occupancy']}, "
                    f"sb {sb['occupancy']}/{sb['capacity']} "
                    f"({sb['committed']} committed), "
                    f"stall={core['last_stall']}, wake={core['wake_cycle']}")
            if core["done"]:
                line += " [done]"
            out.append(line)
            head = sb["head"]
            if head is not None:
                out.append(f"  sb head: seq {head['seq']} "
                           f"line {head['line']:#x}"
                           + (" committed" if head["committed"] else ""))
            mech = core["mechanism"]
            for entry in mech.get("woq", ()):
                out.append(
                    f"  woq: line {entry['line']:#x} group {entry['group']}"
                    f" ready={entry['ready']} deferred={entry['deferred']}"
                    f" outstanding={entry['request_outstanding']}")
            if "unauthorized_count" in mech:
                lines = ", ".join(f"{a:#x}"
                                  for a in mech["unauthorized_lines"])
                out.append(f"  unauthorized lines "
                           f"({mech['unauthorized_count']}): {lines}")
        for mshr in self.mshrs:
            if mshr["occupancy"] or mshr["parked"]:
                out.append(f"mshr core {mshr['core']}: "
                           f"{mshr['occupancy']}/{mshr['capacity']} in "
                           f"flight, {mshr['parked']} parked")
        for entry in self.directory:
            sharers = ",".join(map(str, entry["sharers"])) or "-"
            # Dumps captured before directories were sharded have no
            # shard key; render those as shard 0.
            out.append(f"directory busy: shard {entry.get('shard', 0)} "
                       f"line {entry['line']:#x} "
                       f"owner={entry['owner']} sharers={sharers}")
        for trans in self.inflight:
            out.append(f"inflight: {trans['req']} line {trans['line']:#x} "
                       f"by core {trans['requester']} "
                       f"(polls={trans['polls']}, retries={trans['retries']},"
                       f" waiting_on={trans['waiting_on']})")
        for edge in self.wait_edges:
            live = "live" if edge["live"] else "stale"
            out.append(f"wait: core {edge['from']} -> core {edge['to']} "
                       f"on line {edge['line']:#x} [{live}]")
        if self.wait_cycle:
            out.append("WAIT-FOR CYCLE: "
                       + " -> ".join(map(str, self.wait_cycle)))
        ev = self.events
        out.append(f"events: {ev.get('count', 0)} pending, "
                   f"next at {ev.get('next_cycle')}")
        for entry in ev.get("head", ()):
            out.append(f"  @{entry['cycle']}: {entry['label']} "
                       f"(core {entry['actor']})")
        return "\n".join(out)
