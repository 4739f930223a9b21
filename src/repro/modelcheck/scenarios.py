"""Concurrent scenarios and the reduced machine they are checked on.

Scenarios are litmus-style programs parameterised by core and line
count.  The line addresses are consecutive cache lines from a fixed
base, which gives them ascending lexicographical order, distinct
directory sets, and distinct L1D/L2 sets — so replacement never fires
and the lex tie-break is exercised through genuine cross-line groups
rather than set-conflict noise.

The configuration (:func:`check_config`) is the production
:class:`~repro.common.config.SystemConfig` shrunk until the state
space is tractable: single-cycle L1D, short L2/L3/DRAM latencies, tiny
core structures, no stream prefetcher.  Everything else — the
coherence engine, the mechanisms, the TUS controller — is the real
code.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..common.addr import LINE_SIZE
from ..common.config import (CacheConfig, CoreConfig, MemoryConfig,
                             SystemConfig, TUSConfig)
from ..cpu.isa import UOp, fence, load, store

#: First scenario cache line; consecutive lines follow (ascending lex
#: order, distinct cache and directory sets).
BASE_LINE = 0x4_0000


def scenario_lines(count: int) -> List[int]:
    """The ``count`` cache-line addresses scenarios operate on."""
    return [BASE_LINE + i * LINE_SIZE for i in range(count)]


@dataclass(frozen=True)
class Scenario:
    """A parameterised concurrent program.

    Most scenarios scale with the requested core and line counts;
    litmus-bridge scenarios (:mod:`repro.modelcheck.litmus`) instead
    pin their shape via ``fixed_cores``/``fixed_lines`` and the
    explorer honours the pin.
    """

    name: str
    description: str
    build_fn: Callable[[int, int], List[List[UOp]]]
    fixed_cores: Optional[int] = None
    fixed_lines: Optional[int] = None

    def build(self, cores: int, lines: int) -> List[List[UOp]]:
        """Per-core micro-op programs for ``cores`` cores over ``lines``
        cache lines."""
        if cores < 1 or lines < 1:
            raise ValueError("scenarios need at least one core and line")
        return self.build_fn(cores, lines)


def _overlap(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    programs = []
    for cid in range(cores):
        a = addrs[cid % lines]
        b = addrs[(cid + 1) % lines]
        # store a; store b; store a — a WCB store cycle, so {a, b}
        # become one atomic group.  Adjacent cores rotate through the
        # lines, making the groups overlap pairwise across cores.
        programs.append([store(a), store(b), store(a)])
    return programs


def _store_buffering(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    return [[store(addrs[cid % lines]), load(addrs[(cid + 1) % lines])]
            for cid in range(cores)]


def _message_passing(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    data, flag = addrs[0], addrs[-1]
    programs = [[store(data), store(flag)]]
    for _ in range(cores - 1):
        programs.append([load(flag), load(data)])
    return programs


def _fenced(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    return [[store(addrs[cid % lines]), fence(),
             store(addrs[(cid + 1) % lines])]
            for cid in range(cores)]


def _disjoint(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    # With lines >= cores every core owns a private line: after the
    # initial miss its whole program is core-local, so the only sound
    # cross-core dependencies are the DRAM-channel races of the warm-up
    # phase.  Program lengths differ per core, so the core-symmetry
    # reduction cannot collapse the interleavings — this is the
    # maximal-headroom case for partial-order reduction, and a genuine
    # check that concurrent but non-conflicting atomic groups never
    # interact.
    programs = []
    for cid in range(cores):
        a = addrs[cid % lines]
        ops = [store(a), load(a), store(a), load(a)] * 2
        programs.append(ops[:4 + 2 * (cid % 3)])
    return programs


def _mixed(cores: int, lines: int) -> List[List[UOp]]:
    addrs = scenario_lines(lines)
    programs = []
    for cid in range(cores):
        a = addrs[cid % lines]
        b = addrs[(cid + 1) % lines]
        programs.append([store(a), load(b), store(b), store(a)])
    return programs


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("overlap",
                 "rotated store cycles: every pair of adjacent cores "
                 "builds overlapping atomic groups (the deadlock-freedom "
                 "stress)", _overlap),
        Scenario("sb",
                 "store buffering (Dekker): store own line, load the "
                 "neighbour's", _store_buffering),
        Scenario("mp",
                 "message passing: one producer stores data then flag, "
                 "consumers load flag then data", _message_passing),
        Scenario("fence",
                 "fenced stores: store, mfence, store to the neighbour's "
                 "line", _fenced),
        Scenario("mixed",
                 "interleaved loads and stores over overlapping lines",
                 _mixed),
        Scenario("disjoint",
                 "per-core private lines: non-conflicting atomic groups "
                 "(the partial-order-reduction headroom case)", _disjoint),
    )
}


def get_scenario(name: str) -> Scenario:
    if name.startswith("lit:"):
        from .litmus import litmus_scenarios
        scenarios = litmus_scenarios()
        try:
            return scenarios[name]
        except KeyError:
            raise ValueError(
                f"unknown litmus scenario {name!r}; available: "
                f"{', '.join(sorted(scenarios))}") from None
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: "
            f"{', '.join(sorted(SCENARIOS))} and lit:<corpus name>"
        ) from None


def check_config(cores: int, mechanism: str, unsound: bool = False,
                 topology: str = "p2p", dir_shards: int = 1,
                 dram_channels: int = 1,
                 link_latency: int = 1) -> SystemConfig:
    """The reduced configuration every model-check run uses.

    Latencies are short so event timelines stay small, cache sets are
    sized so the scenario lines never contend for ways, and the stream
    prefetcher is off (its GetS traffic multiplies interleavings
    without touching the protocol logic under test).  The store
    prefetch-at-commit stays on: it is part of the production store
    path for every mechanism.

    ``topology``/``dir_shards``/``dram_channels`` put the reduced
    machine on a scaled shared level — consecutive scenario lines then
    interleave across directory homes, so a 2-shard check genuinely
    exercises cross-home transactions and the shard-aware symmetry
    reduction.
    """
    config = SystemConfig(
        topology=topology, dir_shards=dir_shards,
        dram_channels=dram_channels, link_latency=link_latency,
        num_cores=cores,
        core=CoreConfig(
            fetch_width=4, decode_width=4, rename_width=4,
            dispatch_width=4, issue_width=4, commit_width=2,
            rob_entries=16, load_queue_entries=8, sb_entries=4),
        memory=MemoryConfig(
            l1d=CacheConfig("L1D", 1024, 4, 1, mshrs=4),
            l2=CacheConfig("L2", 4096, 8, 2, mshrs=4,
                           inclusive_of_l1=True),
            l3=CacheConfig("L3", 16 * 1024, 16, 2, mshrs=4),
            dram_latency=6, dram_gap=1,
            stream_prefetch=False,
            store_prefetch_at_commit=True),
        tus=TUSConfig(woq_entries=8, wcb_entries=2, max_atomic_group=4,
                      unsound_authorization=unsound),
        mechanism=mechanism,
        deadlock_cycles=2_000)
    config.validate()
    return config


def machine_overrides(machine: Optional[dict]) -> dict:
    """The entries of a check's ``machine`` argument that differ from
    :func:`check_config`'s defaults (empty for the default machine)."""
    defaults = inspect.signature(check_config).parameters
    return {key: value for key, value in (machine or {}).items()
            if value != defaults[key].default}
