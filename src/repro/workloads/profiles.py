"""Benchmark profiles and the trace generator.

A :class:`Profile` describes a benchmark's store behaviour with a small
number of parameters; :func:`generate` turns a profile into a micro-op
trace.  The paper attributes each benchmark's speedup to a specific
behaviour (Section VI) and the profiles encode exactly those behaviours:

* *store bursts* to fresh memory, with same-line runs that give
  coalescing its leverage (``w_burst``, ``words_per_line``) — the
  gcc-style workloads;
* *long-latency scattered stores* to irregular fresh addresses that no
  prefetcher predicts (``w_scatter``) — the mcf-style workloads;
* *warm stores* that hit in the cache hierarchy (``w_local_store``) —
  the benchmarks that gain nothing;
* *compute* with dependent ALU chains, warm loads, and optional
  pointer-chasing loads that keep the ROB full (``w_compute``,
  ``load_chase``);
* *interleaved burst streams* that force WCB cycles and atomic groups
  (``burst_interleave``) — the ferret-style workloads;
* optional *sharing* with other cores for the parallel workloads
  (``shared_fraction``), which exercises the TUS external-request path.

Phases are chosen by weighted random draw per episode, so a trace is a
statistically stable mixture rather than a fixed schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..common.addr import LINE_SIZE
from ..common.rng import make_rng
from ..cpu.isa import OpKind, UOp
from ..cpu.trace import Trace
from .regions import ColdRegion, WarmRegion, arena_base

_LOAD = OpKind.LOAD
_STORE = OpKind.STORE


@dataclass(frozen=True)
class Profile:
    """Statistical description of one benchmark's behaviour."""

    name: str
    suite: str                      # "spec" | "tf" | "parsec" | "synthetic"
    description: str = ""
    sb_bound: bool = True           # >1% SB-induced stalls in the baseline

    # Phase weights (need not sum to 1; normalised at generation time).
    w_compute: float = 1.0
    w_burst: float = 0.0
    w_scatter: float = 0.0
    w_local_store: float = 0.0

    # Burst phases: lines per burst, stores per line, interleaved streams.
    burst_lines: Tuple[int, int] = (32, 128)
    words_per_line: int = 4
    burst_interleave: int = 1
    #: Fraction of burst lines that continue sequentially (the rest jump),
    #: i.e. how page-burst-friendly (SPB) the pattern is.
    burst_regularity: float = 1.0
    #: None: bursts stream through fresh (cold) memory — every line is a
    #: DRAM miss (lbm-style bandwidth-bound writes).  A size in KB:
    #: bursts sweep a reused ring of that footprint, so after the first
    #: pass the lines live in whatever level the ring fits (gcc-style
    #: buffer reuse, where the bottleneck is SB drain bandwidth and
    #: coalescing is what pays off).
    burst_ring_kb: Optional[int] = None
    #: Bursts per episode, emitted back to back with only a few compute
    #: micro-ops between: long trains are what defeat plain SB (or TSOB)
    #: over-provisioning — any fixed-size buffer fills mid-train, while
    #: coalescing mechanisms keep draining at line rate.
    burst_train: Tuple[int, int] = (1, 1)

    # Scatter phases: episodes of irregular fresh-line stores.
    scatter_run: Tuple[int, int] = (2, 8)
    scatter_compute_gap: Tuple[int, int] = (4, 16)

    # Local (warm) store phases.
    local_run: Tuple[int, int] = (4, 16)
    store_ws_kb: int = 24

    # Compute phases.
    compute_len: Tuple[int, int] = (16, 64)
    load_fraction: float = 0.35     # of compute-phase micro-ops
    load_chase: float = 0.0         # fraction of loads that pointer-chase
    load_ws_kb: int = 256
    #: Fraction of warm loads that read the *store* working set — models
    #: producer-consumer locality (streamcluster-style), where keeping
    #: stored lines resident (TUS) beats prefetch pollution (SPB).
    loads_from_store_region: float = 0.0
    dep_fraction: float = 0.6       # ALU ops depending on the previous op

    # Serialising events.
    fence_every: Optional[int] = None

    # Parallel workloads: fraction of warm stores that hit a region
    # shared by all cores.
    shared_fraction: float = 0.0
    shared_ws_kb: int = 16
    #: The shared draw is skewed towards a small hot subset of lines
    #: common to every core (locks, queue heads, reduction variables).
    #: A uniform draw over the full shared arena never conflicts at
    #: test-scale trace lengths: 256 candidate lines and ~a dozen
    #: touches per core leave the cross-core intersection empty.
    shared_hot_lines: int = 16
    #: Probability that a shared access lands in the hot subset (the
    #: rest of the probability mass is uniform over the whole arena).
    shared_hot_weight: float = 0.8
    #: Fraction of warm loads that read the shared region, so
    #: read-shared -> upgrade -> invalidate patterns occur.  ``None``
    #: follows ``shared_fraction``.
    shared_load_fraction: Optional[float] = None
    #: Fraction of compute-phase micro-ops that *update* a shared line
    #: (flag/queue-head/reduction writes).  Profiles without a
    #: local-store phase would otherwise never write shared data and
    #: could not generate invalidations.  ``None``: a quarter of
    #: ``shared_fraction``.
    shared_store_fraction: Optional[float] = None

    def phase_weights(self) -> List[Tuple[str, float]]:
        """Per-episode draw weights.

        The ``w_*`` knobs express the *fraction of micro-ops* each phase
        should contribute, but phases differ wildly in episode length (a
        burst can be 50x longer than a compute episode), so the draw
        weight is the uop weight divided by the expected episode length.
        """
        expected = {
            "compute": sum(self.compute_len) / 2,
            "burst": (sum(self.burst_lines) / 2) * self.words_per_line
            * (sum(self.burst_train) / 2),
            "scatter": (sum(self.scatter_run) / 2)
            * (1 + sum(self.scatter_compute_gap) / 2),
            "local_store": (sum(self.local_run) / 2)
            * (self.words_per_line + 1),
        }
        weights = [("compute", self.w_compute), ("burst", self.w_burst),
                   ("scatter", self.w_scatter),
                   ("local_store", self.w_local_store)]
        return [(name, w / expected[name]) for name, w in weights if w > 0]


#: Non-memory micro-ops carry only a kind and a dependence, so every
#: trace shares one record per (kind, dep_dist) pair: index 0 has no
#: producer, index 1 depends on the previous micro-op.  Nothing mutates
#: a :class:`UOp` once made, or tells two equal ones apart.
_INT_ALU = (UOp(OpKind.INT_ALU), UOp(OpKind.INT_ALU, dep_dist=1))
_INT_MUL = (UOp(OpKind.INT_MUL), UOp(OpKind.INT_MUL, dep_dist=1))
_FP_ADD = (UOp(OpKind.FP_ADD), UOp(OpKind.FP_ADD, dep_dist=1))
_FENCE = UOp(OpKind.FENCE)


class _Generator:
    """Stateful trace builder for one (profile, core) pair."""

    def __init__(self, profile: Profile, core_id: int,
                 rng: random.Random) -> None:
        self.p = profile
        self.rng = rng
        # The draws and the per-micro-op knobs, bound once.
        self._random = rng.random
        self._randrange = rng.randrange
        self._randint = rng.randint
        self._fence_every = profile.fence_every
        self._dep_fraction = profile.dep_fraction
        self._load_fraction = profile.load_fraction
        self.uops: List[UOp] = []
        self._append = self.uops.append
        self._last_chase_load: Optional[int] = None
        self._since_fence = 0
        self.load_region = WarmRegion(arena_base(core_id, 0),
                                      profile.load_ws_kb * 1024)
        self.store_region = WarmRegion(arena_base(core_id, 1),
                                       profile.store_ws_kb * 1024)
        self.chase_region = ColdRegion(arena_base(core_id, 2))
        if profile.burst_ring_kb is not None:
            ring_bytes = profile.burst_ring_kb * 1024
            self.burst_regions = [
                WarmRegion(arena_base(core_id, 3 + i), ring_bytes)
                for i in range(max(1, profile.burst_interleave))
            ]
        else:
            self.burst_regions = [
                ColdRegion(arena_base(core_id, 3 + i))
                for i in range(max(1, profile.burst_interleave))
            ]
        self.scatter_region = ColdRegion(arena_base(core_id, 11))
        #: Shared across cores: same base regardless of core id.
        self.shared_region = WarmRegion(arena_base(9999, 12),
                                        profile.shared_ws_kb * 1024)
        hot = min(profile.shared_hot_lines, self.shared_region.num_lines)
        self.shared_hot = [self.shared_region.line_at(i) for i in range(hot)]
        # Zipf(s=1) weights: the first hot line draws ~30% of the hot
        # mass, so even short traces make every core touch it.
        weight, cum = 0.0, []
        for i in range(hot):
            weight += 1.0 / (i + 1)
            cum.append(weight)
        self._hot_cum = cum

    # -- emission helpers -----------------------------------------------
    def emit(self, uop: UOp) -> None:
        self._append(uop)
        if self._fence_every is not None:
            self._since_fence += 1
            if self._since_fence >= self._fence_every:
                self._append(_FENCE)
                self._since_fence = 0

    def emit_alu(self) -> None:
        random = self._random
        dep = 1 if (self.uops and random() < self._dep_fraction) else 0
        # A sprinkle of multi-cycle ops keeps compute ILP realistic
        # (2-4 IPC) instead of saturating the 8-wide commit.
        roll = random()
        if roll < 0.08:
            self.emit(_INT_MUL[dep])
        elif roll < 0.12:
            self.emit(_FP_ADD[dep])
        else:
            self.emit(_INT_ALU[dep])

    def emit_load(self) -> None:
        random = self._random
        p = self.p
        if random() < p.load_chase:
            addr = self.chase_region.random_fresh_line(self.rng)
            dep = None
            if self._last_chase_load is not None:
                dep = len(self.uops) - self._last_chase_load
            self._last_chase_load = len(self.uops)
            self.emit(UOp(_LOAD, addr, 8, dep))
            return
        shared = p.shared_load_fraction
        if shared is None:
            shared = p.shared_fraction
        if shared and random() < shared:
            addr = self.shared_line()
        elif (p.loads_from_store_region
                and random() < p.loads_from_store_region):
            addr = self.store_region.random_line(self.rng)
        else:
            addr = self.load_region.random_line(self.rng)
        offset = self._randrange(LINE_SIZE // 8) * 8
        self.emit(UOp(_LOAD, addr + offset, 8))

    def emit_store(self, line: int, word_index: int) -> None:
        self.emit(UOp(_STORE, line + (word_index % 8) * 8, 8))

    def shared_line(self) -> int:
        """A line in the cross-core shared arena, Zipf-skewed hot."""
        if self.shared_hot \
                and self._random() < self.p.shared_hot_weight:
            return self.rng.choices(self.shared_hot,
                                    cum_weights=self._hot_cum)[0]
        return self.shared_region.random_line(self.rng)

    # -- phases -----------------------------------------------------------
    def _compute_run(self, length: int) -> None:
        """``length`` compute micro-ops: warm or chasing loads and ALU."""
        random = self._random
        load_fraction = self._load_fraction
        emit_load, emit_alu = self.emit_load, self.emit_alu
        for _ in range(length):
            if random() < load_fraction:
                emit_load()
            else:
                emit_alu()

    def phase_compute(self) -> None:
        p = self.p
        length = self._randint(*p.compute_len)
        shared_store = p.shared_store_fraction
        if shared_store is None:
            shared_store = p.shared_fraction / 4
        if not shared_store:
            self._compute_run(length)
            return
        random = self._random
        for _ in range(length):
            if random() < shared_store:
                self.emit_store(self.shared_line(), self._randrange(8))
            elif random() < self._load_fraction:
                self.emit_load()
            else:
                self.emit_alu()

    def phase_burst(self) -> None:
        trains = self._randint(*self.p.burst_train)
        for train in range(trains):
            if train:
                for _ in range(self._randint(8, 16)):
                    self.emit_alu()
            self._one_burst()

    def _one_burst(self) -> None:
        p = self.p
        random = self._random
        emit_store = self.emit_store
        lines = self._randint(*p.burst_lines)
        streams = self.burst_regions
        for i in range(lines):
            region = streams[i % len(streams)]
            if random() < p.burst_regularity:
                line = region.next_line()
            elif isinstance(region, WarmRegion):
                line = region.random_line(self.rng)
            else:
                line = region.random_fresh_line(self.rng, spread_pages=64)
            for word in range(p.words_per_line):
                emit_store(line, word)

    def phase_scatter(self) -> None:
        p = self.p
        run = self._randint(*p.scatter_run)
        for _ in range(run):
            line = self.scatter_region.random_fresh_line(self.rng)
            self.emit_store(line, self._randrange(8))
            self._compute_run(self._randint(*p.scatter_compute_gap))

    def phase_local_store(self) -> None:
        p = self.p
        random = self._random
        run = self._randint(*p.local_run)
        for _ in range(run):
            if p.shared_fraction and random() < p.shared_fraction:
                line = self.shared_line()
            else:
                line = self.store_region.random_line(self.rng)
            for word in range(p.words_per_line):
                self.emit_store(line, word)
            self.emit_alu()


def generate(profile: Profile, length: int, seed: int = 0,
             core_id: int = 0) -> Trace:
    """Generate a ``length``-micro-op trace for ``profile``."""
    rng = make_rng(seed, f"{profile.name}/core{core_id}")
    gen = _Generator(profile, core_id, rng)
    phases = profile.phase_weights()
    names = [name for name, _ in phases]
    weights = [weight for _, weight in phases]
    dispatch = {
        "compute": gen.phase_compute,
        "burst": gen.phase_burst,
        "scatter": gen.phase_scatter,
        "local_store": gen.phase_local_store,
    }
    # Deterministic largest-remainder scheduling: each phase accumulates
    # credit in proportion to its draw weight and the richest phase runs
    # next.  This keeps phase proportions exact even when episodes are
    # thousands of micro-ops long — a random draw would make short traces
    # wildly variable (e.g. zero or three giant store bursts per run).
    total = sum(weights)
    # Start every phase one period short of firing: rare phases (big
    # burst/scatter episodes) then fire once right at the start of the
    # trace — inside the measurement warmup, which primes their rings —
    # and settle into their steady proportional cadence afterwards.
    credit = {name: total - weight for name, weight in zip(names, weights)}
    while len(gen.uops) < length:
        for name, weight in zip(names, weights):
            credit[name] += weight
        choice = max(names, key=lambda n: credit[n])
        credit[choice] -= total
        dispatch[choice]()
    return Trace(f"{profile.name}", gen.uops[:length], seed=seed)
