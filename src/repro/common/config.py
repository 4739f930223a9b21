"""System configuration, encoding Table I of the paper.

The default values of every dataclass reproduce the paper's simulated
machine (Table I plus the text of Sections IV and V):

* 8-wide fetch / 12-wide dispatch / 8-wide commit out-of-order core,
  512-entry ROB, 192-entry load queue, 114-entry store buffer;
* 48KB 12-way L1D (5-cycle latency) with a stream prefetcher and store
  prefetch-at-commit, 1MB 16-way private L2 (16-cycle round trip), 64MB
  16-way shared L3 (34-cycle round trip), 160-cycle DRAM;
* store-to-load forwarding latency that depends on SB size (5 cycles at
  114 entries, 4 at 64, 3 at 32 or fewer), following Fog's measurements
  as the paper does;
* TUS structures: 2 write-combining buffers, a 64-entry WOQ, and a
  maximum atomic-group size of 16 lines.

Use :func:`table_i` to obtain the exact baseline configuration and
:meth:`SystemConfig.with_sb_size` / :meth:`SystemConfig.with_mechanism`
to derive the sweep points used in the evaluation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Tuple

from .errors import ConfigError

if TYPE_CHECKING:
    from ..coherence.topology import Topology


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# Every config class is frozen, so a config object that passed its
# checks once passes them forever: ``validate`` records the pass on the
# object and returns at once on the next call (System, MemorySystem and
# every CacheArray validate the config they are given).
def _passed(config) -> bool:
    return "_validated" in config.__dict__


def _mark_passed(config) -> None:
    config.__dict__["_validated"] = True


def store_forward_latency(sb_entries: int) -> int:
    """Store-to-load forwarding latency as a function of SB size.

    The paper (Section V) models 5 cycles for a 114-entry SB, 4 for 64
    entries, and 3 for smaller sizes, following Fog's measurements of the
    CAM search time.
    """
    if sb_entries > 64:
        return 5
    if sb_entries > 32:
        return 4
    return 3


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table I)."""

    fetch_width: int = 8
    decode_width: int = 6
    rename_width: int = 6
    dispatch_width: int = 12
    issue_width: int = 12
    commit_width: int = 8
    rob_entries: int = 512
    load_queue_entries: int = 192
    sb_entries: int = 114
    int_regs: int = 332
    fp_regs: int = 332
    #: Execution latencies (cycles) by micro-op class.
    int_alu_latency: int = 1
    int_mul_latency: int = 4
    int_div_latency: int = 12
    fp_add_latency: int = 5
    fp_mul_latency: int = 5
    fp_div_latency: int = 12

    @property
    def forward_latency(self) -> int:
        """Store-to-load forwarding latency for this SB size."""
        return store_forward_latency(self.sb_entries)

    @cached_property
    def exec_latencies(self) -> Tuple[int, ...]:
        """Execution latency indexed by ``repro.cpu.isa.OpKind`` value:
        the six ALU/FP classes in declaration order, then one cycle each
        for LOAD, STORE and FENCE.  Built once per config object (a
        frozen config cannot change under it)."""
        return (self.int_alu_latency, self.int_mul_latency,
                self.int_div_latency, self.fp_add_latency,
                self.fp_mul_latency, self.fp_div_latency, 1, 1, 1)

    def validate(self) -> None:
        if self.sb_entries < 1:
            raise ConfigError("store buffer must have at least one entry")
        if self.rob_entries < self.commit_width:
            raise ConfigError("ROB smaller than commit width")
        if self.dispatch_width < 1 or self.commit_width < 1:
            raise ConfigError("pipeline widths must be positive")


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    name: str
    size_bytes: int
    assoc: int
    latency: int            # access (hit) latency in cycles, L1; round trip for L2/L3
    mshrs: int = 64
    line_size: int = 64
    inclusive_of_l1: bool = False

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.assoc)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    def validate(self) -> None:
        if _passed(self):
            return
        if self.size_bytes % (self.line_size * self.assoc) != 0:
            raise ConfigError(f"{self.name}: size not divisible by way size")
        if not _is_pow2(self.num_sets):
            raise ConfigError(f"{self.name}: number of sets must be a power of two")
        if self.assoc < 1 or self.mshrs < 1:
            raise ConfigError(f"{self.name}: assoc and mshrs must be positive")
        _mark_passed(self)


@dataclass(frozen=True)
class MemoryConfig:
    """Hierarchy below the core: L1I/L1D/L2 private, L3 shared, DRAM."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1I", 32 * 1024, 8, 1, mshrs=64))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L1D", 48 * 1024, 12, 5, mshrs=64))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L2", 1024 * 1024, 16, 16, mshrs=64, inclusive_of_l1=True))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        "L3", 64 * 1024 * 1024, 16, 34, mshrs=64))
    dram_latency: int = 160
    #: Simple bandwidth model: minimum cycles between DRAM data returns.
    dram_gap: int = 4
    #: Stream prefetcher (stride) on the L1D, as in the baseline.
    stream_prefetch: bool = True
    stream_prefetch_degree: int = 2
    #: Request write permission when a store commits (prefetch-at-commit).
    store_prefetch_at_commit: bool = True

    def validate(self) -> None:
        for cache in (self.l1i, self.l1d, self.l2, self.l3):
            cache.validate()
        if self.dram_latency < 1:
            raise ConfigError("dram_latency must be positive")

    @property
    def miss_to_l2(self) -> int:
        """L1D-miss-to-L2-hit latency."""
        return self.l2.latency

    @property
    def miss_to_l3(self) -> int:
        """L1D-miss-to-L3-hit latency."""
        return self.l2.latency + self.l3.latency

    @property
    def miss_to_dram(self) -> int:
        """L1D-miss-to-DRAM latency."""
        return self.l2.latency + self.l3.latency + self.dram_latency


@dataclass(frozen=True)
class TUSConfig:
    """Parameters of the TUS mechanism (Sections III/IV + the DSE of VI)."""

    woq_entries: int = 64
    wcb_entries: int = 2
    #: Maximum number of cache lines in an atomic group.
    max_atomic_group: int = 16
    #: Store-to-load forwarding from unauthorized L1D lines.  The paper
    #: found no benefit and disabled it; loads alias to the line and wait.
    l1d_forwarding: bool = False
    #: Test-only: revert the authorization unit's dependency set to the
    #: pre-fix "older-or-equal entries" rule (PR 1 extended it to span
    #: the requested entry's whole atomic group).  The unsound rule lets
    #: two cores with overlapping atomic groups delay each other forever
    #: — the x264 livelock.  Kept behind a flag so the model checker can
    #: demonstrate that it finds the bug; never enable for measurements.
    unsound_authorization: bool = False

    def validate(self) -> None:
        if self.woq_entries < 1:
            raise ConfigError("WOQ must have at least one entry")
        if self.wcb_entries < 1:
            raise ConfigError("at least one WCB is required")
        if self.max_atomic_group < 2:
            raise ConfigError("atomic groups must allow at least two lines")

    @property
    def woq_entry_bits(self) -> int:
        """Storage bits per WOQ entry (Section IV): set/way pointer (10),
        atomic-group id (log2 entries), 16-bit write mask, CanCycle bit,
        Ready bit."""
        group_bits = max(1, (self.woq_entries - 1).bit_length())
        return 10 + group_bits + 16 + 1 + 1

    @property
    def woq_storage_bytes(self) -> int:
        """Total WOQ storage (paper: 34 x 64 bits = 272 bytes)."""
        return self.woq_entries * self.woq_entry_bits // 8


@dataclass(frozen=True)
class RetryConfig:
    """Retry timing for NACKed/busy coherence requests.

    The default ``fixed`` policy reproduces the original constants: a
    busy directory entry is re-tried after exactly ``busy_retry`` cycles
    (the MSHR-full path needs no delay: it parks requests and retries
    them event-driven on the next fill).  The ``backoff`` policy
    replaces the fixed window with bounded exponential backoff plus
    jitter — ``min(max_delay, busy_retry * backoff_factor**attempt) +
    U[0, jitter]`` — so that retry storms cannot synchronize when fault
    injection stretches directory busy windows.
    """

    policy: str = "fixed"
    busy_retry: int = 16
    backoff_factor: int = 2
    max_delay: int = 256
    jitter: int = 8
    seed: int = 0

    def validate(self) -> None:
        if self.policy not in ("fixed", "backoff"):
            raise ConfigError(f"unknown retry policy {self.policy!r}")
        if self.busy_retry < 1:
            raise ConfigError("retry delays must be positive")
        if self.backoff_factor < 1 or self.max_delay < self.busy_retry:
            raise ConfigError("backoff must not shrink the retry window")
        if self.jitter < 0:
            raise ConfigError("jitter must be non-negative")


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of the comparison mechanisms (Section V)."""

    #: SSB: size of the in-order TSOB queue.
    ssb_tsob_entries: int = 1024
    #: CSB reuses the WCBs for coalescing.
    csb_wcb_entries: int = 2
    #: SPB: number of consecutive lines stored before a page burst fires.
    spb_burst_threshold: int = 4


#: Interconnect models the scaled machine supports.  ``p2p`` is the
#: original zero-hop transaction timing (every shared-level message is
#: free beyond the cache latencies), so default-configured simulations
#: are bit-identical to builds that predate the topology layer.
TOPOLOGIES: Tuple[str, ...] = ("p2p", "crossbar", "ring", "mesh")


@dataclass(frozen=True)
class SystemConfig:
    """Complete simulated system: cores, hierarchy, mechanism knobs."""

    num_cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    tus: TUSConfig = field(default_factory=TUSConfig)
    mechanisms: MechanismConfig = field(default_factory=MechanismConfig)
    retry: RetryConfig = field(default_factory=RetryConfig)
    mechanism: str = "baseline"
    #: Abort if no core commits anything for this many cycles.
    deadlock_cycles: int = 2_000_000
    #: Interconnect between cores, directory homes, and DRAM channels.
    #: ``p2p`` reproduces the original zero-hop timing exactly.
    topology: str = "p2p"
    #: Directory home nodes; line addresses are interleaved across homes
    #: by their low lex-order bits (power of two).
    dir_shards: int = 1
    #: Independent DRAM channels, each with its own bandwidth queue.
    dram_channels: int = 1
    #: Cycles per interconnect hop (ignored by ``p2p``).
    link_latency: int = 1

    def validate(self) -> None:
        if _passed(self):
            return
        if self.num_cores < 1:
            raise ConfigError("at least one core is required")
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"unknown topology {self.topology!r}; available: "
                f"{', '.join(TOPOLOGIES)}")
        if not _is_pow2(self.dir_shards):
            raise ConfigError("dir_shards must be a power of two")
        if not _is_pow2(self.dram_channels):
            raise ConfigError("dram_channels must be a power of two")
        if self.link_latency < 0:
            raise ConfigError("link_latency cannot be negative")
        self.core.validate()
        self.memory.validate()
        self.tus.validate()
        self.retry.validate()
        _mark_passed(self)

    @cached_property
    def interconnect(self) -> Topology:
        """The hop-latency matrices of this layout
        (:class:`~repro.coherence.topology.Topology`), built once per
        config object: every system on the config shares them."""
        from ..coherence.topology import Topology
        return Topology(self)

    def with_sb_size(self, sb_entries: int) -> "SystemConfig":
        """Return a copy with a different store-buffer size."""
        return dataclasses.replace(
            self, core=dataclasses.replace(self.core, sb_entries=sb_entries))

    def with_mechanism(self, mechanism: str) -> "SystemConfig":
        """Return a copy running a different store-handling mechanism."""
        return dataclasses.replace(self, mechanism=mechanism)

    def with_cores(self, num_cores: int) -> "SystemConfig":
        """Return a copy with a different core count."""
        return dataclasses.replace(self, num_cores=num_cores)

    def with_tus(self, **kwargs) -> "SystemConfig":
        """Return a copy with modified TUS parameters."""
        return dataclasses.replace(
            self, tus=dataclasses.replace(self.tus, **kwargs))

    def with_topology(self, topology: str, dir_shards: int = 1,
                      dram_channels: int = 1,
                      link_latency: int = 1) -> "SystemConfig":
        """Return a copy with a different interconnect/sharding layout.

        Validates eagerly: a bad machine layout (unknown topology,
        non-power-of-two shard or channel count) fails here, not deep
        inside system construction.
        """
        config = dataclasses.replace(
            self, topology=topology, dir_shards=dir_shards,
            dram_channels=dram_channels, link_latency=link_latency)
        config.validate()
        return config

    def digest(self) -> str:
        """Stable short hash over every configuration field.

        The experiment cache keys simulation points by this digest, so
        any parameter change — not just the (mechanism, SB) pair — makes
        a distinct cache entry; two configs collide iff they are equal.
        """
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True,
                          default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def table_i() -> SystemConfig:
    """Return the paper's baseline configuration (Table I)."""
    cfg = SystemConfig()
    cfg.validate()
    return cfg


#: The SB sizes swept in Figure 8.
SB_SIZE_SWEEP: Tuple[int, ...] = (32, 64, 114)

#: The store-handling mechanisms compared in the evaluation.
MECHANISMS: Tuple[str, ...] = ("baseline", "ssb", "csb", "spb", "tus")


#: Core counts of the scaling study: the paper's 16-core Parsec machine
#: plus the 64-core extrapolation (ROADMAP item 2; not a paper claim).
CORE_COUNT_SWEEP: Tuple[int, ...] = (4, 16, 64)


def scaled_config(num_cores: int) -> SystemConfig:
    """Table I scaled to ``num_cores`` with a realistic shared level.

    Past 4 cores a monolithic directory and a single DRAM channel stop
    being credible, so the scaled machine uses a mesh interconnect, one
    directory home per 4 cores, and one DRAM channel per 8 cores (both
    clamped to at least one and kept a power of two by construction).
    4 cores keeps the default point-to-point layout so the scaled 4-core
    point is directly comparable with the existing macro results.
    """
    config = table_i().with_cores(num_cores)
    if num_cores > 4:
        config = config.with_topology(
            "mesh", dir_shards=max(1, num_cores // 4),
            dram_channels=max(1, num_cores // 8))
    config.validate()
    return config


def sweep_configs(num_cores: int = 1) -> Dict[Tuple[str, int], SystemConfig]:
    """Return the full (mechanism, SB size) configuration matrix."""
    base = table_i().with_cores(num_cores)
    configs = {}
    for mech in MECHANISMS:
        for sb in SB_SIZE_SWEEP:
            configs[(mech, sb)] = base.with_mechanism(mech).with_sb_size(sb)
    return configs


def scale_sweep_configs(
        core_counts: Tuple[int, ...] = CORE_COUNT_SWEEP,
        sb_entries: int = 114) -> Dict[Tuple[str, int], SystemConfig]:
    """The (mechanism, core count) matrix over scaled machines.

    The 16-core variants reproduce the paper's multicore evaluation
    shape; the 64-core variants are the ROADMAP extrapolation.
    """
    configs = {}
    for mech in MECHANISMS:
        for cores in core_counts:
            configs[(mech, cores)] = (scaled_config(cores)
                                      .with_mechanism(mech)
                                      .with_sb_size(sb_entries))
    return configs
