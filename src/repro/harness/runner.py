"""The experiment runner: configured simulations with a result cache.

Every figure of the evaluation is a set of (benchmark, mechanism,
SB-size) simulation points; the :class:`Runner` executes them once and
caches the :class:`~repro.sim.results.SimResult` both in memory and on
disk.  The disk cache is keyed by the run parameters, the configuration
digest, *and a hash of the package sources*, so editing any model or
any config field invalidates stale results automatically.

A simulation point is fully described by a :class:`Point`; executing
one is a pure function of the point and the runner's trace parameters
(:meth:`Runner.simulate`), which is what lets
:mod:`repro.harness.parallel` shard points across worker processes and
still produce byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..common.config import SystemConfig, table_i
from ..cpu.trace import Trace
from ..durability.faultyfs import NULL_FS
from ..durability.records import (CorruptRecord, quarantine,
                                  read_record, sweep_tmp, write_record)
from ..energy.mcpat import attach_energy
from ..sim.results import SimResult
from ..sim.system import System
from ..workloads import make_parallel_traces, make_trace, profile

#: Stride between simpoint seeds (prime, so point seeds never collide
#: with neighbouring base seeds).
POINT_SEED_STRIDE = 1009


def _source_fingerprint() -> str:
    """Hash of every module in the package (auto cache invalidation)."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


_FINGERPRINT: Optional[str] = None


def source_fingerprint() -> str:
    global _FINGERPRINT
    if _FINGERPRINT is None:
        _FINGERPRINT = _source_fingerprint()
    return _FINGERPRINT


@dataclass(frozen=True)
class Point:
    """One simulation point: everything needed to execute it.

    ``config`` carries an explicit override (the DSE ablations);
    ``tag`` keeps the override's human-readable label in the cache key.
    """

    bench: str
    mechanism: str
    sb_entries: int
    tag: str = ""
    point: int = 0
    config: Optional[SystemConfig] = None

    def label(self) -> str:
        parts = [self.bench, self.mechanism, f"sb{self.sb_entries}"]
        if self.tag:
            parts.append(self.tag)
        if self.point:
            parts.append(f"p{self.point}")
        return "/".join(parts)


class Runner:
    """Runs and caches simulation points."""

    #: Envelope schema tag of disk-cached points.
    CACHE_SCHEMA = "point-cache"

    def __init__(self, cache_dir: Optional[str] = None,
                 st_length: int = 40_000, par_length: int = 1_200,
                 num_cores_parallel: int = 16, seed: int = 42,
                 use_disk_cache: bool = True,
                 warmup_fraction: float = 0.3,
                 simpoints: int = 2, parsec_simpoints: int = 1,
                 fs=NULL_FS) -> None:
        self.st_length = st_length
        self.par_length = par_length
        self.warmup_fraction = warmup_fraction
        self.num_cores_parallel = num_cores_parallel
        self.seed = seed
        #: Independent simulation points per benchmark (the paper runs 10
        #: simpoints per app); aggregate metrics sum cycles across them.
        self.simpoints = max(1, simpoints)
        #: 16-core simulations are ~10x more expensive per point.
        self.parsec_simpoints = max(1, parsec_simpoints)
        self.use_disk_cache = use_disk_cache
        if cache_dir is None:
            cache_dir = os.environ.get(
                "REPRO_CACHE", str(Path.cwd() / ".repro_cache"))
        self.cache_dir = Path(cache_dir)
        self.fs = fs
        #: Orphaned tmp files reclaimed on open; corrupt cache entries
        #: quarantined (and recomputed) by this runner's reads.
        self.tmp_swept = sweep_tmp(self.cache_dir) \
            if use_disk_cache else 0
        self.cache_quarantined = 0
        self._memory: Dict[Tuple, SimResult] = {}
        #: The traces :meth:`simulate` generated last, keyed by (bench,
        #: cores, length, seed): the next point of the same workload,
        #: such as another mechanism, reuses them (nothing mutates a
        #: trace once generated).
        self._traces: Tuple[Tuple, List[Trace]] = ((), [])

    def params(self) -> Dict:
        """Constructor kwargs that reproduce this runner's trace and
        warmup parameters in another process (cache settings excluded:
        workers never touch the disk cache)."""
        return {
            "st_length": self.st_length,
            "par_length": self.par_length,
            "num_cores_parallel": self.num_cores_parallel,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "simpoints": self.simpoints,
            "parsec_simpoints": self.parsec_simpoints,
        }

    # ------------------------------------------------------------------
    def run(self, bench: str, mechanism: str, sb_entries: int,
            config: Optional[SystemConfig] = None, tag: str = "",
            point: int = 0) -> SimResult:
        """Run one simulation point (cached).

        ``config`` overrides the derived configuration (used by the DSE
        ablations).  ``point`` selects the simpoint (each gets an
        independently seeded trace).
        """
        pt = Point(bench, mechanism, sb_entries, tag, point, config)
        result = self.cached(pt)
        if result is None:
            result = self.simulate(pt)
            self.store(pt, result)
        return result

    def run_points(self, bench: str, mechanism: str, sb_entries: int,
                   config: Optional[SystemConfig] = None,
                   tag: str = "") -> List[SimResult]:
        """All simpoints of one (benchmark, mechanism, SB) combination."""
        points = (self.parsec_simpoints
                  if profile(bench).suite == "parsec" else self.simpoints)
        return [self.run(bench, mechanism, sb_entries, config, tag, point)
                for point in range(points)]

    # -- point execution ----------------------------------------------------
    def point_seed(self, pt: Point) -> int:
        return self.seed + POINT_SEED_STRIDE * pt.point

    def simulate(self, pt: Point) -> SimResult:
        """Execute one point, bypassing every cache.

        Pure in the point and the runner's trace parameters: the same
        point simulated in any process yields a byte-identical result
        (see :meth:`SimResult.canonical_json`).
        """
        parallel = profile(pt.bench).suite == "parsec"
        seed = self.point_seed(pt)
        config = pt.config if pt.config is not None else table_i()
        cores = self.num_cores_parallel if parallel else 1
        length = self.par_length if parallel else self.st_length
        config = config.with_mechanism(pt.mechanism) \
            .with_sb_size(pt.sb_entries).with_cores(cores)
        workload = (pt.bench, cores, length, seed)
        if self._traces[0] != workload:
            self._traces = ((), [])   # not held while the next are made
            self._traces = (workload, (
                make_parallel_traces(pt.bench, cores, length, seed)
                if parallel else [make_trace(pt.bench, length, seed)]))
        traces = self._traces[1]
        system = System(config, traces, workload=pt.bench)
        total_uops = sum(len(t) for t in traces)
        result = system.run(
            warmup_committed=int(total_uops * self.warmup_fraction))
        attach_energy(result, config)
        return result

    # -- cache --------------------------------------------------------------
    def point_key(self, pt: Point) -> Tuple:
        parallel = profile(pt.bench).suite == "parsec"
        digest = pt.config.digest() if pt.config is not None else ""
        return (pt.bench, pt.mechanism, pt.sb_entries, pt.tag, digest,
                self.num_cores_parallel if parallel else 1,
                self.par_length if parallel else self.st_length,
                self.point_seed(pt), self.warmup_fraction)

    def cached(self, pt: Point) -> Optional[SimResult]:
        """Look the point up in the memory and disk caches (promoting a
        disk hit into memory); ``None`` on a miss."""
        key = self.point_key(pt)
        if key in self._memory:
            return self._memory[key]
        result = self._load_disk(key)
        if result is not None:
            self._memory[key] = result
        return result

    def store(self, pt: Point, result: SimResult) -> None:
        """Insert an executed point into both cache layers."""
        key = self.point_key(pt)
        self._store_disk(key, result)
        self._memory[key] = result

    # -- derived metrics (aggregated over simpoints) ------------------------
    def cycles(self, bench: str, mechanism: str, sb_entries: int,
               config: Optional[SystemConfig] = None,
               tag: str = "") -> int:
        """Total cycles summed over all simpoints."""
        return sum(r.cycles for r in self.run_points(
            bench, mechanism, sb_entries, config, tag))

    def energy_delay(self, bench: str, mechanism: str,
                     sb_entries: int) -> float:
        """Sum of per-simpoint EDP contributions (energy x cycles)."""
        return sum(r.energy * r.cycles
                   for r in self.run_points(bench, mechanism, sb_entries))

    def speedup(self, bench: str, mechanism: str, sb_entries: int,
                base_sb: int = 114) -> float:
        """Speedup of (mechanism, sb) over (baseline, base_sb)."""
        return (self.cycles(bench, "baseline", base_sb)
                / self.cycles(bench, mechanism, sb_entries))

    def norm_edp(self, bench: str, mechanism: str, sb_entries: int,
                 base_sb: int = 114) -> float:
        """EDP of (mechanism, sb) normalised to (baseline, base_sb)."""
        return (self.energy_delay(bench, mechanism, sb_entries)
                / self.energy_delay(bench, "baseline", base_sb))

    def sb_stalls(self, bench: str, mechanism: str,
                  sb_entries: int) -> float:
        """SB-induced stall fraction of total cycles (Figure 9)."""
        points = self.run_points(bench, mechanism, sb_entries)
        total = sum(r.cycles for r in points)
        stalled = sum(r.stall_fraction("sb") * r.cycles for r in points)
        return stalled / total if total else 0.0

    # -- disk cache ---------------------------------------------------------
    def _cache_path(self, key: Tuple) -> Path:
        blob = json.dumps([source_fingerprint(), *key]).encode()
        name = hashlib.sha256(blob).hexdigest()[:24] + ".json"
        return self.cache_dir / name

    def _load_disk(self, key: Tuple) -> Optional[SimResult]:
        if not self.use_disk_cache:
            return None
        path = self._cache_path(key)
        try:
            # Envelope-validated: a bare or damaged document is corrupt.
            doc = read_record(path, self.CACHE_SCHEMA)
        except CorruptRecord:
            # A torn or bit-rotted cache entry must never feed a
            # figure: move it aside and recompute the point.
            quarantine(path, root=self.cache_dir)
            self.cache_quarantined += 1
            return None
        if doc is None:
            return None
        try:
            return SimResult.from_dict(doc)
        except (ValueError, KeyError, TypeError):
            quarantine(path, root=self.cache_dir)
            self.cache_quarantined += 1
            return None

    def _store_disk(self, key: Tuple, result: SimResult) -> None:
        if not self.use_disk_cache:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        write_record(self._cache_path(key), self.CACHE_SCHEMA,
                     result.to_dict(), fs=self.fs)


#: A pool worker's runner: the worker's next point of the same
#: workload reuses its traces.
_WORKER_RUNNER: Optional[Runner] = None


def _simulate_payload(payload: Tuple[Dict, Point]) -> Tuple[Dict, float]:
    """Worker-process entry point: execute one point, no caches.

    Returns the result's dict form plus the simulation wall-clock; a
    module-level function so it pickles under every multiprocessing
    start method.  One runner serves every point of a worker process
    with the same ``params`` (:meth:`Runner.simulate` is pure).
    """
    import time
    global _WORKER_RUNNER
    params, pt = payload
    if _WORKER_RUNNER is None or _WORKER_RUNNER.params() != params:
        _WORKER_RUNNER = Runner(use_disk_cache=False, **params)
    runner = _WORKER_RUNNER
    start = time.perf_counter()
    result = runner.simulate(pt)
    return result.to_dict(), time.perf_counter() - start


_DEFAULT_RUNNER: Optional[Runner] = None


def default_runner() -> Runner:
    """The shared runner used by benchmarks and examples."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = Runner()
    return _DEFAULT_RUNNER
