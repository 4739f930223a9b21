"""Process-pool fan-out for model-check runs.

A check matrix (scenario x mechanism) is embarrassingly parallel: every
cell builds its own reduced system and explores it independently, and a
:class:`~repro.modelcheck.explorer.CheckReport` is plain picklable data.
Cells are sharded through :func:`repro.common.pool.fan_out` with the
worker-count policy of the sweeps (:func:`repro.harness.parallel
.default_workers`); a failed cell costs only its own slot, and results
come back in job order so output is stable regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..common.pool import TaskFailure, fan_out
from ..modelcheck import CheckReport, explore, fuzz
from .parallel import default_workers


@dataclass(frozen=True)
class CheckJob:
    """One cell of the check matrix."""

    scenario: str
    mechanism: str
    cores: int = 2
    lines: int = 2
    unsound: bool = False
    max_depth: int = 64
    max_states: int = 100_000
    max_cycles: int = 20_000
    fuzz_runs: int = 0          # 0 = exhaustive, >0 = swarm mode
    seed: int = 0
    # Scaled shared level of the reduced machine (defaults reproduce
    # the original monolithic point-to-point check exactly).
    topology: str = "p2p"
    dir_shards: int = 1
    dram_channels: int = 1
    link_latency: int = 1
    # Base consistency model (repro.models registry); gates which
    # invariants apply (e.g. store-order is TSO-only).
    model: str = "tso"
    # Partial-order reduction mode ("off" | "sleep" | "persistent").
    por: str = "off"
    # Durable frontier spool directory; re-running resumes the check.
    spool: Optional[str] = None
    # >0 shards the frontier across this many worker processes
    # sharing ``spool`` (which is then required).
    dist_workers: int = 0

    @property
    def label(self) -> str:
        base = f"{self.scenario}/{self.mechanism}"
        if self.model != "tso":
            base += f"@{self.model}"
        return base

    @property
    def machine(self) -> dict:
        return {"topology": self.topology, "dir_shards": self.dir_shards,
                "dram_channels": self.dram_channels,
                "link_latency": self.link_latency}


def run_check(job: CheckJob) -> CheckReport:
    """Execute one check job (also the process-pool entry point)."""
    if job.fuzz_runs:
        return fuzz(job.scenario, job.mechanism, cores=job.cores,
                    lines=job.lines, runs=job.fuzz_runs, seed=job.seed,
                    unsound=job.unsound, max_cycles=job.max_cycles,
                    machine=job.machine, model=job.model)
    if job.dist_workers:
        if not job.spool:
            raise ValueError("distributed checks need a spool directory")
        from ..modelcheck import distributed_explore
        return distributed_explore(
            job.scenario, job.mechanism, spool=job.spool,
            workers=job.dist_workers, cores=job.cores, lines=job.lines,
            max_depth=job.max_depth, max_states=job.max_states,
            max_cycles=job.max_cycles, unsound=job.unsound,
            machine=job.machine, model=job.model, por=job.por)
    return explore(job.scenario, job.mechanism, cores=job.cores,
                   lines=job.lines, max_depth=job.max_depth,
                   max_states=job.max_states, max_cycles=job.max_cycles,
                   unsound=job.unsound, machine=job.machine,
                   model=job.model, por=job.por, spool=job.spool)


def run_checks(jobs: List[CheckJob], workers: Optional[int] = None
               ) -> List[Union[CheckReport, TaskFailure]]:
    """Run the matrix across processes; one entry per job, in job order:
    its report, or the failure record of a cell that raised or whose
    worker died (no retries)."""
    if workers is None:
        workers = default_workers()
    reports: List[Union[CheckReport, TaskFailure, None]] = [None] * len(jobs)
    fan_out(run_check, jobs, [job.label for job in jobs], workers,
            reports.__setitem__)
    return reports
