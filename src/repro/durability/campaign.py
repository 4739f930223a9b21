"""``repro chaos``: seeded end-to-end crash/corruption drills.

Each drill stages one of the crash windows the durable layers claim to
survive — a worker dying mid-claim, a pending entry rotting on disk, a
finished artifact rotting *after* its job completed, the disk filling
up during an artifact write, a spooled model check crashing mid-
checkpoint, a point-cache entry flipping a bit — then asserts the
PR 7/PR 9 invariants differentially:

* **no accepted job lost** — every submitted job reaches ``done`` with
  a readable artifact once the fault clears;
* **no attempt double-charged** — one injected failure costs exactly
  one attempt, never two;
* **resumed == uninterrupted** — a ``--spool`` check resumed after the
  crash reports the same unique-state count and terminal fingerprint
  as a run that was never interrupted;
* **fsck sees everything** — the read-only scan detects every piece of
  injected damage, and a repair pass leaves the directory clean.

Everything is in-process and seeded (faults through
:class:`~.faultyfs.FaultyFS`, direct corruption through
:func:`~.faultyfs.corrupt_file`), so a red drill replays exactly from
its (scenario, seed) pair.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional

from .faultyfs import FSFaultConfig, FaultyFS, InjectedCrash, corrupt_file
from .fsck import fsck

#: The synthetic job spec every service drill submits (unique per
#: seed so drills never dedup against each other's artifacts).
def _spec(seed: int) -> dict:
    return {"duration_ms": 0, "payload": f"chaos-{seed}"}


@dataclass
class ChaosResult:
    """Outcome of one (scenario, seed) drill."""

    scenario: str
    seed: int
    checks: List[Dict[str, Any]] = field(default_factory=list)
    faults: Dict[str, Dict[str, int]] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None \
            and all(c["ok"] for c in self.checks)

    def failing(self) -> List[str]:
        names = [c["name"] for c in self.checks if not c["ok"]]
        if self.error is not None:
            names.append(f"error: {self.error}")
        return names

    def to_dict(self) -> Dict[str, Any]:
        return {"scenario": self.scenario, "seed": self.seed,
                "ok": self.ok, "checks": self.checks,
                "faults": self.faults, "error": self.error}


class _Drill:
    """Check collector for one scenario run."""

    def __init__(self, scenario: str, seed: int) -> None:
        self.result = ChaosResult(scenario, seed)
        self.seed = seed

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.result.checks.append(
            {"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def _make_service(workdir: Path, **overrides):
    """An inline service (no fleet, no HTTP, no monitor thread) over a
    fresh data dir; drills drive repairs and workers by hand so every
    step is deterministic."""
    from ..service.service import Service, ServiceConfig
    kwargs = dict(data_dir=str(workdir / "svc"), workers=0,
                  monitor_interval=0.05, entry_repair_age=0.0)
    kwargs.update(overrides)
    return Service(ServiceConfig(**kwargs))


def _worker(service, name: str = "chaos"):
    from ..service.worker import Worker
    return Worker(service.paths["data"], name)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def _crash_mid_claim(seed: int, workdir: Path) -> ChaosResult:
    """A worker dies right after claiming: its job-record save lands,
    then the process is gone.  The monitor's lease backstop requeues;
    the retry completes; exactly one attempt is wasted."""
    drill = _Drill("crash-mid-claim", seed)
    service = _make_service(workdir, lease_seconds=0.0)
    record, _ = service.submit("synthetic", _spec(seed))
    shim = FaultyFS(seed, FSFaultConfig(
        ops=("crash-after-rename",), sites=("job-record",),
        site_budget=1))
    worker = _worker(service, "chaos-w1")
    worker.jobs.fs = shim
    crashed = False
    try:
        worker.run(max_jobs=1)
    except InjectedCrash:
        crashed = True
    drill.check("worker-crashed-mid-claim", crashed)
    mid = service.job(record.id)
    drill.check("claim-was-durable",
                mid is not None and mid.status == "running"
                and mid.attempts == 1,
                f"status={getattr(mid, 'status', None)}")
    time.sleep(0.01)          # let the zero-lease age past zero
    service._repair()
    requeued = service.job(record.id)
    drill.check("monitor-requeued",
                requeued.status == "queued" and requeued.attempts == 1,
                f"status={requeued.status} attempts={requeued.attempts}")
    _worker(service, "chaos-w2").run(max_jobs=1)
    done = service.job(record.id)
    drill.check("job-not-lost", done.status == "done")
    drill.check("attempt-not-double-charged", done.attempts == 2,
                f"attempts={done.attempts}")
    drill.check("artifact-readable",
                service.result(record.id) is not None)
    report = fsck(service.paths["data"], repair=False, tmp_age=0.0)
    drill.check("fsck-clean-after", report.clean,
                "; ".join(f"{f.kind}:{f.path}"
                          for f in report.unrepaired))
    drill.result.faults = shim.summary()
    return drill.result


def _corrupt_pending_entry(seed: int, workdir: Path) -> ChaosResult:
    """A pending queue entry rots on disk.  fsck must detect it and
    rebuild the payload from the filename; the job then drains
    normally — accepted work is never lost to entry rot."""
    drill = _Drill("corrupt-pending-entry", seed)
    service = _make_service(workdir)
    record, _ = service.submit("synthetic", _spec(seed))
    entry = service.queue.pending()[0]
    path = service.queue.pending_dir / entry.name
    corrupt_file(path, seed, mode="flip")
    detect = fsck(service.paths["data"], repair=False, tmp_age=0.0)
    drill.check("fsck-detects-corruption",
                any(f.kind == "corrupt" and f.path == str(path)
                    for f in detect.findings))
    repaired = fsck(service.paths["data"], repair=True, tmp_age=0.0)
    drill.check("fsck-repairs", repaired.clean,
                "; ".join(f"{f.kind}:{f.path}"
                          for f in repaired.unrepaired))
    payload = service.queue.entry_payload(service.queue.pending_dir,
                                          entry.name)
    drill.check("entry-payload-rebuilt",
                payload is not None and payload["job"] == record.id)
    _worker(service).run(max_jobs=1)
    done = service.job(record.id)
    drill.check("job-not-lost", done is not None
                and done.status == "done")
    drill.check("attempt-not-double-charged",
                done is not None and done.attempts == 1,
                f"attempts={getattr(done, 'attempts', None)}")
    return drill.result


def _corrupt_artifact(seed: int, workdir: Path) -> ChaosResult:
    """A stored artifact rots after its job finished.  The dedup edge
    must notice (quarantine, not serve garbage) and re-execute."""
    drill = _Drill("corrupt-artifact", seed)
    service = _make_service(workdir)
    record, _ = service.submit("synthetic", _spec(seed))
    _worker(service).run(max_jobs=1)
    jid = record.id
    corrupt_file(service.store.path(jid), seed, mode="flip")
    detect = fsck(service.paths["data"], repair=False, tmp_age=0.0)
    drill.check("fsck-detects-corruption",
                any(f.kind == "corrupt"
                    and f.path == str(service.store.path(jid))
                    for f in detect.findings))
    again, created = service.submit("synthetic", _spec(seed))
    drill.check("resubmission-re-executes",
                created and again.status == "queued",
                f"created={created} status={again.status}")
    drill.check("corrupt-artifact-quarantined",
                service.store.quarantined() == 1)
    _worker(service).run(max_jobs=1)
    done = service.job(jid)
    drill.check("job-not-lost", done.status == "done")
    drill.check("artifact-valid-again",
                service.result(jid) is not None)
    return drill.result


def _enospc_artifact(seed: int, workdir: Path) -> ChaosResult:
    """The disk fills while the artifact is written.  The attempt is
    charged, the retry succeeds, and the partial tmp file the failed
    write left behind is exactly what fsck reclaims."""
    drill = _Drill("enospc-artifact", seed)
    service = _make_service(workdir)
    record, _ = service.submit("synthetic", _spec(seed))
    shim = FaultyFS(seed, FSFaultConfig(
        ops=("enospc",), sites=("artifact",), site_budget=1))
    worker = _worker(service)
    worker.store.fs = shim
    worker.run_one(*worker.ledger.claim())  # executes, then ENOSPC
    mid = service.job(record.id)
    drill.check("enospc-charged-one-attempt",
                mid.status == "queued" and mid.attempts == 1,
                f"status={mid.status} attempts={mid.attempts}")
    detect = fsck(service.paths["data"], repair=False, tmp_age=0.0)
    drill.check("fsck-detects-partial-tmp",
                any(f.kind == "tmp-orphan" for f in detect.findings))
    repaired = fsck(service.paths["data"], repair=True, tmp_age=0.0)
    drill.check("fsck-repairs", repaired.clean,
                "; ".join(f"{f.kind}:{f.path}"
                          for f in repaired.unrepaired))
    worker.run_one(*worker.ledger.claim())  # budget spent: succeeds
    done = service.job(record.id)
    drill.check("job-not-lost", done.status == "done")
    drill.check("attempt-not-double-charged", done.attempts == 2,
                f"attempts={done.attempts}")
    drill.check("artifact-readable",
                service.result(record.id) is not None)
    drill.result.faults = shim.summary()
    return drill.result


def _frontier_crash(seed: int, workdir: Path) -> ChaosResult:
    """A spooled model check crashes mid-checkpoint (the process dies
    with the checkpoint's tmp file written but never renamed).  The
    resumed check must report bit-identically to an uninterrupted
    run."""
    from ..modelcheck import explore
    from ..modelcheck.frontier import DiskFrontier
    drill = _Drill("frontier-crash-mid-checkpoint", seed)
    kwargs = dict(cores=2, lines=2)
    reference = explore("overlap", "tus", spool=workdir / "ref",
                        **kwargs)
    drill.check("reference-complete", reference.complete)
    # Skip the seed's checkpoint, so the crash lands on the first one
    # past it and the resume starts from the seed's.
    shim = FaultyFS(seed, FSFaultConfig(
        ops=("crash-before-rename",), sites=("frontier-checkpoint",),
        site_budget=1, skip=1))
    spool = workdir / "spool"
    crashed = False
    try:
        explore("overlap", "tus", store=DiskFrontier(spool, fs=shim),
                **kwargs)
    except InjectedCrash:
        crashed = True
    drill.check("check-crashed-mid-checkpoint", crashed)
    detect = fsck(spool, repair=False, tmp_age=0.0)
    drill.check("fsck-sees-crash-debris", not detect.clean,
                str(detect.counts()))
    fsck(spool, repair=True, tmp_age=0.0)
    resumed = explore("overlap", "tus", spool=spool, **kwargs)
    drill.check("resume-complete", resumed.complete)
    drill.check("unique-states-identical",
                resumed.unique_states == reference.unique_states,
                f"{resumed.unique_states} != {reference.unique_states}")
    drill.check("terminal-states-identical",
                resumed.terminal_states == reference.terminal_states)
    drill.check("terminal-fingerprint-identical",
                resumed.terminal_fingerprint
                == reference.terminal_fingerprint)
    drill.check("no-spurious-violation", resumed.violation is None)
    drill.result.faults = shim.summary()
    return drill.result


def _point_cache_bitrot(seed: int, workdir: Path) -> ChaosResult:
    """A disk-cached simulation point flips a bit.  The next reader
    must quarantine and recompute — and recompute identically —
    rather than feed the rotted result to a figure."""
    from ..harness.runner import Runner
    drill = _Drill("point-cache-bitrot", seed)
    cache = workdir / "cache"
    params = dict(cache_dir=str(cache), st_length=400, simpoints=1,
                  seed=42 + seed)
    first = Runner(**params).run("synth.burst", "tus", 14)
    files = [p for p in cache.glob("*.json")]
    drill.check("point-cached", len(files) == 1)
    if files:
        corrupt_file(files[0], seed, mode="flip")
        detect = fsck(cache, repair=False, tmp_age=0.0)
        drill.check("fsck-detects-corruption",
                    any(f.kind == "corrupt" for f in detect.findings))
    rerun = Runner(**params)
    second = rerun.run("synth.burst", "tus", 14)
    drill.check("corrupt-point-quarantined",
                rerun.cache_quarantined == 1)
    drill.check("recompute-identical",
                first.canonical_json() == second.canonical_json())
    third = Runner(**params).run("synth.burst", "tus", 14)
    drill.check("rewritten-cache-hit-identical",
                third.canonical_json() == first.canonical_json())
    return drill.result


#: Scenario registry, in doc order.
SCENARIOS: Dict[str, Callable[[int, Path], ChaosResult]] = {
    "crash-mid-claim": _crash_mid_claim,
    "corrupt-pending-entry": _corrupt_pending_entry,
    "corrupt-artifact": _corrupt_artifact,
    "enospc-artifact": _enospc_artifact,
    "frontier-crash-mid-checkpoint": _frontier_crash,
    "point-cache-bitrot": _point_cache_bitrot,
}


def run_chaos(seeds: Iterable[int] = (0,),
              scenarios: Optional[Iterable[str]] = None,
              base_dir: Optional[Path] = None) -> List[ChaosResult]:
    """Run the selected drills for every seed; never raises — a drill
    that blows up becomes a failing result carrying the error."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown chaos scenario(s) {unknown}; "
                         f"known: {', '.join(SCENARIOS)}")
    base = Path(base_dir) if base_dir is not None \
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    results: List[ChaosResult] = []
    for seed in seeds:
        for name in names:
            workdir = base / f"seed{seed}" / name
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                results.append(SCENARIOS[name](seed, workdir))
            except Exception as exc:  # noqa: BLE001 - drill verdicts
                failed = ChaosResult(name, seed)
                failed.error = f"{type(exc).__name__}: {exc}"
                results.append(failed)
    return results


def render_results(results: List[ChaosResult]) -> str:
    width = max(len(r.scenario) for r in results) if results else 8
    lines = [f"{'scenario':<{width}}  seed  verdict"]
    for res in results:
        verdict = "pass" if res.ok else \
            "FAIL (" + ", ".join(res.failing()) + ")"
        lines.append(f"{res.scenario:<{width}}  {res.seed:>4}  {verdict}")
    passed = sum(1 for r in results if r.ok)
    lines.append(f"{passed}/{len(results)} drills green")
    return "\n".join(lines)


__all__ = ["ChaosResult", "SCENARIOS", "render_results", "run_chaos"]
