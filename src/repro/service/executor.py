"""Job execution: one handler per job kind, all existing machinery.

The executor is deliberately thin — it maps a validated job spec onto
the repo's existing entry points (the sweep harness, the model checker
matrix, the fault campaigns) and returns a JSON-plain payload for the
artifact store.  It adds no simulation semantics of its own: a sweep
job runs through :func:`~repro.harness.sweep.sweep_figure`, the same
collect/fan-out/replay path (and
:func:`~repro.harness.parallel.run_points` deadline/retry/checkpoint
loop) the CLI uses, against the *shared* point cache, so results are
bit-identical with the one-shot paths and partially-overlapping jobs
dedup at point granularity.

A :class:`~repro.common.errors.DeadlockError` escaping a handler is
*not* flattened to a string here: the worker catches it and attaches
the structured :class:`~repro.sim.progress.ProgressDump` to the job
record, so the job-status API can serve the full forward-progress
diagnosis of a hung job.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..common.errors import DeadlockError
from .jobs import JOB_KINDS, JobRecord, JobValidationError, machine_of
from .store import ArtifactStore


def _table_dict(result) -> Dict[str, Any]:
    """An :class:`~repro.harness.report.ExperimentResult` as JSON."""
    return {"exp_id": result.exp_id, "title": result.title,
            "columns": list(result.columns), "rows": result.rows,
            "summary": result.summary, "notes": result.notes}


def _run_sweep(record: JobRecord, store: ArtifactStore,
               scratch: Path) -> Dict[str, Any]:
    from ..harness.runner import Runner
    from ..harness.sweep import SweepFailed, sweep_figure

    spec = record.spec
    runner = Runner(cache_dir=str(store.point_cache_dir),
                    st_length=spec["st_length"],
                    par_length=spec["par_length"],
                    num_cores_parallel=spec["cores"],
                    seed=spec["seed"],
                    simpoints=spec["simpoints"],
                    parsec_simpoints=spec["parsec_simpoints"])
    failure = None
    try:
        tables, telemetry = sweep_figure(
            spec["figure"], runner, workers=spec["workers"],
            benches=spec["benches"],
            manifest_path=scratch / f"{record.id}.manifest.json")
    except SweepFailed as exc:
        failure, telemetry = exc, exc.telemetry
    record.points_total = telemetry.points_total
    record.point_cache_hits = telemetry.cache_hits
    record.points_simulated = telemetry.simulated
    if failure is not None:
        raise failure
    return {"figure": spec["figure"],
            "tables": [_table_dict(t) for t in tables],
            "telemetry": telemetry.to_dict()}


def _run_check(record: JobRecord, store: ArtifactStore,
               scratch: Path) -> Dict[str, Any]:
    from ..harness.checks import CheckJob, run_check

    spec = record.spec
    job = CheckJob(scenario=spec["scenario"], mechanism=spec["mechanism"],
                   cores=spec["cores"], lines=spec["lines"],
                   max_depth=spec["depth"], max_states=spec["max_states"],
                   max_cycles=spec["max_cycles"], fuzz_runs=spec["fuzz"],
                   seed=spec["seed"], machine=machine_of(spec),
                   por=spec["por"])
    report = run_check(job)
    violation = None
    if report.violation is not None:
        violation = {"invariant": report.violation.invariant,
                     "describe": report.violation.describe()}
    return {"scenario": report.scenario, "mechanism": report.mechanism,
            "por": report.por,
            "passed": report.passed, "summary": report.summary(),
            "executions": report.executions,
            "unique_states": report.unique_states,
            "terminal_states": report.terminal_states,
            "distinct_terminals": report.distinct_terminals,
            "terminal_fingerprint": report.terminal_fingerprint,
            "states_per_sec": report.states_per_sec,
            "complete": report.complete, "truncated": report.truncated,
            "violation": violation,
            "wall_seconds": report.wall_seconds}


def _run_faults(record: JobRecord, store: ArtifactStore,
                scratch: Path) -> Dict[str, Any]:
    from ..faults.campaign import run_campaigns, sweep_specs

    spec = record.spec
    mechanisms = (spec["mechanism"],)
    intensities = ("low", "medium", "high") \
        if spec["intensity"] == "all" else (spec["intensity"],)
    specs = sweep_specs(
        seeds=range(spec["seed"], spec["seed"] + spec["seeds"]),
        mechanisms=mechanisms, intensities=intensities,
        cores=spec["cores"], ops_per_core=spec["ops"],
        retry_policy=spec["retry"], machine=machine_of(spec))
    results = run_campaigns(specs, workers=spec["workers"])
    failed = [r for r in results if not r.ok]
    return {"campaigns": [r.to_dict() for r in results],
            "total": len(results), "failed": len(failed),
            "ok": not failed}


def _run_synthetic(record: JobRecord, store: ArtifactStore,
                   scratch: Path) -> Dict[str, Any]:
    """Placeholder work for tests and drills: bounded, cheap,
    controllable.

    ``fail`` forces the two failure paths the service must surface —
    a plain exception and a :class:`DeadlockError` carrying a
    structured :class:`~repro.sim.progress.ProgressDump` — so the
    error plumbing is exercised end-to-end without hunting for a real
    deadlock seed.
    """
    spec = record.spec
    if spec["fail"] == "error":
        raise RuntimeError("synthetic failure (fail=error)")
    if spec["fail"] == "deadlock":
        from ..sim.progress import ProgressDump
        # Shapes mirror the capture helpers in repro.sim.progress so
        # the dump round-trips through to_dict/from_dict/render.
        dump = ProgressDump(
            reason="no-progress", cycle=123,
            workload=f"synthetic:{record.id}", mechanism="tus",
            message="synthetic deadlock (fail=deadlock)",
            cores=[{"core": core, "committed": 0, "trace_len": 1,
                    "done": False, "last_stall": "sb-full",
                    "wake_cycle": None,
                    "rob": {"occupancy": 0},
                    "sb": {"occupancy": 1, "capacity": 8,
                           "committed": 1,
                           "head": {"seq": 0, "line": 0x40,
                                    "committed": True}},
                    "mechanism": {}}
                   for core in (0, 1)],
            wait_edges=[{"from": 0, "to": 1, "line": 0x40, "live": True},
                        {"from": 1, "to": 0, "line": 0x80, "live": True}],
            wait_cycle=[0, 1],
            events={"count": 0, "next_cycle": None, "head": []})
        raise DeadlockError("synthetic deadlock (fail=deadlock)",
                            dump=dump)
    if spec["duration_ms"]:
        time.sleep(spec["duration_ms"] / 1000.0)
    return {"payload": spec["payload"], "points": spec["points"],
            "slept_ms": spec["duration_ms"]}


HANDLERS: Dict[str, Callable[[JobRecord, ArtifactStore, Path],
                             Dict[str, Any]]] = {
    "sweep": _run_sweep,
    "check": _run_check,
    "faults": _run_faults,
    "synthetic": _run_synthetic,
}


def execute_job(record: JobRecord, store: ArtifactStore,
                scratch: Path,
                handlers: Optional[Dict[str, Callable]] = None
                ) -> Dict[str, Any]:
    """Run one job and return its artifact payload.

    ``handlers`` overrides the kind dispatch table (tests inject
    failing handlers); exceptions propagate to the worker, which owns
    retry/fail bookkeeping.  A kind with no handler (a record persisted
    by a version that knew more kinds) raises
    :class:`~repro.service.jobs.JobValidationError`, which the worker
    fails at once: a retry can only raise it again.
    """
    table = handlers if handlers is not None else HANDLERS
    handler = table.get(record.kind)
    if handler is None:
        raise JobValidationError(
            f"no handler for job kind {record.kind!r}; known: "
            f"{', '.join(JOB_KINDS)}")
    started = time.time()
    payload = handler(record, store, Path(scratch))
    return {"kind": record.kind, "spec": record.spec,
            "wall_seconds": time.time() - started,
            "result": payload}
