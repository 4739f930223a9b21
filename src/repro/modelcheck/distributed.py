"""Distributed frontier expansion: N worker processes, one spool.

The durable frontier (:class:`~repro.modelcheck.frontier.DiskFrontier`)
already makes every queue transition an atomic rename and every
visited/terminal/proviso record a content-addressed file, so scaling a
check out is just *starting more drain loops on the same spool*:

* workers claim pending records by rename — exactly one wins each;
* visited claims race on first-writer-wins creation, which is the
  cross-worker visited-set merge (a state expanded by worker A is
  pruned by worker B the moment B replays into it);
* the first violation wins ``violation.json`` and every drain loop
  exits at its next iteration;
* a worker with an empty pending directory idles while *any* worker
  still holds a running record (its expansion may push more work) and
  exits once pending and running are both empty;
* periodically each worker folds finished visited claims into a
  segment file (:meth:`DiskFrontier.compact_visited`) to bound the
  spool's file count.

The driver (:func:`distributed_explore`) seeds the spool, runs the
fleet (a :class:`~repro.common.pool.Fleet` of :func:`worker_main`
processes), then *locally* drains whatever a crashed worker may have
left running and minimises the violation if one was found — so its
report is exactly an :func:`~repro.modelcheck.explorer.explore` report,
just computed by many hands.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ..common.pool import Fleet
from ..models import DEFAULT_MODEL
from .explorer import (DEFAULT_MAX_CYCLES, CheckReport, CheckRunner, _shape,
                       drain_frontier, explore, job_meta, make_record)
from .frontier import DiskFrontier
from .scenarios import get_scenario

#: How many expansions between a worker's visited-set compactions.
COMPACT_EVERY = 200


class _WorkerFrontier(DiskFrontier):
    """A worker's view of the spool: each record it claims ends its
    idle stretch and counts toward the next visited-set compaction."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.idle = 0.0
        self.since_compact = 0

    def pop(self):
        record = super().pop()
        if record is not None:
            self.idle = 0.0
            self.since_compact += 1
            if self.since_compact >= COMPACT_EVERY:
                self.since_compact = 0
                self.compact_visited()
        return record


def worker_main(spool: str, worker_id: str) -> None:
    """Drain one spool until the check is finished (worker entry
    point; every parameter of the check comes from the spool's
    ``meta.json``)."""
    store = _WorkerFrontier(spool)
    meta = store.meta()
    if meta is None:
        return
    runner = CheckRunner(meta["scenario"], meta["mechanism"],
                         cores=meta["cores"], lines=meta["lines"],
                         unsound=meta["unsound"],
                         max_cycles=meta["max_cycles"],
                         machine=meta["machine"], model=meta["model"],
                         por=meta["por"])
    report = runner.report

    def record_violation(outcome) -> None:
        store.set_violation({"invariant": outcome.invariant,
                             "message": outcome.message,
                             "taken": list(outcome.taken)})

    def wait() -> bool:
        # Pending is empty but someone still runs: their expansion may
        # push children.  Idle briefly; give up after a stale-claim
        # timeout (30 s with no record claimed) so a dead sibling
        # cannot wedge the fleet (the driver recovers its running
        # records afterwards).
        if store.idle > 30.0:
            return False
        time.sleep(0.02)
        store.idle += 0.02
        return True

    drain_frontier(store, runner, report, por=meta["por"],
                   max_depth=meta["max_depth"],
                   max_states=meta["max_states"],
                   on_violation=record_violation, wait=wait)
    store.compact_visited()
    store.add_stats(f"{worker_id}-{os.getpid()}", report.executions)


def distributed_explore(scenario_name: str, mechanism: str, *,
                        spool, workers: int = 2, cores: int = 2,
                        lines: int = 2, max_depth: int = 64,
                        max_states: int = 100_000,
                        max_cycles: int = DEFAULT_MAX_CYCLES,
                        unsound: bool = False,
                        machine: Optional[dict] = None,
                        model: str = DEFAULT_MODEL,
                        por: str = "sleep") -> CheckReport:
    """Shard one check's frontier expansion across ``workers``
    processes sharing ``spool``; returns the merged report."""
    start = time.monotonic()
    scenario = get_scenario(scenario_name)
    cores, lines = _shape(scenario, cores, lines)
    store = DiskFrontier(spool)
    store.seed(job_meta(scenario_name, mechanism, cores=cores, lines=lines,
                        max_depth=max_depth, max_states=max_states,
                        max_cycles=max_cycles, unsound=unsound,
                        machine=machine, model=model, por=por),
               make_record(()))
    fleet = Fleet(worker_main, (str(spool),), size=max(1, workers))
    fleet.start()
    try:
        while fleet.alive():
            time.sleep(0.02)
            fleet.reap(respawn=False)
    finally:
        fleet.stop()
    # A killed worker leaves records in running/; the final in-process
    # explore() recovers and drains them (a completed spool drains to
    # nothing instantly), reconstructs the violation if one was found,
    # and assembles the merged counters from the spool.
    report = explore(scenario_name, mechanism, cores=cores, lines=lines,
                     max_depth=max_depth, max_states=max_states,
                     max_cycles=max_cycles, unsound=unsound,
                     machine=machine, model=model, por=por, store=store)
    report.wall_seconds = time.monotonic() - start
    return report
