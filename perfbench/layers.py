"""Metric declarations and the per-layer table of the traced run.

The layers are the program's modules: ``sim``, ``cpu``, ``mechanisms``,
``core`` (TUS controller, WOQ, authorization), ``coherence``, ``mem``,
``events`` (``common/events``), ``stats`` (``common/stats``),
``workloads``, ``modelcheck``, ``harness``, ``service`` and
``durability``.  ``bench`` is the benchmark's own code around each
operation.  Times are host seconds per traced block; counts are exact
per block.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from .spans import ROOT

#: End-to-end metric -> unit.  Every workload reports every one.  An
#: operation is a simulation point, a model check or a resubmission
#: (see ``LOCAL_NAMES``).  A run times whole passes of a
#: fixed amount of work, so operations per second would only repeat
#: work per second and is not reported.  The latency tail is printed
#: but not declared: on a shared 2-CPU host its run-to-run spread is
#: wider than any bound a regression gate can use.
E2E_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: What the generic latency and throughput numbers measure on each
#: workload, by the name the number has in that workload's own terms.
_SIM_NAMES = {"op_s_p50": "point_s_p50", "op_s_tail": "point_s_tail",
              "work_per_s": "uops_per_s"}
LOCAL_NAMES = {
    "spec-1core": _SIM_NAMES,
    "parsec-16core": _SIM_NAMES,
    "check-matrix": {"op_s_p50": "check_s_p50", "op_s_tail": "check_s_tail",
                     "work_per_s": "states_per_s"},
    "service-sweep": {"op_s_p50": "dedup_s_p50",
                      "op_s_tail": "dedup_s_tail",
                      "work_per_s": "points_per_s"},
}

LAYERS = ["sim", "cpu", "mechanisms", "core", "coherence", "mem", "events",
          "stats", "workloads", "modelcheck", "harness", "service",
          "durability"]

#: Per-layer metric -> unit.
UNITS = {
    "sim.self_s": "s", "sim.cycles": "cycles", "sim.ipc": "uops/cycle",
    "cpu.self_s": "s", "cpu.step_calls": "count",
    "cpu.step_progress_ratio": "ratio", "cpu.sb_stall_frac": "ratio",
    "mechanisms.self_s": "s", "mechanisms.drain_calls": "count",
    "mechanisms.search_calls": "count",
    "core.self_s": "s", "core.write_group_calls": "count",
    "core.auth_checks": "count", "core.auth_grant_ratio": "ratio",
    "coherence.self_s": "s", "coherence.port_calls": "count",
    "coherence.transactions": "count", "coherence.dir_lookups": "count",
    "mem.self_s": "s", "mem.cache_lookups": "count",
    "mem.cache_hit_ratio": "ratio", "mem.mshr_allocs": "count",
    "mem.dram_accesses": "count",
    "events.self_s": "s", "events.scheduled": "count",
    "events.fired": "count", "events.fired_per_cycle": "1/cycle",
    "stats.self_s": "s",
    "workloads.trace_s": "s", "workloads.uops_generated": "count",
    "modelcheck.self_s": "s", "modelcheck.replay_s": "s",
    "modelcheck.key_s": "s", "modelcheck.key_calls": "count",
    "modelcheck.invariant_s": "s", "modelcheck.por_s": "s",
    "modelcheck.unique_states": "count", "modelcheck.executions": "count",
    "modelcheck.unique_ratio": "ratio",
    "harness.simulate_s": "s", "harness.point_cache_hit_ratio": "ratio",
    "harness.overhead_s": "s",
    "service.submit_s_p50": "s", "service.http_s_p50": "s",
    "service.queue_wait_s_p50": "s", "service.run_s_p50": "s",
    "service.poll_count": "count", "service.dedup_ratio": "ratio",
    "durability.write_s": "s", "durability.read_s": "s",
    "durability.record_writes": "count", "durability.quarantined": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s", "trace.layers_self_s": "s",
    "trace.reconcile_err": "ratio", "trace.overhead_x": "ratio",
    "trace.ops": "count", "trace.blocks": "count",
    "trace.counts_repeat": "bool",
}

#: Largest share of a traced block's wall time that the program layers
#: may leave unaccounted for (the benchmark's own code, ``bench``).
RECONCILE_TOLERANCE = 0.05

#: Which end-to-end metric, on which workload, each layer's metrics
#: should move.  Written down before measuring.
SHOULD_MOVE = {
    "sim": [("work_per_s", "parsec-16core"), ("work_per_s", "check-matrix")],
    "cpu": [("work_per_s", "spec-1core")],
    "mechanisms": [("work_per_s", "spec-1core")],
    "core": [("work_per_s", "parsec-16core"), ("work_per_s", "spec-1core")],
    "coherence": [("work_per_s", "parsec-16core")],
    "mem": [("work_per_s", "spec-1core"), ("work_per_s", "parsec-16core")],
    "events": [("work_per_s", "parsec-16core")],
    "stats": [("op_s_p50", "spec-1core")],
    "workloads": [("op_s_p50", "spec-1core"), ("op_s_p50", "parsec-16core")],
    "modelcheck": [("work_per_s", "check-matrix")],
    "harness": [("work_per_s", "service-sweep")],
    "service": [("op_s_p50", "service-sweep"),
                ("work_per_s", "service-sweep")],
    "durability": [("op_s_p50", "service-sweep"),
                   ("work_per_s", "service-sweep")],
}

#: Exact counts that must repeat across traced blocks of the same
#: operations.
EXACT_COUNTS = ["sim.cycles", "cpu.step_calls", "mechanisms.drain_calls",
                "core.auth_checks", "coherence.transactions",
                "mem.cache_lookups", "events.fired", "modelcheck.key_calls",
                "modelcheck.unique_states", "workloads.uops_generated"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def block_metrics(block: dict) -> Dict[str, float]:
    """The per-layer table of one traced block."""
    rec = block["rec"]
    calls, outcomes = rec["calls"], rec["outcomes"]
    inclusive, self_s = rec["inclusive"], rec["self_s"]
    layer_self = rec["layer_self"]
    results = block["outcomes"]

    def own(layer: str) -> float:
        return layer_self.get((True, layer), 0.0)

    def extra(key: str) -> float:
        return sum(o.extra.get(key, 0) for o in results)

    def any_thread(*names: str) -> float:
        return sum(inclusive.get(name, 0.0) for name in names)

    run_cycles = outcomes.get("System.run", 0)
    cycles = run_cycles + outcomes.get("System.run_controlled", 0)
    # Simulation points (only they carry simulated cycles).
    sim_uops = sum(o.work for o in results if "cycles" in o.extra)
    fired = outcomes.get("EventQueue.run_until", 0) + \
        calls.get("EventQueue.fire_entry", 0)
    lookups = calls.get("CacheArray.lookup", 0)
    auth = calls.get("AuthorizationUnit.check", 0)
    steps = calls.get("Core.step", 0)
    unique = extra("unique_states")
    executions = extra("executions")
    m = {
        "sim.self_s": own("sim"),
        "sim.cycles": cycles,
        "sim.ipc": _ratio(sim_uops, run_cycles),
        "cpu.self_s": own("cpu"),
        "cpu.step_calls": steps,
        "cpu.step_progress_ratio": _ratio(outcomes.get("Core.step", 0),
                                          steps),
        "cpu.sb_stall_frac": _ratio(extra("sb_stall_cycles"),
                                    extra("core_cycles")),
        "mechanisms.self_s": own("mechanisms"),
        "mechanisms.drain_calls": calls.get("mechanism.drain", 0),
        "mechanisms.search_calls": calls.get("mechanism.search", 0),
        "core.self_s": own("core"),
        "core.write_group_calls": calls.get("TUSController.write_group", 0),
        "core.auth_checks": auth,
        "core.auth_grant_ratio": _ratio(
            outcomes.get("AuthorizationUnit.check", 0), auth),
        "coherence.self_s": own("coherence"),
        "coherence.port_calls": sum(
            v for k, v in calls.items() if k.startswith("CorePort.")),
        "coherence.transactions": calls.get(
            "MemorySystem.start_transaction", 0),
        "coherence.dir_lookups": calls.get("Directory.lookup", 0)
        + calls.get("Directory.get_or_allocate", 0),
        "mem.self_s": own("mem"),
        "mem.cache_lookups": lookups,
        "mem.cache_hit_ratio": _ratio(outcomes.get("CacheArray.lookup", 0),
                                      lookups),
        "mem.mshr_allocs": calls.get("MSHRFile.allocate", 0),
        "mem.dram_accesses": calls.get("DRAM.access", 0),
        "events.self_s": own("events"),
        "events.scheduled": calls.get("EventQueue.schedule", 0),
        "events.fired": fired,
        "events.fired_per_cycle": _ratio(fired, cycles),
        "stats.self_s": own("stats"),
        "workloads.trace_s": any_thread("make_trace",
                                        "make_parallel_traces"),
        "workloads.uops_generated": outcomes.get("make_trace", 0)
        + outcomes.get("make_parallel_traces", 0),
        "modelcheck.self_s": own("modelcheck"),
        "modelcheck.replay_s": inclusive.get("System.run_controlled", 0.0),
        "modelcheck.key_s": inclusive.get("canonical_key", 0.0),
        "modelcheck.key_calls": calls.get("canonical_key", 0),
        "modelcheck.invariant_s": inclusive.get("invariant", 0.0),
        "modelcheck.por_s": any_thread("describe_actions", "persistent_set",
                                       "sleep_filter"),
        "modelcheck.unique_states": unique,
        "modelcheck.executions": executions,
        "modelcheck.unique_ratio": _ratio(unique, executions),
        "service.poll_count": 0,
        "durability.write_s": inclusive.get("JobStore.save", 0.0),
        "durability.read_s": any_thread("JobStore.load", "ArtifactStore.has",
                                        "ArtifactStore.get"),
        "durability.record_writes": calls.get("JobStore.save", 0),
        "bench.self_s": own(ROOT),
    }
    if calls.get("ServiceClient.submit"):
        _service_metrics(m, rec, block["jobs"])
    else:
        m.update({
            "harness.simulate_s": inclusive.get("Runner.simulate", 0.0),
            "harness.point_cache_hit_ratio": 0.0,
            "harness.overhead_s": self_s.get("Runner.simulate", 0.0),
            "service.submit_s_p50": 0.0, "service.http_s_p50": 0.0,
            "service.queue_wait_s_p50": 0.0, "service.run_s_p50": 0.0,
            "service.dedup_ratio": 0.0,
        })
    # Without the benchmark's own layer: whatever of the block's wall
    # time no program layer covers is unattributed.
    layers_self = sum(v for (main, layer), v in layer_self.items()
                      if main and layer != ROOT)
    m["trace.wall_s"] = block["wall"]
    m["trace.layers_self_s"] = layers_self
    m["trace.reconcile_err"] = _ratio(abs(block["wall"] - layers_self),
                                      block["wall"])
    return m


def _service_metrics(m: Dict[str, float], rec: dict,
                     jobs: List[dict]) -> None:
    """Worker-side layers come from job records and artifacts: wrappers
    in this process cannot see into the worker."""
    client = rec["durations"].get("ServiceClient.submit", [])
    server = rec["durations"].get("Service.submit", [])
    records = [j["record"] for j in jobs]
    telemetry = [j["telemetry"] for j in jobs]
    busy = sum(t["busy_seconds"] for t in telemetry)
    run = sum(r["finished_ts"] - r["started_ts"] for r in records)
    m.update({
        "harness.simulate_s": busy,
        "harness.point_cache_hit_ratio": _ratio(
            sum(t["cache_hits"] for t in telemetry),
            sum(t["points_total"] for t in telemetry)),
        "harness.overhead_s": run - busy,
        "service.submit_s_p50": _median(client),
        "service.http_s_p50": _median(
            [c - s for c, s in zip(client, server)]),
        "service.queue_wait_s_p50": _median(
            [r["started_ts"] - r["submitted_ts"] for r in records]),
        "service.run_s_p50": _median(
            [r["finished_ts"] - r["started_ts"] for r in records]),
        "service.poll_count": _ratio(
            rec["calls"].get("ServiceClient.job", 0), len(jobs)),
        "service.dedup_ratio": _ratio(
            rec["outcomes"].get("Service.submit", 0),
            rec["calls"].get("Service.submit", 0)),
    })


def layer_metrics(workload, ref_wall: float,
                  blocks: List[dict]) -> Dict[str, float]:
    """Mean per-block table over the traced blocks, plus reconciliation,
    count repetition and tracing overhead."""
    tables = [block_metrics(block) for block in blocks]
    merged = {key: sum(t[key] for t in tables) / len(tables)
              for key in tables[0]}
    merged["durability.quarantined"] = getattr(workload, "quarantined", 0)
    merged["trace.ops"] = len(blocks[0]["outcomes"])
    merged["trace.blocks"] = len(blocks)
    merged["trace.reconcile_err"] = _ratio(
        abs(merged["trace.wall_s"] - merged["trace.layers_self_s"]),
        merged["trace.wall_s"])
    # The reference block runs the head of pass 0 untraced and traced
    # block k the head of pass k: the same operations, except that
    # service-sweep shifts its job seeds.
    merged["trace.overhead_x"] = _ratio(merged["trace.wall_s"], ref_wall)
    merged["trace.counts_repeat"] = int(all(
        t[key] == tables[0][key] for t in tables for key in EXACT_COUNTS))
    return {key: merged[key] for key in UNITS}
