"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``      simulate one benchmark under one mechanism and print stats
``compare``  run all five mechanisms on one benchmark, side by side
``figure``   regenerate one of the paper's figures (fig8..fig15, writes,
             dse, sbcost) or the core-count ``scaling`` study and print
             its rows
``sweep``    regenerate figures through the parallel harness: shard the
             cache-missing simulation points across worker processes
             and print run telemetry
``litmus``   run the litmus corpus under one memory model (default
             x86-TSO): check operational == axiomatic == corpus
             verdicts, and every mechanism within the model
``models``   list the registered base consistency models
``check``    model-check protocol invariants over all interleavings of
             a small scenario (exhaustive BFS, or ``--fuzz`` swarm)
``trace``    record every instrumentation event of one run and export a
             Chrome-trace-event/Perfetto ``.trace.json`` timeline
``faults``   run deterministic fault-injection campaigns: perturb the
             protocol at its legal seams under pinned seeds, check
             invariants after every step, and diff the outcome against
             the fault-free run
``bench``    list the available benchmarks with their descriptions
``serve``    run the long-lived simulation service: REST job API,
             disk-backed queue, worker fleet, shared artifact store,
             Prometheus ``/metrics``
``fsck``     scan a service data dir, frontier spool, or cache dir for
             crash debris (orphaned tmp files, corrupt records,
             dangling claims, lost entries) and optionally repair it
``chaos``    run the seeded crash-consistency drills: inject filesystem
             faults and corruption into a throwaway service / spool /
             cache and assert no job lost, no attempt double-charged,
             resumed checks bit-identical
``submit``   submit one job to a running service (and optionally wait
             for and print its result)
``loadtest`` drive a running (or freshly booted) service with
             Locust-style synthetic client traffic and verify
             throughput, cross-client dedup, and 429 backlog shedding

Examples
--------

    python -m repro run --bench 502.gcc5 --mechanism tus
    python -m repro compare --bench 505.mcf --sb 32
    python -m repro figure fig9
    python -m repro sweep fig8 --workers 8
    python -m repro sweep all --workers 16 --export-dir out/
    python -m repro litmus --mechanism tus
    python -m repro litmus --model relaxed
    python -m repro models
    python -m repro check --cores 2 --lines 2 --mechanism tus
    python -m repro check --scenario overlap --mechanism tus --unsound-auth
    python -m repro check --cores 3 --fuzz 500 --seed 7
    python -m repro trace --workload parsec-small --mechanism tus
    python -m repro faults --seeds 50 --mechanism tus --intensity high
    python -m repro faults --mechanism all --manifest faults.json
    python -m repro serve --port 8080 --service-workers 4
    python -m repro submit sweep --spec '{"figure": "fig9"}' --wait
    python -m repro loadtest --clients 8 --jobs 6
    python -m repro fsck .repro_service --repair
    python -m repro chaos --seeds 2 --manifest chaos.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .common.config import MECHANISMS, TOPOLOGIES, table_i
from .energy.mcpat import attach_energy
from .sim.system import run_single
from .workloads import all_profiles, make_trace


def _cmd_run(args) -> int:
    config = table_i().with_mechanism(args.mechanism) \
        .with_sb_size(args.sb)
    trace = make_trace(args.bench, args.length, args.seed)
    result = run_single(config, trace)
    attach_energy(result, config)
    print(f"{args.bench} / {args.mechanism} / SB={args.sb}")
    print(f"  cycles        {result.cycles}")
    print(f"  IPC           {result.ipc:.3f}")
    print(f"  SB stalls     {result.stall_fraction('sb'):.2%}")
    print(f"  L1D writes    {result.sum_stats('l1d.writes'):.0f}")
    print(f"  DRAM accesses {result.sum_stats('dram.accesses'):.0f}")
    print(f"  energy (a.u.) {result.energy:.3g}")
    return 0


def _cmd_compare(args) -> int:
    trace = make_trace(args.bench, args.length, args.seed)
    base_cycles = None
    print(f"{args.bench} @ SB={args.sb} "
          f"({args.length} uops, seed {args.seed})")
    for mechanism in MECHANISMS:
        config = table_i().with_mechanism(mechanism).with_sb_size(args.sb)
        result = run_single(config, trace)
        attach_energy(result, config)
        if base_cycles is None:
            base_cycles = result.cycles
        print(f"  {mechanism:>8}: {result.cycles:>9} cycles "
              f"(speedup {base_cycles / result.cycles:5.3f})  "
              f"SB stalls {result.stall_fraction('sb'):6.1%}  "
              f"EDP {result.energy * result.cycles:.3g}")
    return 0


def _cmd_figure(args) -> int:
    from .harness import FIGURES, Runner, sb_cost, scaling
    if args.name == "sbcost":
        print(sb_cost().render())
        return 0
    if args.name == "scaling":
        # Direct-system experiment (live tracer probes); takes no runner.
        print(scaling().render())
        return 0
    if args.name not in FIGURES:
        print(f"unknown figure {args.name!r}; "
              f"known: {', '.join(sorted(FIGURES))}, sbcost, scaling",
              file=sys.stderr)
        return 2
    runner = Runner()
    output = FIGURES[args.name](runner)
    results = output.values() if isinstance(output, dict) else [output]
    for result in results:
        print(result.render())
        print()
    return 0


def _sweep_runner(args):
    from .harness import Runner
    kwargs = {}
    for attr, key in (("st_length", "st_length"),
                      ("par_length", "par_length"),
                      ("simpoints", "simpoints"),
                      ("parsec_simpoints", "parsec_simpoints"),
                      ("cores", "num_cores_parallel"),
                      ("seed", "seed")):
        value = getattr(args, attr)
        if value is not None:
            kwargs[key] = value
    return Runner(cache_dir=args.cache,
                  use_disk_cache=not args.no_disk_cache, **kwargs)


def _cmd_sweep(args) -> int:
    from .harness import (FIGURES, SweepInterrupted, render_telemetry,
                          sweep_all, sweep_figure)
    from .harness.export import telemetry_to_json, to_csv, to_json
    runner = _sweep_runner(args)
    try:
        if args.name == "all":
            outputs, telemetry = sweep_all(runner, workers=args.workers)
            results = [r for parts in outputs.values() for r in parts]
        elif args.name in FIGURES:
            results, telemetry = sweep_figure(args.name, runner,
                                              workers=args.workers,
                                              benches=args.benches)
        else:
            print(f"unknown figure {args.name!r}; "
                  f"known: {', '.join(sorted(FIGURES))}, all",
                  file=sys.stderr)
            return 2
    except SweepInterrupted as exc:
        print(f"\n{exc}", file=sys.stderr)
        print("completed points are checkpointed in the cache; "
              "re-run the same command to resume", file=sys.stderr)
        return 130
    for result in results:
        print(result.render())
        print()
    print(render_telemetry(telemetry))
    if args.export_dir:
        from pathlib import Path
        out = Path(args.export_dir)
        out.mkdir(parents=True, exist_ok=True)
        for result in results:
            to_csv(result, out / f"{result.exp_id}.csv")
            to_json(result, out / f"{result.exp_id}.json")
        telemetry_to_json(telemetry, out / "telemetry.json")
        print(f"exported {len(results)} result(s) to {out}/")
    return 0


def _cmd_litmus(args) -> int:
    """Run the litmus corpus under one memory model.  Per entry: the
    model's reference outcomes must equal its axiomatic outcomes, both
    must agree with the corpus verdict on the critical outcome, and
    every mechanism's outcomes must be a subset of the reference."""
    from .models import enumerate_mechanism_outcomes, get_model
    from .models.axiomatic import axiomatic_outcomes
    from .models.corpus import ALLOWED, corpus
    model = get_model(args.model)
    mechanisms = MECHANISMS if args.mechanism == "all" else (args.mechanism,)
    failures = 0
    for entry in corpus():
        ref = model.reference_outcomes(entry.program)
        ax = axiomatic_outcomes(entry.program, model)
        want = entry.verdict(model.name) == ALLOWED
        verdict = "allowed" if want else "forbidden"
        bad = ref != ax
        bad |= entry.observable(ref) != want
        bad |= entry.observable(ax) != want
        cells = []
        for mechanism in mechanisms:
            outcomes = enumerate_mechanism_outcomes(
                entry.program, mechanism, model=model.name)
            ok = outcomes <= ref
            bad |= not ok
            cells.append(f"{mechanism}={len(outcomes):<3}"
                         f"{'' if ok else '!'}")
        failures += bad
        status = "OK" if not bad else "VIOLATION"
        print(f"{entry.name:15} {model.name}={len(ref):3} ax={len(ax):3} "
              f"{' '.join(cells)} {verdict:9} {status}")
    return 1 if failures else 0


def _cmd_models(args) -> int:
    from .models import DEFAULT_MODEL, available_models, get_model
    for name in available_models():
        model = get_model(name)
        default = " (default)" if name == DEFAULT_MODEL else ""
        print(f"{name:10} {model.description}{default}")
        print(f"{'':10} multi-copy-atomic={model.multi_copy_atomic} "
              f"store-order={model.guarantees_store_order} "
              f"axioms={','.join(model.axiom_names())}")
    return 0


def _cmd_check(args) -> int:
    from .common.pool import TaskFailure
    from .harness.checks import CheckJob, run_checks
    from .modelcheck import SCENARIOS
    mechanisms = MECHANISMS if args.mechanism == "all" else (args.mechanism,)
    scenarios = tuple(sorted(SCENARIOS)) if args.scenario == "all" \
        else (args.scenario,)
    if args.spool and (len(scenarios) > 1 or len(mechanisms) > 1):
        print("--spool needs a single (scenario, mechanism) cell")
        return 2
    if args.dist_workers and not args.spool:
        print("--dist-workers needs --spool")
        return 2
    jobs = [CheckJob(scenario=scenario, mechanism=mechanism,
                     cores=args.cores, lines=args.lines,
                     unsound=args.unsound_auth, max_depth=args.depth,
                     max_states=args.max_states, max_cycles=args.max_cycles,
                     fuzz_runs=args.fuzz, seed=args.seed,
                     topology=args.topology, dir_shards=args.dir_shards,
                     dram_channels=args.dram_channels,
                     link_latency=args.link_latency, model=args.model,
                     por=args.por, spool=args.spool,
                     dist_workers=args.dist_workers)
            for scenario in scenarios for mechanism in mechanisms]
    reports = run_checks(jobs, workers=args.workers)
    failures = 0
    for report in reports:
        if isinstance(report, TaskFailure):
            failures += 1
            print(f"ERROR {report.label}: {report.kind}: {report.message}")
            continue
        print(report.summary())
        if report.violation is not None:
            failures += 1
            print(report.violation.describe())
            print()
    total = len(reports)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


def _cmd_faults(args) -> int:
    import json as _json

    from .faults.campaign import (render_results, run_campaigns,
                                  sweep_specs)
    from .sim.progress import ProgressDump
    mechanisms = MECHANISMS if args.mechanism == "all" \
        else (args.mechanism,)
    intensities = ("low", "medium", "high") if args.intensity == "all" \
        else (args.intensity,)
    specs = sweep_specs(seeds=range(args.seed, args.seed + args.seeds),
                        mechanisms=mechanisms, intensities=intensities,
                        cores=args.cores, ops_per_core=args.ops,
                        retry_policy=args.retry, topology=args.topology,
                        dir_shards=args.dir_shards,
                        dram_channels=args.dram_channels,
                        link_latency=args.link_latency,
                        model=args.model)
    results = run_campaigns(specs, workers=args.workers)
    print(render_results(results))
    failures = [r for r in results if not r.ok]
    for res in failures:
        if res.dump is not None:
            print()
            print(ProgressDump.from_dict(res.dump).render())
    if args.manifest:
        payload = {"version": 1,
                   "ok": not failures,
                   "campaigns": [r.to_dict() for r in results]}
        with open(args.manifest, "w") as handle:
            _json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.manifest}")
    return 1 if failures else 0


#: ``repro trace`` workload presets: alias -> (bench, cores, uops/core).
#: Small on purpose — a trace of every event is far heavier than a run.
TRACE_PRESETS = {
    "parsec-small": ("canneal", 4, 4_000),
    "parsec-tiny": ("streamcluster", 2, 2_000),
    "spec-small": ("505.mcf", 1, 8_000),
}


def _cmd_trace(args) -> int:
    import json
    import time
    from pathlib import Path

    from .harness.parallel import PointTiming, SweepTelemetry
    from .harness.report import render_telemetry
    from .observe import Tracer, validate_chrome_trace
    from .sim.system import System
    from .workloads import make_parallel_traces

    bench, cores, length = TRACE_PRESETS.get(
        args.workload, (args.workload, args.cores, args.length))
    config = table_i().with_mechanism(args.mechanism) \
        .with_sb_size(args.sb).with_cores(cores)
    traces = make_parallel_traces(bench, cores, length, args.seed)
    system = System(config, traces, workload=args.workload)
    tracer = Tracer(system, interval=args.interval,
                    max_events=args.max_events).attach()
    telemetry = SweepTelemetry(workers=1, points_total=1)
    started = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - started
    telemetry.wall_seconds = elapsed
    telemetry.timings.append(PointTiming(
        f"{args.workload}/{args.mechanism}/sb{args.sb}", elapsed,
        sum(core.committed for core in result.cores)))
    tracer.finalize()
    doc = tracer.chrome_trace(args.workload, args.mechanism)
    problems = validate_chrome_trace(doc)
    out = Path(args.out if args.out else
               f"{args.workload}-{args.mechanism}.trace.json")
    with out.open("w") as fh:
        json.dump(doc, fh)
    print(tracer.summary())
    print()
    print(render_telemetry(telemetry))
    print()
    print(f"wrote {len(doc['traceEvents'])} trace events to {out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    if problems:
        print(f"TRACE INVALID ({len(problems)} problem(s)):",
              file=sys.stderr)
        for problem in problems[:10]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    reconciled = tracer.reconcile()
    return 0 if reconciled["ok"] else 1


def _cmd_bench(args) -> int:
    for name, profile in sorted(all_profiles().items()):
        bound = "SB-bound" if profile.sb_bound else "        "
        print(f"{name:22} {profile.suite:9} {bound}  "
              f"{profile.description}")
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from .service import Service, ServiceConfig

    config = ServiceConfig(data_dir=args.data_dir, host=args.host,
                           port=args.port, workers=args.service_workers,
                           max_backlog=args.backlog,
                           max_attempts=args.max_attempts,
                           lease_seconds=args.lease,
                           poll_interval=args.poll_interval,
                           monitor_interval=args.monitor_interval,
                           fsync=args.fsync,
                           tmp_sweep_age=args.tmp_sweep_age)
    service = Service(config)
    url = service.start()
    print(f"repro service listening on {url}")
    print(f"  data dir   {args.data_dir}")
    print(f"  workers    {args.service_workers}   "
          f"backlog {args.backlog}")
    print(f"  submit     POST {url}/api/v1/jobs")
    print(f"  metrics    GET  {url}/metrics")
    done = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: done.set())
    done.wait()
    print("draining and shutting down ...")
    service.stop()
    return 0


def _cmd_fsck(args) -> int:
    import json as _json

    from .durability.fsck import fsck

    report = fsck(args.path, repair=args.repair, tmp_age=args.tmp_age)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=1))
    else:
        print(report.render())
    return 0 if not report.unrepaired else 1


def _cmd_chaos(args) -> int:
    import json as _json

    from .durability.campaign import (SCENARIOS, render_results,
                                      run_chaos)

    scenarios = args.scenario or None
    seeds = range(args.seed, args.seed + args.seeds)
    results = run_chaos(seeds=seeds, scenarios=scenarios,
                        base_dir=args.work_dir)
    print(render_results(results))
    failures = [r for r in results if not r.ok]
    for res in failures:
        print()
        print(f"{res.scenario} seed {res.seed}:")
        for check in res.checks:
            mark = "ok " if check["ok"] else "FAIL"
            detail = f"  {check['detail']}" if check["detail"] else ""
            print(f"  [{mark}] {check['name']}{detail}")
        if res.error:
            print(f"  error: {res.error}")
    if args.manifest:
        payload = {"version": 1,
                   "ok": not failures,
                   "scenarios": list(SCENARIOS),
                   "results": [r.to_dict() for r in results]}
        with open(args.manifest, "w") as handle:
            _json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.manifest}")
    return 1 if failures else 0


def _cmd_submit(args) -> int:
    import json as _json

    from .service.client import ServiceClient

    if args.file:
        with open(args.file) as handle:
            spec = _json.load(handle)
    else:
        spec = _json.loads(args.spec) if args.spec else {}
    client = ServiceClient(args.url)
    status, body = client.submit(args.kind, spec, priority=args.priority)
    if status == 429:
        print(f"shed (429): {body.get('error')}", file=sys.stderr)
        return 3
    if status not in (200, 202):
        print(f"HTTP {status}: {body.get('error')}", file=sys.stderr)
        return 2
    job_id = body["id"]
    print(f"job {job_id} {body['status']}"
          + (" (deduplicated)" if not body.get("created") else ""))
    if not args.wait:
        return 0
    record = client.wait(job_id, timeout=args.timeout)
    print(f"job {job_id} {record['status']} "
          f"(attempts {record['attempts']}, "
          f"latency {record['latency'] or 0:.2f}s)")
    if record["status"] != "done":
        error = record.get("error") or {}
        print(f"  {error.get('type')}: {error.get('message')}",
              file=sys.stderr)
        if error.get("progress_dump"):
            from .sim.progress import ProgressDump
            print(ProgressDump.from_dict(error["progress_dump"])
                  .render(), file=sys.stderr)
        return 1
    print(_json.dumps(client.result(job_id)["payload"], indent=1,
                      sort_keys=True))
    return 0


def _cmd_loadtest(args) -> int:
    from .service import (Service, ServiceConfig, demo_scenario,
                          parse_prometheus_text)
    from .service.client import ServiceClient

    service = None
    if args.url:
        url = args.url
    else:
        import tempfile
        data_dir = args.data_dir or tempfile.mkdtemp(
            prefix="repro-loadtest-")
        service = Service(ServiceConfig(
            data_dir=data_dir, port=0, workers=args.service_workers,
            max_backlog=args.backlog))
        url = service.start()
        print(f"booted service at {url} (data dir {data_dir})")
    try:
        verdicts = demo_scenario(
            url, clients=args.clients, jobs_per_client=args.jobs,
            duration_ms=args.duration_ms,
            real_sweep=not args.no_real_sweep,
            overload_jobs=args.overload, log=print)
        # The metrics endpoint must stay parseable under load.
        families = parse_prometheus_text(ServiceClient(url).metrics())
        required = ("repro_queue_depth", "repro_jobs_inflight",
                    "repro_worker_utilization", "repro_jobs_total",
                    "repro_jobs_shed_total", "repro_job_latency_seconds")
        missing = [name for name in required if name not in families]
        drained = True
        if service is not None:
            drained = service.drain(timeout=30.0)
        print()
        for phase in ("throughput", "dedup", "overload"):
            if phase in verdicts:
                status = "PASS" if verdicts[phase]["ok"] else "FAIL"
                print(f"{phase:12} {status}")
        print(f"{'metrics':12} "
              + ("PASS" if not missing else f"FAIL (missing {missing})"))
        print(f"{'drained':12} " + ("PASS" if drained else "FAIL"))
        ok = verdicts["ok"] and not missing and drained
        print(f"loadtest {'PASSED' if ok else 'FAILED'}")
        return 0 if ok else 1
    finally:
        if service is not None:
            service.stop()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Temporarily Unauthorized Stores' "
                    "(MICRO 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_machine_args(p):
        """Scaled-machine knobs (defaults keep the original layout)."""
        p.add_argument("--topology", default="p2p", choices=TOPOLOGIES,
                       help="interconnect layout (default p2p: the "
                            "original zero-hop timing)")
        p.add_argument("--dir-shards", type=int, default=1,
                       help="directory home nodes (power of two)")
        p.add_argument("--dram-channels", type=int, default=1,
                       help="DRAM channels (power of two)")
        p.add_argument("--link-latency", type=int, default=1,
                       help="cycles per interconnect hop")

    def add_sim_args(p):
        p.add_argument("--bench", default="502.gcc5",
                       help="benchmark name (see `repro bench`)")
        p.add_argument("--sb", type=int, default=114,
                       help="store-buffer entries (paper sweeps 32/64/114)")
        p.add_argument("--length", type=int, default=30_000,
                       help="trace length in micro-ops")
        p.add_argument("--seed", type=int, default=42)

    run_p = sub.add_parser("run", help="simulate one configuration")
    add_sim_args(run_p)
    run_p.add_argument("--mechanism", default="tus", choices=MECHANISMS)
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="all mechanisms side by side")
    add_sim_args(cmp_p)
    cmp_p.set_defaults(fn=_cmd_compare)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", help="fig8..fig15, writes, dse, sbcost")
    fig_p.set_defaults(fn=_cmd_figure)

    sweep_p = sub.add_parser(
        "sweep", help="regenerate figures via the parallel harness")
    sweep_p.add_argument("name",
                         help="fig8..fig15, writes, dse, or 'all'")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: all cores, or "
                              "$REPRO_WORKERS)")
    sweep_p.add_argument("--benches", nargs="+", default=None,
                         help="restrict the figure to these benchmarks")
    sweep_p.add_argument("--cache", default=None,
                         help="result cache directory (default: "
                              "$REPRO_CACHE or ./.repro_cache)")
    sweep_p.add_argument("--no-disk-cache", action="store_true",
                         help="simulate every point, ignore the cache")
    sweep_p.add_argument("--st-length", type=int, default=None,
                         help="single-thread trace length (uops)")
    sweep_p.add_argument("--par-length", type=int, default=None,
                         help="per-core trace length for parallel runs")
    sweep_p.add_argument("--simpoints", type=int, default=None,
                         help="simpoints per single-thread benchmark")
    sweep_p.add_argument("--parsec-simpoints", type=int, default=None,
                         help="simpoints per parallel benchmark")
    sweep_p.add_argument("--cores", type=int, default=None,
                         help="cores for parallel benchmarks")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--export-dir", default=None,
                         help="write CSV/JSON results + telemetry here")
    sweep_p.set_defaults(fn=_cmd_sweep)

    from .models import available_models
    model_names = tuple(available_models())

    lit_p = sub.add_parser("litmus", help="memory-model litmus checks")
    lit_p.add_argument("--mechanism", default="all",
                       choices=MECHANISMS + ("all",),
                       help="check one store-path model (default: all)")
    lit_p.add_argument("--model", default="tso", choices=model_names,
                       help="base consistency model (default: tso)")
    lit_p.set_defaults(fn=_cmd_litmus)

    models_p = sub.add_parser(
        "models", help="list the registered memory models")
    models_p.set_defaults(fn=_cmd_models)

    chk_p = sub.add_parser(
        "check", help="model-check protocol invariants exhaustively")
    chk_p.add_argument("--scenario", default="all",
                       help="scenario name or 'all' (see repro.modelcheck"
                            ".SCENARIOS)")
    chk_p.add_argument("--mechanism", default="all",
                       choices=MECHANISMS + ("all",))
    chk_p.add_argument("--cores", type=int, default=2,
                       help="cores in the reduced system (2-3 is "
                            "exhaustively tractable)")
    chk_p.add_argument("--lines", type=int, default=2,
                       help="distinct cache lines the scenario touches")
    chk_p.add_argument("--depth", type=int, default=64,
                       help="max decisions per schedule before truncation")
    chk_p.add_argument("--max-states", type=int, default=100_000,
                       help="execution budget before truncation")
    chk_p.add_argument("--max-cycles", type=int, default=20_000,
                       help="per-run cycle budget (deadlock backstop)")
    chk_p.add_argument("--fuzz", type=int, default=0, metavar="RUNS",
                       help="swarm mode: this many random schedules "
                            "instead of exhaustive BFS")
    chk_p.add_argument("--seed", type=int, default=0,
                       help="base seed for --fuzz schedules")
    chk_p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all cores, or "
                            "$REPRO_WORKERS)")
    chk_p.add_argument("--unsound-auth", action="store_true",
                       help="revert the atomic-group authorization fix "
                            "(expect a wait-graph counterexample)")
    chk_p.add_argument("--model", default="tso", choices=model_names,
                       help="base consistency model; gates which "
                            "invariants apply (default tso)")
    from .modelcheck import POR_MODES
    chk_p.add_argument("--por", default="off", choices=POR_MODES,
                       help="partial-order reduction: sleep sets or "
                            "persistent sets (default off: the exact "
                            "unreduced BFS)")
    chk_p.add_argument("--spool", default=None, metavar="DIR",
                       help="durable frontier spool; re-running with "
                            "the same spool resumes a killed check")
    chk_p.add_argument("--dist-workers", type=int, default=0,
                       metavar="N",
                       help="shard the frontier across N worker "
                            "processes sharing --spool")
    add_machine_args(chk_p)
    chk_p.set_defaults(fn=_cmd_check)

    trace_p = sub.add_parser(
        "trace", help="record a Perfetto-compatible store-lifecycle trace")
    trace_p.add_argument("--workload", default="parsec-small",
                         help="preset (%s) or any benchmark name"
                              % ", ".join(sorted(TRACE_PRESETS)))
    trace_p.add_argument("--mechanism", default="tus", choices=MECHANISMS)
    trace_p.add_argument("--sb", type=int, default=114,
                         help="store-buffer entries")
    trace_p.add_argument("--cores", type=int, default=1,
                         help="cores (ignored for presets)")
    trace_p.add_argument("--length", type=int, default=8_000,
                         help="uops per core (ignored for presets)")
    trace_p.add_argument("--interval", type=int, default=500,
                         help="occupancy sampling interval (cycles)")
    trace_p.add_argument("--max-events", type=int, default=2_000_000,
                         help="event-capture cap (keeps files bounded)")
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument("--out", default=None,
                         help="output path (default: "
                              "<workload>-<mechanism>.trace.json)")
    trace_p.set_defaults(fn=_cmd_trace)

    faults_p = sub.add_parser(
        "faults",
        help="deterministic fault-injection campaigns with invariant "
             "checks and a fault-free differential oracle")
    faults_p.add_argument("--seeds", type=int, default=10,
                          help="number of consecutive seeds per "
                               "(mechanism, intensity) cell (default 10)")
    faults_p.add_argument("--seed", type=int, default=0,
                          help="first seed of the range (default 0)")
    faults_p.add_argument("--mechanism", default="tus",
                          choices=MECHANISMS + ("all",))
    faults_p.add_argument("--intensity", default="medium",
                          choices=("low", "medium", "high", "all"))
    faults_p.add_argument("--cores", type=int, default=2)
    faults_p.add_argument("--ops", type=int, default=24,
                          help="micro-ops per core in the synthetic "
                               "workload (default 24)")
    faults_p.add_argument("--retry", default="backoff",
                          choices=("fixed", "backoff"),
                          help="directory retry policy under test "
                               "(default backoff)")
    faults_p.add_argument("--workers", type=int, default=1,
                          help="campaign worker processes (default 1)")
    faults_p.add_argument("--manifest", default=None, metavar="PATH",
                          help="write the machine-readable campaign "
                               "manifest here")
    faults_p.add_argument("--model", default="tso", choices=model_names,
                          help="base consistency model; gates which "
                               "invariants and oracle legs apply "
                               "(default tso)")
    add_machine_args(faults_p)
    faults_p.set_defaults(fn=_cmd_faults)

    bench_p = sub.add_parser("bench", help="list workload profiles")
    bench_p.set_defaults(fn=_cmd_bench)

    serve_p = sub.add_parser(
        "serve",
        help="run the long-lived simulation service (REST job API, "
             "disk queue, worker fleet, /metrics)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    serve_p.add_argument("--data-dir", default=".repro_service",
                         help="durable service state: queue, job "
                              "records, artifact store")
    serve_p.add_argument("--service-workers", type=int, default=2,
                         metavar="N", help="worker processes")
    serve_p.add_argument("--backlog", type=int, default=64,
                         help="pending jobs beyond which submissions "
                              "are shed with 429")
    serve_p.add_argument("--max-attempts", type=int, default=3,
                         help="execution attempts per job before it "
                              "fails terminally")
    serve_p.add_argument("--lease", type=float, default=600.0,
                         help="seconds before a claimed job with a "
                              "live worker is presumed hung and "
                              "requeued")
    serve_p.add_argument("--fsync", action="store_true",
                         help="fsync every durable record (and its "
                              "directory) before the rename publishes "
                              "it; survives power loss, costs "
                              "throughput")
    serve_p.add_argument("--tmp-sweep-age", type=float, default=60.0,
                         metavar="SECONDS",
                         help="age before an orphaned .tmp file is "
                              "reclaimed when a store opens")
    serve_p.add_argument("--poll-interval", type=float, default=0.05,
                         metavar="SECONDS",
                         help="worker queue poll interval")
    serve_p.add_argument("--monitor-interval", type=float,
                         default=0.25, metavar="SECONDS",
                         help="fleet reap / lease / lost-entry repair "
                              "cadence")
    serve_p.set_defaults(fn=_cmd_serve)

    fsck_p = sub.add_parser(
        "fsck",
        help="scan a service data dir / frontier spool / cache dir "
             "for crash debris and optionally repair it")
    fsck_p.add_argument("path", help="directory to scan (layout is "
                                     "auto-detected)")
    fsck_p.add_argument("--repair", action="store_true",
                        help="fix what is safe: reclaim tmp orphans, "
                             "quarantine or rebuild corrupt records, "
                             "requeue dangling claims and lost "
                             "entries")
    fsck_p.add_argument("--tmp-age", type=float, default=60.0,
                        metavar="SECONDS",
                        help="age before a .tmp file counts as an "
                             "orphan (protects live writers)")
    fsck_p.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    fsck_p.set_defaults(fn=_cmd_fsck)

    chaos_p = sub.add_parser(
        "chaos",
        help="run the seeded crash-consistency drills against "
             "throwaway service / spool / cache instances")
    chaos_p.add_argument("--seeds", type=int, default=3, metavar="N",
                         help="number of seeds to drill")
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="first seed")
    chaos_p.add_argument("--scenario", action="append", default=None,
                         metavar="NAME",
                         help="run only this scenario (repeatable); "
                              "default: all")
    chaos_p.add_argument("--work-dir", default=None, metavar="PATH",
                         help="where drill state is staged (default: "
                              "a fresh temp dir)")
    chaos_p.add_argument("--manifest", default=None, metavar="PATH",
                         help="write a JSON manifest of every drill "
                              "and check")
    chaos_p.set_defaults(fn=_cmd_chaos)

    from .service.jobs import JOB_KINDS

    submit_p = sub.add_parser(
        "submit", help="submit one job to a running service")
    submit_p.add_argument("kind", choices=JOB_KINDS)
    submit_p.add_argument("--url", default="http://127.0.0.1:8080",
                          help="service base URL")
    submit_p.add_argument("--spec", default=None,
                          help="job spec as inline JSON")
    submit_p.add_argument("--file", default=None,
                          help="job spec from a JSON file")
    submit_p.add_argument("--priority", default="normal",
                          choices=("high", "normal", "low"))
    submit_p.add_argument("--wait", action="store_true",
                          help="poll until terminal and print the "
                               "result payload")
    submit_p.add_argument("--timeout", type=float, default=600.0,
                          help="--wait poll budget (seconds)")
    submit_p.set_defaults(fn=_cmd_submit)

    load_p = sub.add_parser(
        "loadtest",
        help="synthetic multi-client load test: throughput, dedup, "
             "and 429 shedding against a bounded backlog")
    load_p.add_argument("--url", default=None,
                        help="drive an already-running service instead "
                             "of booting a private one")
    load_p.add_argument("--data-dir", default=None,
                        help="data dir for the private service "
                             "(default: a fresh temp dir)")
    load_p.add_argument("--service-workers", type=int, default=2,
                        metavar="N", help="workers of the private "
                                          "service")
    load_p.add_argument("--backlog", type=int, default=8,
                        help="backlog bound of the private service "
                             "(small on purpose so the overload phase "
                             "can shed)")
    load_p.add_argument("--clients", type=int, default=4,
                        help="concurrent synthetic clients")
    load_p.add_argument("--jobs", type=int, default=6,
                        help="jobs per client in the throughput phase")
    load_p.add_argument("--duration-ms", type=int, default=20,
                        help="synthetic job execution time")
    load_p.add_argument("--overload", type=int, default=6,
                        help="slow jobs per client in the overload "
                             "phase (0 disables it)")
    load_p.add_argument("--no-real-sweep", action="store_true",
                        help="use synthetic jobs (not a tiny figure "
                             "sweep) for the dedup phase")
    load_p.set_defaults(fn=_cmd_loadtest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":   # pragma: no cover
    raise SystemExit(main())
