"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload spec-1core --seed 42 \\
        --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` whole passes of the
workload run untraced until ``--seconds`` have passed and the
end-to-end metrics are printed; with ``--trace 1`` an untraced
reference block is followed by traced blocks of the same operations,
and the per-layer table is printed.  Lines starting with ``#`` are
human-readable detail; the last line is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.speed import REFERENCE_S, Speed, at_reference  # noqa: E402

#: Candidate tail percentiles, highest first; the tail is the highest
#: one with at least ten samples beyond it (else the maximum).
TAIL_PERCENTILES = (99, 95, 90, 75)
#: Fresh processes timed per run for ``setup_s`` (the median is kept).
SETUP_RUNS = 5
#: Traced blocks per traced run at least, so exact counts can repeat.
MIN_TRACED_BLOCKS = 2
#: End-to-end metrics with a workload-specific name.
E2E_NAMED = ("op_s_p50", "work_per_s")


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q / 100 * len(ordered)) - 1))
    return ordered[index]


def tail(values):
    """(percentile, value): highest percentile with >= 10 samples
    beyond it; the maximum (percentile 100) when there are too few."""
    for q in TAIL_PERCENTILES:
        if len(values) * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return 100, max(values)


def peak_rss_mb(workload) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return own + getattr(workload, "worker_rss_mb", 0.0)


def run_passes(workload, seconds: float, speed: Speed):
    """Closed loop over whole passes, until ``seconds`` have passed.
    Every operation goes through ``speed``, which scales its times to
    reference speed.  Returns the outcomes and the number of passes."""
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in workload.ops(index):
            op_start = time.perf_counter()
            outcomes.append(op())
            speed.add(outcomes[-1], time.perf_counter() - op_start)
        index += 1
        if time.perf_counter() - start >= seconds:
            speed.close()
            return outcomes, index


def median_op_latency(outcomes) -> float:
    """The median over operations of each one's median latency.  A pass
    mixes operations of very different lengths, often with a gap at the
    middle, so the median of all samples would jump across that gap
    from run to run."""
    by_label = {}
    for o in outcomes:
        if o.timed:
            by_label.setdefault(o.label, []).append(o.seconds)
    return statistics.median(statistics.median(latencies)
                             for latencies in by_label.values())


def end_to_end(outcomes, walls: list, setup: list, rss: float):
    """The declared metrics; times are at reference speed."""
    return {
        "setup_s": statistics.median(setup),
        "op_s_p50": median_op_latency(outcomes),
        "work_per_s": sum(o.work for o in outcomes) / sum(walls),
        "peak_rss_mb": rss,
    }


def traced(workload, seconds: float):
    """An untraced reference block (the head of pass 0), then traced
    blocks (the head of pass 1, 2, ...) until ``seconds`` have passed."""
    size = workload.trace_block
    start = time.perf_counter()
    reference = [op() for op in workload.ops(0)[:size]]
    ref_wall = time.perf_counter() - start
    recorder = Recorder()
    recorder.install()
    blocks = []
    try:
        while (len(blocks) < MIN_TRACED_BLOCKS
               or time.perf_counter() - start < seconds):
            ops = [recorder.root(op)
                   for op in workload.ops(len(blocks) + 1)[:size]]
            fresh_before = len(getattr(workload, "fresh", []))
            fig10_before = len(getattr(workload, "fig10", []))
            recorder.reset()
            block_start = time.perf_counter()
            outcomes = [op() for op in ops]
            wall = time.perf_counter() - block_start
            blocks.append({
                "wall": wall, "outcomes": outcomes,
                "rec": recorder.take(),
                "jobs": (getattr(workload, "fresh", [])[fresh_before:]
                         + getattr(workload, "fig10", [])[fig10_before:]),
            })
    finally:
        recorder.uninstall()
    return reference, ref_wall, blocks


def measure(workload, seconds: float, trace: bool, setup: list) -> dict:
    """Run ``workload`` and return the result object; prints detail
    lines (``#``) on the way.  ``setup`` holds set-up times at
    reference speed (see ``speed``)."""
    try:
        workload.start()
        if trace:
            reference, ref_wall, blocks = traced(workload, seconds)
            outcomes = reference + [o for b in blocks
                                    for o in b["outcomes"]]
        else:
            speed = Speed()
            outcomes, passes = run_passes(workload, seconds, speed)
        failures = [o.note for o in outcomes if not o.ok] + workload.finish()
    finally:
        workload.stop()

    if trace:
        metrics = layers.layer_metrics(workload, ref_wall, blocks)
        units = layers.UNITS
        if not metrics["trace.counts_repeat"]:
            failures.append("exact counts differ between traced blocks")
        if metrics["trace.reconcile_err"] > layers.RECONCILE_TOLERANCE:
            failures.append("program layers leave more than "
                            f"{layers.RECONCILE_TOLERANCE:.0%} of the "
                            "traced wall time unattributed")
    else:
        metrics = end_to_end(outcomes, speed.walls, setup,
                             peak_rss_mb(workload))
        units = layers.E2E_UNITS
        names = layers.LOCAL_NAMES[workload.name]
        q, tail_value = tail([o.seconds for o in outcomes if o.timed])
        print(f"# {passes} passes, {len(outcomes)} operations, "
              f"{sum(speed.walls):.3f} s at reference speed; setup_s is "
              f"the median of {len(setup)}")
        loop = statistics.fmean(speed.samples)
        print(f"# speed loop {loop * 1e3:.3f} ms on average "
              f"({len(speed.samples)} samples), reference "
              f"{REFERENCE_S * 1e3:.3f} ms: this host ran "
              f"{loop / REFERENCE_S:.3f}x slower than the reference")
        print(f"# {names['op_s_tail']} (op_s_tail, p{q}) {tail_value:.6g} s")
        for key in E2E_NAMED:
            print(f"# {names[key]} = {key}")
        # Untimed operations (service jobs), by kind.
        kinds = {}
        for o in outcomes:
            if not o.timed:
                kinds.setdefault(o.label.split("/")[0], []).append(o.seconds)
        for kind, values in kinds.items():
            q, tail_value = tail(values)
            print(f"# {kind} jobs: p50 {statistics.median(values):.6g} s, "
                  f"p{q} {tail_value:.6g} s over {len(values)}")
    failed = min(len(outcomes), len(failures))
    for note in failures:
        print(f"# FAILED {note}")
    print(f"# failed_frac {failed / len(outcomes):.6g}")
    for key, value in metrics.items():
        print(f"# {key} {value:.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="full",
                        help="trace sizes; 'tiny' is the smoke test's")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if args.setup_probe:
        workload.setup_probe(lambda: print("ready", flush=True))
        return 0
    setup = [] if args.trace else [
        at_reference(lambda: workloads.probe_setup(args.workload, args.seed,
                                                   args.scale))
        for _ in range(SETUP_RUNS)]
    print(json.dumps(measure(workload, args.seconds, bool(args.trace),
                             setup)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
