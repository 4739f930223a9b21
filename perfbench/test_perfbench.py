"""The benchmark's own tests.

    python3 -m unittest perfbench.test_perfbench    # from the repo root

Metric declarations and the layer -> end-to-end map against
``BENCHMARK.json``; a wrong pinned fingerprint counted as a failed
operation; a tiny-scale smoke run of every workload, untraced and
traced; ``service-sweep`` stopping every process it started; and a
checkout without the program failing without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: The per-layer metric that shows a layer doing work at all.
LAYER_BUSY = {
    "sim": "sim.self_s", "cpu": "cpu.self_s",
    "mechanisms": "mechanisms.self_s", "core": "core.self_s",
    "coherence": "coherence.self_s", "mem": "mem.self_s",
    "events": "events.self_s", "stats": "stats.self_s",
    "workloads": "workloads.trace_s", "modelcheck": "modelcheck.self_s",
    "harness": "harness.simulate_s", "service": "service.submit_s_p50",
    "durability": "durability.read_s",
}


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class Declarations(unittest.TestCase):
    def test_metric_names_and_units_match_the_code(self):
        bench = declared()
        for key in ("workloads", "end_to_end", "per_layer"):
            for entry in bench[key]:
                self.assertTrue(NAME.fullmatch(entry["name"]), entry)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         layers.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         layers.UNITS)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(workloads.WORKLOADS))
        self.assertEqual(set(layers.LOCAL_NAMES), set(workloads.WORKLOADS))

    def test_every_layer_names_a_declared_metric_and_workload(self):
        bench = declared()
        e2e = {m["name"] for m in bench["end_to_end"]}
        names = {w["name"] for w in bench["workloads"]}
        self.assertEqual(set(layers.SHOULD_MOVE), set(layers.LAYERS))
        self.assertEqual(set(LAYER_BUSY), set(layers.LAYERS))
        for layer, targets in layers.SHOULD_MOVE.items():
            self.assertTrue(targets, layer)
            for metric, workload in targets:
                self.assertIn(metric, e2e, layer)
                self.assertIn(workload, names, layer)


class Pins(unittest.TestCase):
    def measure(self, pins: dict) -> dict:
        workload = workloads.CheckMatrix(0, "tiny",
                                         pins={"check-matrix": pins})
        with contextlib.redirect_stdout(io.StringIO()):
            return run.measure(workload, 0.0, False, [1.0])

    def test_wrong_pinned_fingerprint_is_a_failed_operation(self):
        good = {}
        for op in workloads.CheckMatrix(0, "tiny", pins={}).ops():
            outcome = op()
            good[outcome.label] = outcome.digest
        right = self.measure(good)
        self.assertEqual(right["failed"], 0)
        result = self.measure(dict(good, **{"sb/off": "0" * 64}))
        self.assertEqual(result["attempted"], len(good))
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])


class Smoke(unittest.TestCase):
    def result(self, workload: str, trace: int) -> dict:
        proc = run_tiny(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 0)["metrics"]
                self.assertEqual(set(metrics), set(layers.E2E_UNITS))
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_cover_the_layers_they_should_move(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 1)["metrics"]
                self.assertEqual(set(metrics), set(layers.UNITS))
                self.assertEqual(metrics["trace.counts_repeat"]["value"], 1)
                for layer, targets in layers.SHOULD_MOVE.items():
                    if any(w == workload for _, w in targets):
                        self.assertGreater(
                            metrics[LAYER_BUSY[layer]]["value"], 0, layer)


class Lifecycle(unittest.TestCase):
    def test_service_sweep_leaves_no_process_behind(self):
        from multiprocessing import active_children, resource_tracker
        workload = workloads.ServiceSweep(3, "tiny")
        try:
            workload.start()
            started = workload.child_pids()
            started.append(resource_tracker._resource_tracker._pid)
        finally:
            workload.stop()
        self.assertEqual(len(started), 2)
        self.assertEqual(active_children(), [])
        for pid in started:
            with self.assertRaises(ProcessLookupError):
                os.kill(pid, 0)


class BareCheckout(unittest.TestCase):
    def test_fails_without_a_result_when_the_program_is_missing(self):
        bare = workloads.TMP_ROOT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            shutil.copy(workloads.PINS_PATH, bare / "perfbench")
            proc = run_tiny("spec-1core", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
