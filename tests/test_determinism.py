"""Bit-identical determinism of the simulation kernel.

The perf work (bucketed event queue, staleness skipping, cached wake
cycles) is only admissible because the simulated machine is unchanged;
these tests pin that down: the same configuration and seed must produce
a byte-identical canonical result, run after run, in this process or in
a worker process.  Every benchmark fingerprint in ``BENCH_4.json``
relies on this property.
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.common.config import scaled_config, table_i
from repro.modelcheck import explore
from repro.sim.system import System
from repro.workloads import make_parallel_traces, make_trace

from .test_models_registry import BENCH_4_MACRO, BENCH_4_MODELCHECK_SLICE


def _simulate_payload(payload):
    """Build and run one system from primitives (must be a module-level
    function so a process pool can pickle it).  A sixth ``"scaled"``
    element selects the scaled machine (mesh interconnect, sharded
    directory, multi-channel DRAM) instead of the Table I layout."""
    bench, mechanism, cores, length, seed = payload[:5]
    base = scaled_config(cores) if "scaled" in payload[5:] \
        else table_i().with_cores(cores)
    config = base.with_mechanism(mechanism).with_sb_size(114)
    if cores == 1:
        traces = [make_trace(bench, length, seed)]
    else:
        traces = make_parallel_traces(bench, cores, length, seed)
    result = System(config, traces, workload=bench).run()
    return hashlib.sha256(result.canonical_json().encode()).hexdigest()


SINGLE = ("502.gcc5", "tus", 1, 4_000, 42)
PARALLEL = ("canneal", "tus", 2, 1_500, 42)
SCALED = ("canneal", "tus", 16, 300, 42, "scaled")


class TestInProcessDeterminism:
    def test_single_core_repeat(self):
        assert _simulate_payload(SINGLE) == _simulate_payload(SINGLE)

    def test_parallel_repeat(self):
        assert _simulate_payload(PARALLEL) == _simulate_payload(PARALLEL)

    def test_scaled_machine_repeat(self):
        # The 16-core mesh/sharded/NUMA machine must be as reproducible
        # as the default layout (macro.canneal_16 pins its fingerprint).
        assert _simulate_payload(SCALED) == _simulate_payload(SCALED)

    def test_scaled_machine_differs_from_flat(self):
        # Sanity: the topology layer is live — the same workload on the
        # p2p machine must not produce the scaled machine's result.
        flat = ("canneal", "tus", 16, 300, 42)
        assert _simulate_payload(SCALED) != _simulate_payload(flat)

    def test_mechanisms_differ(self):
        # Sanity: the fingerprint is sensitive — a different store path
        # must not collide with the TUS result.
        base = ("502.gcc5", "baseline", 1, 4_000, 42)
        assert _simulate_payload(SINGLE) != _simulate_payload(base)


class TestBench4MacroFingerprints:
    """The BENCH_4 macro points (full sizes), re-simulated: the kernel
    still produces the results pinned when they were first
    benchmarked."""

    @pytest.mark.parametrize("name,payload", [
        ("macro.spec_single", ("502.gcc5", "tus", 1, 20_000, 42)),
        ("macro.parsec_4core", ("canneal", "tus", 4, 6_000, 42)),
        ("macro.canneal_16", ("canneal", "tus", 16, 1_500, 42, "scaled")),
    ])
    def test_matches_pin(self, name, payload):
        assert _simulate_payload(payload) == BENCH_4_MACRO[name]

    def test_modelcheck_slice_matches_pin(self):
        # macro.modelcheck_slice: the controlled scheduler and state
        # hashing still explore the state space counted at BENCH_4.
        report = explore("overlap", "tus", cores=2, lines=2,
                         max_states=200)
        assert {"unique_states": report.unique_states,
                "terminal_states": report.terminal_states,
                "executions": report.executions} \
            == BENCH_4_MODELCHECK_SLICE


class TestCrossProcessDeterminism:
    def test_worker_matches_parent(self):
        here = _simulate_payload(PARALLEL)
        with ProcessPoolExecutor(max_workers=1) as pool:
            there = pool.submit(_simulate_payload, PARALLEL).result()
        assert here == there

    def test_scaled_worker_matches_parent(self):
        here = _simulate_payload(SCALED)
        with ProcessPoolExecutor(max_workers=1) as pool:
            there = pool.submit(_simulate_payload, SCALED).result()
        assert here == there
