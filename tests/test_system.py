"""The system loop: warmup, fast-forward, determinism, results."""

import pytest

from repro.common.config import MECHANISMS, table_i
from repro.common.errors import ConfigError
from repro.common.stats import NULL_STATS
from repro.cpu.isa import alu, load, store
from repro.cpu.trace import Trace
from repro.modelcheck.scenarios import check_config
from repro.sim.results import SimResult
from repro.sim.system import System, run_single
from repro.workloads import make_parallel_traces


def mixed_trace(name="m", n=600, seed_lines=32):
    uops = []
    for i in range(n):
        if i % 5 == 0:
            uops.append(store(0x90_0000 + (i % seed_lines) * 64
                              + (i % 8) * 8))
        elif i % 3 == 0:
            uops.append(load(0xA0_0000 + (i % 64) * 64))
        else:
            uops.append(alu())
    return Trace(name, uops)


class TestConstruction:
    def test_trace_count_must_match_cores(self):
        with pytest.raises(ConfigError):
            System(table_i().with_cores(2), [mixed_trace()])

    def test_single_helper(self):
        result = run_single(table_i(), mixed_trace())
        assert isinstance(result, SimResult)


class TestRun:
    def test_runs_to_completion(self):
        result = run_single(table_i(), mixed_trace())
        assert result.committed == 600

    def test_max_cycles_caps(self):
        system = System(table_i(), [mixed_trace(n=5000)])
        result = system.run(max_cycles=50)
        assert result.cycles <= 50

    def test_fast_forward_preserves_cycle_accuracy(self):
        # A trace dominated by one long DRAM store miss: the cycle count
        # must include the full miss latency even though the host loop
        # skipped over it.
        uops = [store(0xB0_0000, 8)] + [alu() for _ in range(5)]
        result = run_single(table_i(), Trace("ff", uops))
        assert result.cycles >= 200

    def test_stall_accounting_covers_skips(self):
        uops = [store(0xC0_0000 + i * 64, 8) for i in range(200)]
        result = run_single(table_i(), Trace("s", uops))
        stalls = sum(result.cores[0].stalls.values())
        assert stalls > 50   # skipped cycles were charged


class TestSplitRuns:
    """``run(max_cycles=N)`` then ``run()`` is the unsplit run, stat for
    stat: the resumed loop keeps the stopped one's stale cores, skip
    counts and wake heap."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_split_equals_unsplit(self, mechanism):
        def contended():
            return [Trace(f"c{cid}", [store(0x60_0000 + (i % 4) * 64
                                            + cid * 8, 8)
                                      for i in range(40)])
                    for cid in range(2)]

        def canneal():
            return make_parallel_traces("canneal", 4, 300, seed=3)

        machines = ((check_config(2, mechanism), contended,
                     (5, 20, 37, 60, 100, 150, 250)),
                    (table_i().with_cores(4).with_mechanism(mechanism)
                     .with_sb_size(32), canneal, (50, 333, 1000, 2500)))
        for config, traces, cuts in machines:
            plain = System(config, traces()).run().canonical_json()
            for cut in cuts:
                system = System(config, traces())
                system.run(max_cycles=cut)
                assert system.run().canonical_json() == plain, cut


class TestNullStats:
    def test_stats_free_machine_runs_the_same(self):
        traces = [mixed_trace(f"m{cid}", n=300) for cid in range(2)]
        config = table_i().with_cores(2).with_mechanism("tus")
        full = System(config, traces).run()
        bare = System(config, traces, stats=NULL_STATS).run()
        assert bare.stats == {}
        assert bare.cycles == full.cycles
        assert ([core.committed for core in bare.cores]
                == [core.committed for core in full.cores])


class TestWarmup:
    def test_warmup_resets_measurement(self):
        trace = mixed_trace(n=2000)
        cold = System(table_i(), [Trace("w", trace.uops)]).run()
        warm = System(table_i(), [Trace("w", trace.uops)]).run(
            warmup_committed=1000)
        assert warm.cycles < cold.cycles
        # The boundary lands within one commit group (up to 8 wide).
        assert abs(warm.committed - 1000) <= table_i().core.commit_width

    def test_warmup_zero_measures_everything(self):
        result = System(table_i(), [mixed_trace()]).run(warmup_committed=0)
        assert result.committed == 600

    def test_warmup_improves_hit_rate(self):
        trace = mixed_trace(n=4000, seed_lines=16)
        cold = System(table_i(), [Trace("w", trace.uops)]).run()
        warm = System(table_i(), [Trace("w", trace.uops)]).run(
            warmup_committed=2000)
        cold_misses = cold.sum_stats("l1d.misses")
        warm_misses = warm.sum_stats("l1d.misses")
        assert warm_misses < cold_misses


class TestDeterminism:
    @pytest.mark.parametrize("mechanism",
                             ["baseline", "ssb", "csb", "spb", "tus"])
    def test_bit_identical_reruns(self, mechanism):
        cfg = table_i().with_mechanism(mechanism)
        a = System(cfg, [mixed_trace()]).run()
        b = System(cfg, [mixed_trace()]).run()
        assert a.cycles == b.cycles
        assert a.stats == b.stats


class TestResults:
    def test_roundtrip_serialisation(self):
        result = run_single(table_i(), mixed_trace())
        clone = SimResult.from_dict(result.to_dict())
        assert clone.cycles == result.cycles
        assert clone.ipc == result.ipc
        assert clone.stats == result.stats

    def test_stall_fraction(self):
        result = run_single(table_i(), mixed_trace())
        assert 0.0 <= result.stall_fraction("sb") <= 1.0

    def test_sum_stats(self):
        result = run_single(table_i(), mixed_trace())
        assert result.sum_stats("l1d.writes") >= 0

    def test_edp_none_without_energy(self):
        result = run_single(table_i(), mixed_trace())
        assert result.edp is None


class TestMulticore:
    def test_two_cores_run_disjoint_data(self):
        cfg = table_i().with_cores(2)
        system = System(cfg, [mixed_trace("a"), mixed_trace("b")])
        result = system.run()
        assert result.committed == 1200

    def test_shared_line_coherence(self):
        # Both cores hammer the same line: ownership must ping-pong and
        # both finish.
        cfg = table_i().with_cores(2)
        shared = 0xDD_0000
        uops = [store(shared, 8) if i % 3 == 0 else alu()
                for i in range(120)]
        system = System(cfg, [Trace("a", list(uops)),
                              Trace("b", list(uops))])
        result = system.run()
        assert result.committed == 240
        assert result.stat("system.mem.protocol.invalidations") > 0

    @pytest.mark.parametrize("mechanism",
                             ["baseline", "ssb", "csb", "spb", "tus"])
    def test_shared_conflict_all_mechanisms(self, mechanism):
        cfg = table_i().with_cores(2).with_mechanism(mechanism)
        shared = 0xEE_0000
        uops = []
        for i in range(150):
            if i % 4 == 0:
                uops.append(store(shared + (i % 4) * 64, 8))
            elif i % 4 == 1:
                uops.append(load(shared + ((i + 2) % 4) * 64))
            else:
                uops.append(alu())
        system = System(cfg, [Trace("a", list(uops)),
                              Trace("b", list(uops))])
        result = system.run()
        assert result.committed == 300

    def test_tus_conflict_path_exercised(self):
        # Heavy same-line contention under TUS must trigger the
        # delay/relinquish machinery at least once.
        cfg = table_i().with_cores(4).with_mechanism("tus")
        traces = []
        for core in range(4):
            uops = []
            for i in range(300):
                if i % 2 == 0:
                    uops.append(store(0xFF_0000 + (i % 8) * 64
                                      + (core % 8) * 8, 8))
                else:
                    uops.append(alu())
            traces.append(Trace(f"c{core}", uops))
        system = System(cfg, traces)
        result = system.run()
        assert result.committed == 1200
        touched = (result.stat("system.mem.protocol.delayed_snoops")
                   + result.stat("system.mem.protocol.relinquished")
                   + result.stat("system.mem.protocol.invalidations"))
        assert touched > 0
