"""Scaling the machine to 16-64 cores: topology, sharded directory,
NUMA DRAM, and the regressions the bigger machine flushed out.

The tentpole invariants: the default configuration (p2p interconnect,
monolithic directory, one DRAM channel) is bit-identical to the
pre-scaling machine; snoops fan out to the sharer vector, never to
every core; the model checker's core-symmetry reduction only merges
cores the topology cannot distinguish; and a sharded mesh passes a
bounded-depth exhaustive protocol check.
"""

import pytest

from repro.common.addr import LINE_SIZE, line_index
from repro.common.config import (CORE_COUNT_SWEEP, scale_sweep_configs,
                                 scaled_config, table_i)
from repro.common.errors import ConfigError
from repro.coherence.directory import Directory, ShardedDirectory
from repro.coherence.topology import Topology
from repro.cpu.isa import load, store
from repro.cpu.trace import Trace
from repro.harness.checks import CheckJob, run_check
from repro.mem.dram import DRAM
from repro.modelcheck.explorer import CheckRunner
from repro.modelcheck.scenarios import scenario_lines
from repro.sim.progress import ProgressDump
from repro.sim.system import System
from repro.workloads import make_parallel_traces


def _topo(kind, cores, shards=1, channels=1, link=1):
    config = table_i().with_cores(cores).with_topology(
        kind, dir_shards=shards, dram_channels=channels,
        link_latency=link)
    return Topology(config)


class TestTopology:
    def test_p2p_is_uniform_and_free(self):
        topo = _topo("p2p", 16, shards=4, channels=2)
        assert topo.uniform
        assert all(d == 0 for row in topo.core_home for d in row)
        assert all(d == 0 for row in topo.core_core for d in row)
        assert all(d == 0 for row in topo.home_dram for d in row)

    def test_crossbar_is_one_hop(self):
        topo = _topo("crossbar", 16, shards=4, link=3)
        assert topo.core_core[0][0] == 0
        assert topo.core_core[0][15] == 3
        assert topo.core_core[5][9] == 3

    def test_ring_distance_wraps(self):
        topo = _topo("ring", 16, shards=2)
        assert topo.core_core[0][8] == 8       # halfway round
        assert topo.core_core[0][15] == 1      # shorter the other way
        assert topo.core_core[3][3] == 0

    def test_mesh_distance_is_manhattan(self):
        topo = _topo("mesh", 16, shards=4)     # 4x4 grid
        assert topo.core_core[0][5] == 2       # (0,0) -> (1,1)
        assert topo.core_core[0][15] == 6      # (0,0) -> (3,3)
        assert topo.core_core[12][3] == 6

    def test_distances_are_symmetric(self):
        for kind in ("crossbar", "ring", "mesh"):
            topo = _topo(kind, 16, shards=4, channels=2)
            for a in range(16):
                for b in range(16):
                    assert topo.core_core[a][b] == topo.core_core[b][a]

    def test_snoop_and_dram_latencies_are_round_trips(self):
        topo = _topo("ring", 16, shards=2, channels=2)
        for core in range(16):
            for shard in range(2):
                assert (topo.snoop_round_trip(shard, core)
                        == 2 * topo.core_home[core][shard])
        for shard in range(2):
            for channel in range(2):
                assert (topo.dram_round_trip(shard, channel)
                        == 2 * topo.home_dram[shard][channel])

    def test_permutation_ok_under_p2p_accepts_everything(self):
        topo = _topo("p2p", 4)
        assert topo.permutation_ok({0: 1, 1: 0, 2: 3, 3: 2})

    def test_permutation_ok_rejects_distance_changes(self):
        topo = _topo("mesh", 16, shards=4)
        # Swapping a corner core with a centre core changes its distance
        # to the directory homes.
        perm = {i: i for i in range(16)}
        perm[0], perm[5] = 5, 0
        assert not topo.permutation_ok(perm)
        assert topo.permutation_ok({i: i for i in range(16)})


class TestScaledConfigs:
    def test_default_config_keeps_old_machine(self):
        config = table_i()
        assert config.topology == "p2p"
        assert config.dir_shards == 1
        assert config.dram_channels == 1

    def test_scaled_config_shards_with_core_count(self):
        for cores in CORE_COUNT_SWEEP:
            config = scaled_config(cores)
            assert config.num_cores == cores
            if cores > 4:
                assert config.topology == "mesh"
                assert config.dir_shards == cores // 4
                assert config.dram_channels == cores // 8

    def test_sweep_covers_mechanism_by_core_count(self):
        configs = scale_sweep_configs(core_counts=(4, 16))
        assert ("tus", 16) in configs
        assert configs[("tus", 16)].dir_shards == 4

    def test_invalid_machine_knobs_rejected(self):
        with pytest.raises(ConfigError):
            table_i().with_topology("torus")
        with pytest.raises(ConfigError):
            table_i().with_topology("mesh", dir_shards=3)
        with pytest.raises(ConfigError):
            table_i().with_topology("mesh", dram_channels=6)


class TestShardedDirectory:
    def test_homes_interleave_on_lex_bits(self):
        d = ShardedDirectory(4)
        base = 0x4_0000
        for i in range(16):
            addr = base + i * LINE_SIZE
            assert d.home_of(addr) == line_index(addr) & 3

    def test_delegates_to_owning_home(self):
        d = ShardedDirectory(2)
        a, b = 0x4_0000, 0x4_0040          # adjacent lines, homes 0 and 1
        assert d.home_of(a) != d.home_of(b)
        entry = d.get_or_allocate(a)
        assert d.lookup(a) is entry
        assert d.shards[d.home_of(a)].lookup(a) is entry
        assert d.shards[d.home_of(b)].lookup(a) is None
        d.drop(a)
        assert d.lookup(a) is None

    def test_entries_span_every_shard(self):
        d = ShardedDirectory(2)
        d.get_or_allocate(0x4_0000)
        d.get_or_allocate(0x4_0040)
        assert len(d.entries()) == 2

    def test_monolithic_directory_presents_one_shard(self):
        d = Directory()
        assert d.shards == (d,)
        assert d.home_of(0x4_0040) == 0

    def test_rejects_bad_shard_counts(self):
        with pytest.raises(ValueError):
            ShardedDirectory(1)
        with pytest.raises(ValueError):
            ShardedDirectory(3)


class TestDRAMChannels:
    def test_channel_map_matches_directory_homes(self):
        d = ShardedDirectory(2)
        dram = DRAM(latency=100, gap=4, channels=2)
        for i in range(8):
            addr = 0x4_0000 + i * LINE_SIZE
            assert dram.channel_of(addr) == d.home_of(addr)

    def test_channels_queue_independently(self):
        dram = DRAM(latency=100, gap=10, channels=2)
        first = dram.access(0, channel=0)
        # Back-to-back on channel 0 queues; channel 1 is idle.
        assert dram.access(0, channel=0) > first
        assert dram.access(0, channel=1) == first


class TestSnoopFanOut:
    def test_snoops_only_reach_sharers_at_16_cores(self):
        # Regression: the snoop walk must follow the directory's sharer
        # vector (plus a non-sharing owner), never iterate all cores —
        # at 16+ cores a broadcast both melts performance and pokes
        # cores that never touched the line.
        config = scaled_config(16).with_mechanism("tus").with_sb_size(114)
        system = System(config, make_parallel_traces("canneal", 16, 300, 7),
                        workload="canneal")
        mem = system.memsys
        original = mem._snoop_targets
        calls = []

        def spy(trans, entry):
            targets = original(trans, entry)
            allowed = set(entry.sharers)
            if entry.owner is not None:
                allowed.add(entry.owner)
            assert set(targets) <= allowed - {trans.requester}
            assert targets == sorted(set(targets))
            calls.append(len(targets))
            return targets

        mem._snoop_targets = spy
        result = system.run()
        assert calls, "the workload never exercised a snoop"
        assert result.committed == 16 * 300


class TestCrossShardLexOrder:
    def test_overlapping_groups_across_shards_complete(self):
        # Two cores build overlapping atomic groups over lines homed on
        # *different* directory shards: the lex tie-break must still
        # order them globally (no cross-home deadlock).
        config = scaled_config(16).with_mechanism("tus").with_sb_size(114)
        a, b = scenario_lines(2)
        directory_homes = {line_index(a) & 3, line_index(b) & 3}
        assert len(directory_homes) == 2
        quiet = [load(0x10_0000 + cid * 0x1000) for cid in range(16)]
        programs = {
            0: [store(a), store(b), store(a)],
            1: [store(b), store(a), store(b)],
        }
        traces = [Trace(f"core{cid}", programs.get(cid, [quiet[cid]]))
                  for cid in range(16)]
        result = System(config, traces, workload="xshard").run()
        assert result.committed == sum(len(t) for t in traces)


class TestDifferential16Core:
    @pytest.mark.parametrize("seed", (1, 2))
    def test_tus_matches_baseline_work(self, seed):
        # Seeded differential at 16 cores: whatever the mechanism, the
        # scaled machine must retire exactly the same work per core.
        results = {}
        for mechanism in ("baseline", "tus"):
            config = scaled_config(16).with_mechanism(mechanism) \
                .with_sb_size(114)
            traces = make_parallel_traces("canneal", 16, 250, seed)
            results[mechanism] = System(config, traces,
                                        workload="canneal").run()
        base, tus = results["baseline"], results["tus"]
        assert ([c.committed for c in base.cores]
                == [c.committed for c in tus.cores])
        assert base.committed == 16 * 250


class TestShardAwareSymmetry:
    def test_p2p_keeps_consumer_swap(self):
        # mp with 3 cores: the two consumers run the same program and
        # p2p gives them identical positions, so the swap is legal.
        assert len(CheckRunner("mp", "baseline", cores=3).perms) == 2

    def test_ring_with_shards_breaks_consumer_swap(self):
        # Regression: on a 3-core ring with 2 directory homes the two
        # consumers sit at different distances from home 0, so swapping
        # them is *not* a symmetry — the naive trace-only reduction
        # would merge states with different in-flight latencies.
        runner = CheckRunner(
            "mp", "baseline", cores=3,
            machine={"topology": "ring", "dir_shards": 2})
        system, _, _ = runner.build()
        topo = system.memsys.topology
        assert topo.core_home[1] != topo.core_home[2]
        assert runner.perms == [{0: 0, 1: 1, 2: 2}]

    def test_sharding_alone_keeps_symmetric_consumers(self):
        # Positive control: sharding the directory under a p2p (uniform)
        # interconnect distinguishes nothing, so the reduction must keep
        # the consumer swap.
        runner = CheckRunner("mp", "baseline", cores=3,
                             machine={"dir_shards": 2})
        assert len(runner.perms) == 2


class TestShardedExhaustiveCheck:
    def test_sharded_mesh_bounded_exhaustive_passes(self):
        # Acceptance: bounded-depth exhaustive check of the sb litmus on
        # a 3-core mesh with 2 directory homes, shard-aware symmetry on.
        report = run_check(CheckJob("sb", "tus", cores=3, lines=2,
                                    max_states=600,
                                    machine={"topology": "mesh",
                                             "dir_shards": 2}))
        assert report.passed
        assert report.mode == "exhaustive"


class TestScalingExperiment:
    def test_reports_contention_columns(self):
        from repro.harness.experiments import scaling
        result = scaling(core_counts=(4, 16), length_per_core=80)
        assert list(result.rows) == ["4 cores", "16 cores"]
        row = result.rows["16 cores"]
        assert set(row) == {"speedup", "woq_peak", "unauth_residency",
                            "delayed_snoops", "retries"}
        assert row["speedup"] > 0
        assert row["woq_peak"] >= 1


class TestProgressDumpShards:
    def test_directory_dump_labels_shards(self):
        d = ShardedDirectory(2)
        a, b = 0x4_0000, 0x4_0040
        for addr in (a, b):
            entry = d.get_or_allocate(addr)
            entry.busy = True
        listed = ProgressDump._directory_state(d)
        assert {e["shard"] for e in listed} == {0, 1}
        assert {e["line"] for e in listed} == {a, b}

    def test_monolithic_dump_is_shard_zero(self):
        d = Directory()
        d.get_or_allocate(0x4_0000).busy = True
        listed = ProgressDump._directory_state(d)
        assert listed == [{"shard": 0, "line": 0x4_0000, "owner": None,
                           "sharers": []}]
