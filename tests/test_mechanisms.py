"""Per-mechanism behaviour: the five store paths on crafted scenarios."""

import pytest

from repro.common.addr import LEX_BITS, LINE_SHIFT
from repro.common.config import table_i
from repro.common.stats import StatGroup
from repro.cpu.isa import alu, load, store
from repro.cpu.storebuffer import StoreBuffer
from repro.cpu.trace import Trace
from repro.mem.cacheline import State
from repro.mechanisms.base import CoalescingMechanism
from repro.mechanisms.registry import available, make_mechanism
from repro.sim.system import System, run_single


def run(mechanism, uops, sb=114, cores=1, **kw):
    config = table_i().with_mechanism(mechanism).with_sb_size(sb)
    return run_single(config, Trace("t", uops))


def burst_trace(lines=200, words=8, base=0x100_0000):
    uops = []
    for i in range(lines):
        for w in range(words):
            uops.append(store(base + i * 64 + w * 8, 8))
    uops.extend(alu() for _ in range(64))
    return uops


def scatter_trace(n=120, base=0x200_0000):
    uops = []
    for i in range(n):
        # Irregular fresh lines: strided by a large odd jump.
        uops.append(store(base + i * 64 * 97, 8))
        uops.extend(alu() for _ in range(6))
    return uops


class TestRegistry:
    def test_all_registered(self):
        assert set(available()) == {"baseline", "csb", "spb", "ssb", "tus"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_mechanism("nope", None, None, None, None, None)


class TestBaseline:
    def test_blocks_on_store_miss(self):
        result = run("baseline", scatter_trace())
        assert result.stat(
            "system.core0.mechanism.drain_blocked_cycles") > 0

    def test_prefetch_at_commit_issued(self):
        result = run("baseline", scatter_trace())
        assert result.stat("system.core0.mechanism.commit_prefetches") > 0

    def test_one_l1d_write_per_store(self):
        uops = burst_trace(lines=50)
        result = run("baseline", uops)
        stores = sum(1 for u in uops if u.kind.is_store)
        assert result.sum_stats("l1d.writes") >= stores


class TestTUS:
    def test_faster_than_baseline_on_bursts(self):
        uops = burst_trace()
        base = run("baseline", uops)
        tus = run("tus", uops)
        assert tus.cycles < base.cycles

    def test_coalescing_reduces_l1d_writes(self):
        uops = burst_trace(lines=100, words=8)
        base = run("baseline", uops)
        tus = run("tus", uops)
        assert tus.sum_stats("l1d.writes") < base.sum_stats("l1d.writes") / 3

    def test_unauthorized_writes_happen(self):
        result = run("tus", scatter_trace())
        assert result.stat(
            "system.core0.mechanism.tus.unauthorized_writes") > 0

    def test_woq_groups_become_visible(self):
        result = run("tus", burst_trace(lines=60))
        visible = result.stat(
            "system.core0.mechanism.tus.woq.visible_lines")
        assert visible >= 60

    def test_no_unauthorized_residue(self):
        config = table_i().with_mechanism("tus")
        system = System(config, [Trace("t", burst_trace(lines=40))])
        system.run()
        for line in system.memsys.ports[0].l1d:
            assert not line.not_visible

    def test_storage_overhead_is_paper_figure(self):
        assert table_i().tus.woq_storage_bytes == 272


class _ScriptedFlush(CoalescingMechanism):
    """The shared WCB front end over a real SB, with a stub flush that
    empties the WCBs when ``flush_ok`` and records every attempt."""

    def __init__(self, wcb_entries, flush_ok=True):
        config = table_i()
        assert config.core.commit_width == 8
        super().__init__(config, None, StoreBuffer(config.core), None,
                         StatGroup("mechanism"), wcb_entries)
        self.flush_ok = flush_ok
        self.flushes = []

    def _flush(self, cycle):
        self.flushes.append(cycle)
        if self.flush_ok:
            self.wcb.drain_groups()
        return self.flush_ok

    def commit(self, *lines):
        for line in lines:
            self.sb.insert(store(line, 8)).committed = True

    @property
    def blocked(self):
        return self.stats["flush_blocked_cycles"]


class TestCoalescingFrontEnd:
    """The SB -> WCB drain budget: a coalesce costs 1 of the commit
    width (8), an allocation 2, at most one flush per cycle, and a lex
    conflict ends the cycle after its flush."""

    A, B, C, D, E = (0x40_0000 + 64 * i for i in range(5))
    #: Same lex order as A: may not join A's atomic group.
    A_TWIN = A + (1 << (LEX_BITS + LINE_SHIFT))

    def test_coalesce_costs_one(self):
        mech = _ScriptedFlush(2)
        mech.commit(*[self.A] * 10)
        assert mech.drain(0) == 7          # 2 + 6 * 1
        assert len(mech.sb) == 3

    def test_allocate_costs_two(self):
        mech = _ScriptedFlush(8)
        mech.commit(self.A, self.B, self.C, self.D, self.E)
        assert mech.drain(0) == 4          # 4 * 2
        assert len(mech.sb) == 1
        assert not mech.flushes

    def test_last_store_may_overdraw_the_budget(self):
        mech = _ScriptedFlush(4)
        mech.commit(self.A, self.A, self.A, self.B, self.B, self.C, self.C)
        assert mech.drain(0) == 6          # 2+1+1+2+1, then 2 on 1 left
        assert len(mech.sb) == 1

    def test_one_flush_per_cycle(self):
        mech = _ScriptedFlush(1)
        mech.commit(self.A, self.B, self.C)
        # A allocates; B flushes (one progress unit, 2 budget) then
        # allocates; C would need a second flush in the same cycle.
        assert mech.drain(3) == 3
        assert mech.flushes == [3]
        assert mech.blocked == 1
        assert len(mech.sb) == 1

    def test_refused_flush_blocks(self):
        mech = _ScriptedFlush(1, flush_ok=False)
        mech.commit(self.A, self.B)
        assert mech.drain(0) == 1
        assert mech.flushes == [0]
        assert mech.blocked == 1
        assert mech.drain(1) == 0
        assert mech.blocked == 2

    def test_lex_conflict_stops_after_one_flush(self):
        mech = _ScriptedFlush(4)
        # Coalescing into A after its twin would merge the twins into
        # one atomic group: a lex conflict.  The flush empties the WCBs,
        # but the drain still ends this cycle with budget left.
        mech.commit(self.A, self.A_TWIN, self.A, self.B)
        assert mech.drain(0) == 3
        assert mech.flushes == [0]
        assert mech.blocked == 1
        assert len(mech.sb) == 2
        assert mech.drain(1) == 2          # A and B allocate

    def test_lex_conflict_with_refused_flush(self):
        mech = _ScriptedFlush(4, flush_ok=False)
        mech.commit(self.A, self.A_TWIN, self.A)
        assert mech.drain(0) == 2
        assert mech.flushes == [0]
        assert mech.blocked == 1

    def test_flushes_opportunistically_without_sb_pressure(self):
        mech = _ScriptedFlush(2)
        assert mech.drain_idle() and mech.drain(0) == 0
        assert not mech.flushes
        mech.commit(self.A)
        mech.drain(0)
        assert not mech.drain_idle()
        assert mech.drain(1) == 1
        assert mech.flushes == [1]
        assert mech.drained() and mech.drain_idle()
        assert mech.blocked == 0

    def test_search_forwards_buffered_bytes_only(self):
        mech = _ScriptedFlush(2)
        mech.commit(self.A)
        mech.drain(0)
        latency = min(mech.config.core.forward_latency,
                      mech.config.memory.l1d.latency)
        assert mech.search(self.A, 8) == latency
        assert mech.search(self.A + 8, 8) is None
        assert mech.search(self.B, 8) is None


class TestSSB:
    def test_absorbs_scatter_without_sb_stalls(self):
        base = run("baseline", scatter_trace(n=200))
        ssb = run("ssb", scatter_trace(n=200))
        assert ssb.cores[0].stalls["sb"] < base.cores[0].stalls["sb"]

    def test_writes_through_to_l2(self):
        result = run("ssb", burst_trace(lines=50))
        stores = 50 * 8
        assert result.sum_stats("l2_updates") >= stores * 0.9

    def test_no_coalescing(self):
        result = run("ssb", burst_trace(lines=50))
        assert result.stat("system.core0.mechanism.tsob_drains") >= 50 * 8

    def test_tsob_capacity_backs_up(self):
        # More stores than the TSOB can hold: the SB must still fill.
        cfg = table_i().with_mechanism("ssb")
        uops = burst_trace(lines=400, words=8)   # 3200 stores > 1024
        result = run_single(cfg, Trace("t", uops))
        assert result.cores[0].stalls["sb"] > 0

    def test_l2_only_drain_tells_the_visibility_observer(self):
        # The TSOB head's line is writable in the L2 with no L1D copy:
        # the drain writes the L2 alone, which still publishes the store.
        system = System(table_i().with_mechanism("ssb"),
                        [Trace("t", [alu()])])
        core = system.cores[0]
        port, line = core.port, 0x300_0000
        port.l2.allocate(line, State.M)
        assert port.l1d.probe(line) is None
        published = []
        port.visibility_hook = lambda lines, cycle: published.append(
            (lines, cycle))
        core.sb.insert(store(line, 8)).committed = True
        assert core.mechanism.drain(5) == 2   # SB -> TSOB -> L2
        assert published == [([line], 5)]


class TestCSB:
    def test_coalesces_like_tus(self):
        uops = burst_trace(lines=100, words=8)
        csb = run("csb", uops)
        tus = run("tus", uops)
        assert csb.sum_stats("l1d.writes") == pytest.approx(
            tus.sum_stats("l1d.writes"), rel=0.2)

    def test_blocks_on_flush_miss(self):
        result = run("csb", scatter_trace())
        assert result.stat(
            "system.core0.mechanism.flush_blocked_cycles") > 0

    def test_group_writes_counted(self):
        result = run("csb", burst_trace(lines=60))
        assert result.stat("system.core0.mechanism.group_writes") > 0


class TestSPB:
    def test_bursts_fire_on_sequential_stores(self):
        result = run("spb", burst_trace(lines=100))
        assert result.stat("system.core0.mechanism.page_bursts") > 0

    def test_no_burst_on_irregular(self):
        result = run("spb", scatter_trace())
        assert result.stat("system.core0.mechanism.page_bursts") == 0

    def test_prefetches_full_pages(self):
        result = run("spb", burst_trace(lines=128))
        bursts = result.stat("system.core0.mechanism.page_bursts")
        prefetches = result.stat(
            "system.core0.mechanism.burst_prefetches")
        assert prefetches > bursts * 10


class TestRelativeOrdering:
    """The headline shape: who wins on which behaviour (Section VI)."""

    def test_coalescers_win_on_warm_bursts(self):
        # Warm ring bursts: TUS and CSB beat baseline clearly.
        uops = []
        for rep in range(4):
            for i in range(100):
                for w in range(8):
                    uops.append(store(0x300_0000 + i * 64 + w * 8, 8))
            uops.extend(alu() for _ in range(200))
        results = {m: run(m, uops) for m in ("baseline", "tus", "csb")}
        assert results["tus"].cycles < results["baseline"].cycles
        assert results["csb"].cycles < results["baseline"].cycles

    def test_store_wait_free_wins_on_scatter(self):
        uops = scatter_trace(n=150)
        results = {m: run(m, uops) for m in ("baseline", "tus", "ssb")}
        assert results["tus"].cycles <= results["baseline"].cycles
        assert results["ssb"].cycles <= results["baseline"].cycles

    def test_all_mechanisms_equal_on_pure_compute(self):
        uops = [alu() for _ in range(2000)]
        cycles = {m: run(m, uops).cycles
                  for m in ("baseline", "ssb", "csb", "spb", "tus")}
        assert len(set(cycles.values())) == 1
