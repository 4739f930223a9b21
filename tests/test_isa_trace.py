"""Micro-op ISA and trace containers."""

import pytest

from repro.common.config import CoreConfig
from repro.common.errors import TraceError
from repro.cpu.isa import OpKind, UOp, alu, exec_latency, fence, load, store
from repro.cpu.trace import Trace, TraceSummary


class TestOpKind:
    def test_classification(self):
        assert OpKind.LOAD.is_load and OpKind.LOAD.is_mem
        assert OpKind.STORE.is_store and OpKind.STORE.is_mem
        assert OpKind.FENCE.is_fence and not OpKind.FENCE.is_mem
        assert not OpKind.INT_ALU.is_mem

    def test_exec_latencies_match_table_i(self):
        cfg = CoreConfig()
        assert exec_latency(OpKind.INT_ALU, cfg) == 1
        assert exec_latency(OpKind.INT_MUL, cfg) == 4
        assert exec_latency(OpKind.INT_DIV, cfg) == 12
        assert exec_latency(OpKind.FP_ADD, cfg) == 5
        assert exec_latency(OpKind.FP_MUL, cfg) == 5
        assert exec_latency(OpKind.FP_DIV, cfg) == 12
        # The table is indexed by OpKind value: one entry per class.
        assert len(cfg.exec_latencies) == len(OpKind)
        for kind in (OpKind.LOAD, OpKind.STORE, OpKind.FENCE):
            assert exec_latency(kind, cfg) == 1


class TestUOp:
    def test_shorthands(self):
        assert alu().kind == OpKind.INT_ALU
        assert load(0x10).kind == OpKind.LOAD
        assert store(0x10).kind == OpKind.STORE
        assert fence().kind == OpKind.FENCE

    def test_mask(self):
        assert store(0x1008, 8).mask() == 0xFF00


class TestTrace:
    def test_valid_dep(self):
        Trace("t", [alu(), alu(dep_dist=1)])

    def test_dep_beyond_start_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [alu(dep_dist=1)])

    def test_nonpositive_dep_rejected(self):
        with pytest.raises(TraceError):
            Trace("t", [alu(), UOp(OpKind.INT_ALU, dep_dist=0)])

    def test_indexing(self):
        trace = Trace("t", [alu(), load(0x40)])
        assert trace[1].kind == OpKind.LOAD
        assert len(trace) == 2


class TestSummary:
    def test_counts(self):
        trace = Trace("t", [store(0x40), store(0x48), load(0x80),
                            fence(), alu()])
        s = trace.summary()
        assert s.stores == 2 and s.loads == 1 and s.fences == 1
        assert s.store_lines == 1 and s.load_lines == 1

    def test_burst_detection(self):
        trace = Trace("t", [store(0x40), store(0x80), alu(), store(0xC0)])
        assert trace.summary().max_store_burst == 2

    def test_same_line_runs(self):
        trace = Trace("t", [store(0x40), store(0x48), store(0x80)])
        s = trace.summary()
        assert s.mean_stores_per_line_run == pytest.approx(1.5)

    def test_ratios(self):
        trace = Trace("t", [store(0x40), alu(), alu(), alu()])
        assert trace.summary().store_ratio == 0.25
