"""Visibility observer: Store->Store order holds on real timing runs."""

import pytest

from repro.common.config import table_i
from repro.common.errors import TSOViolationError
from repro.cpu.isa import alu, store
from repro.cpu.trace import Trace
from repro.modelcheck.observer import VisibilityObserver
from repro.sim.system import System

MECHANISMS = ("baseline", "ssb", "csb", "spb", "tus")


def ordered_store_trace():
    """Stores to distinct lines in a strict order, with compute between
    (every pair is unambiguous, so every pair is checked)."""
    uops = []
    for i in range(24):
        uops.append(store(0x55_0000 + i * 64, 8))
        uops.extend(alu() for _ in range(4))
    return Trace("ordered", uops)


def bursty_trace():
    uops = []
    for i in range(60):
        line = 0x66_0000 + (i % 10) * 64
        uops.append(store(line + (i % 8) * 8, 8))
        if i % 5 == 0:
            uops.append(alu())
    return Trace("bursty", uops)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_ordered_stores_publish_in_order(mechanism):
    config = table_i().with_mechanism(mechanism)
    trace = ordered_store_trace()
    system = System(config, [Trace("o", trace.uops)])
    observer = VisibilityObserver()
    observer.attach(system)
    system.run()
    checked = observer.check_store_store_order(0, trace)
    assert checked > 100   # 24 lines, all pairs unambiguous


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_bursty_stores_respect_tso(mechanism):
    config = table_i().with_mechanism(mechanism)
    trace = bursty_trace()
    system = System(config, [Trace("b", trace.uops)])
    observer = VisibilityObserver()
    observer.attach(system)
    system.run()
    observer.check_store_store_order(0, trace)   # must not raise


def test_observer_detects_inversion():
    observer = VisibilityObserver()
    trace = Trace("t", [store(0x40, 8), alu(), store(0x80, 8)])
    # Publish in the wrong order.
    observer.record(0, [0x80], cycle=10)
    observer.record(0, [0x40], cycle=11)
    with pytest.raises(TSOViolationError):
        observer.check_store_store_order(0, trace)


def test_observer_allows_atomic_batch():
    observer = VisibilityObserver()
    trace = Trace("t", [store(0x40, 8), store(0x80, 8), store(0x44, 8)])
    # Stores to 0x40-line interleave around the 0x80 store: cycle ->
    # atomic publication of both lines at once is legal.
    observer.record(0, [0x80, 0x40], cycle=5)
    observer.check_store_store_order(0, trace)


def test_multicore_observer():
    config = table_i().with_cores(2).with_mechanism("tus")
    traces = [ordered_store_trace(), ordered_store_trace()]
    system = System(config, [Trace("a", traces[0].uops),
                             Trace("b", traces[1].uops)])
    observer = VisibilityObserver()
    observer.attach(system)
    system.run()
    for core_id in range(2):
        observer.check_store_store_order(core_id, traces[core_id])


def test_check_walks_each_trace_once(monkeypatch):
    """A check derives each core's store order from its trace once; the
    store-order invariant, run after every action of every execution,
    never walks a trace again."""
    from repro.modelcheck.explorer import CheckRunner
    runner = CheckRunner("fence", "tus", cores=2, lines=2)
    assert runner((), pause=False).kind == "done"
    walks = []
    walk = Trace.__iter__
    monkeypatch.setattr(Trace, "__iter__",
                        lambda self: walks.append(self.name) or walk(self))
    checked = []
    check = VisibilityObserver.check_store_store_order
    monkeypatch.setattr(
        VisibilityObserver, "check_store_store_order",
        lambda self, *args: checked.append(check(self, *args))
        or checked[-1])
    assert runner((), pause=False).kind == "done"
    assert sum(checked) > 0       # the invariant ran and constrained
    assert walks == []
