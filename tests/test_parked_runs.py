"""Blocked store paths skip repeated work without changing a result.

SSB's drain-ahead walk keeps each window line's last answer and replays
it instead of re-issuing the request, and a port stores consecutive
callback-free parks of one line as one counted run.  Neither may be
visible: every run below is compared with one whose walk keeps no
answer from one call to the next (every line is asked again on every
call) and whose parked requests are one queue entry each.  Results,
fault draws and the probe's event stream must match.
"""

import dataclasses
import hashlib

import pytest

from repro.common.config import table_i
from repro.common.events import EventQueue
from repro.coherence.memsys import CorePort, MemorySystem
from repro.mem.cacheline import State
from repro.faults import FaultInjector, FaultPlan, INTENSITIES
from repro.mechanisms.ssb import SSBMechanism
from repro.observe import Tracer
from repro.sim.system import System
from repro.workloads import make_parallel_traces, make_trace

from .test_mshr_parking import machine

BENCHES = ("502.gcc2", "505.mcf", "520.omnetpp")
LENGTH, PAR_LENGTH, TRACE_SEED, FAULT_SEED = 800, 300, 3, 5


def one_request_per_entry(monkeypatch):
    """Queue every parked request as its own entry."""
    monkeypatch.setattr(CorePort, "_queue",
                        lambda self, run: self._pending.append(run))


def ask_every_line(monkeypatch):
    """Forget the walk's answers before every call."""
    walk = SSBMechanism._prefetch_ahead

    def forgetful(self, cycle):
        self._ahead_answers.clear()
        walk(self, cycle)

    monkeypatch.setattr(SSBMechanism, "_prefetch_ahead", forgetful)


def run_point(mechanism, machine_name, bench, faults, probe):
    config = machine(machine_name).with_mechanism(mechanism)
    return run_system(System(config, [make_trace(bench, LENGTH,
                                                 TRACE_SEED)]),
                      faults, probe)


def run_system(system, faults, probe):
    events = []
    if probe:
        tracer = Tracer(system, max_events=0).attach()
        tracer.bus.subscribe(lambda ev: events.append(
            (ev.cycle, ev.name, ev.source, ev.core,
             tuple(sorted(ev.args.items())))))
    plan = None
    if faults:
        plan = FaultPlan(FAULT_SEED, INTENSITIES["medium"])
        FaultInjector(system, plan).attach()
    result = system.run()
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    return (digest, dict(plan.counts) if plan is not None else None,
            hashlib.sha256(repr(events).encode()).hexdigest())


@pytest.mark.parametrize("probe", [False, True], ids=["noprobe", "probe"])
@pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
@pytest.mark.parametrize("machine_name", ["table_i", "mshr4"])
@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("mechanism", ["ssb", "tus"])
def test_same_as_asking_and_parking_one_by_one(monkeypatch, mechanism,
                                               machine_name, bench, faults,
                                               probe):
    kept = run_point(mechanism, machine_name, bench, faults, probe)
    with monkeypatch.context() as patch:
        ask_every_line(patch)
        one_request_per_entry(patch)
        assert run_point(mechanism, machine_name, bench, faults,
                         probe) == kept


#: Shared lines bring snoops, chains onto in-flight reads, and refused
#: lines that find prefetch room once fills drain the file.
PARALLEL = ("blackscholes", "streamcluster", "swaptions")


@pytest.mark.parametrize("faults", [False, True], ids=["nofaults", "faults"])
@pytest.mark.parametrize("bench", PARALLEL)
@pytest.mark.parametrize("mechanism", ["ssb", "tus"])
def test_four_cores_same_as_asking_and_parking_one_by_one(
        monkeypatch, mechanism, bench, faults):
    def run():
        config = table_i().with_cores(4).with_mechanism(mechanism)
        traces = make_parallel_traces(bench, 4, PAR_LENGTH, TRACE_SEED)
        return run_system(System(config, traces), faults, True)

    kept = run()
    with monkeypatch.context() as patch:
        ask_every_line(patch)
        one_request_per_entry(patch)
        assert run() == kept


def test_the_comparison_is_not_vacuous(monkeypatch):
    """On the 4-MSHR machine SSB's and TUS's parks do form runs, and
    SSB's walk replays nearly every answer instead of asking."""
    longest, asks, walks = [0], [0], [0]
    retry = CorePort._retry_pending
    ask, walk = SSBMechanism._ask, SSBMechanism._prefetch_ahead

    def watch(self, cycle):
        longest[0] = max([longest[0]] + [run[3] for run in self._pending])
        retry(self, cycle)

    def count_ask(self, line, cycle):
        asks[0] += 1
        ask(self, line, cycle)

    def count_walk(self, cycle):
        walks[0] += len(self._ahead or ())
        walk(self, cycle)

    monkeypatch.setattr(CorePort, "_retry_pending", watch)
    monkeypatch.setattr(SSBMechanism, "_ask", count_ask)
    monkeypatch.setattr(SSBMechanism, "_prefetch_ahead", count_walk)
    run_point("ssb", "mshr4", "520.omnetpp", False, False)
    assert longest[0] > 10
    assert 0 < asks[0] < walks[0] / 20
    longest[0] = 0
    run_point("tus", "mshr4", "502.gcc2", False, False)
    assert longest[0] > 1


# -- one port, by hand ---------------------------------------------------------
A, B, V, X, Y, Z = (0x10_000 + 64 * i for i in range(6))


def small_port(mshrs=2):
    config = table_i()
    memory = config.memory
    config = dataclasses.replace(config, memory=dataclasses.replace(
        memory, l1d=dataclasses.replace(memory.l1d, mshrs=mshrs)))
    events = EventQueue()
    system = MemorySystem(config, events)
    return system, events, system.ports[0]


def park_and_fill(k):
    """Fill a 2-entry MSHR file, park k writes of X, one of Y, a read of
    Z and k more writes of X, then let every fill land.  Returns the
    queue after parking and the port's state after the fills."""
    system, events, port = small_port()
    port.request_write(A, 0)
    port.request_write(B, 0)
    for cycle in range(1, k + 1):
        port.request_write(X, cycle)
    port.request_write(Y, k + 1)
    loaded = []
    port.load(Z, k + 2, loaded.append)
    for cycle in range(k + 3, 2 * k + 3):
        port.request_write(X, cycle)
    parked = (list(port.parked()), dict(port._pending_writes),
              len(port._pending))
    events.run_until(100_000)
    after = (system.stats.flatten(), list(port.parked()),
             dict(port._pending_writes), len(loaded),
             sorted(port.mshrs.lines()))
    return parked, after


@pytest.mark.parametrize("k", [1, 2, 7])
def test_k_parks_of_one_line_equal_k_entries(monkeypatch, k):
    parked, after = park_and_fill(k)
    queue, writes, entries = parked
    assert queue == [(X, True)] * k + [(Y, True), (Z, False)] \
        + [(X, True)] * k
    assert writes == {X: 2 * k, Y: 1}
    assert entries == 4   # a run of X, Y, the read of Z, a run of X
    with monkeypatch.context() as patch:
        one_request_per_entry(patch)
        split_parked, split_after = park_and_fill(k)
    assert split_parked[:2] == parked[:2]
    assert split_parked[2] == 2 * k + 2
    # Same refusals, merges, allocations and every other statistic;
    # nothing is left parked and the read was served.
    assert split_after == after
    assert after[1:4] == ([], {}, 1)
    # Beyond the 2k + 2 refusals that parked them, retries were refused
    # too, and the runs of X merged into X's MSHR.
    stats = after[0]
    assert stats["memsys.core0.mshr.full"] > 2 * k + 2
    assert stats["memsys.core0.mshr.merges"] >= 2 * k - 1


def park_during_a_pass():
    """On a full 2-entry file, X, a read of Z and a run of Y wait.  Z
    arrives while parked, so the first retry pass runs the read's
    callback, which parks one more write of Y and a read of V.  That Y
    must wait for the next pass, not join the Y run this pass has yet to
    retry (the parked read of V keeps the pass retrying run by run)."""
    system, events, port = small_port()
    loaded = []

    def arrived(cycle):
        port.request_write(Y, cycle)
        port.load(V, cycle, loaded.append)

    port.request_write(A, 0)
    port.request_write(B, 0)
    port.request_write(X, 1)
    port.load(Z, 2, arrived)
    for cycle in (3, 4, 5):
        port.request_write(Y, cycle)
    port.l1d.allocate(Z, State.S)
    events.run_until(100_000)
    return system.stats.flatten(), list(port.parked()), len(loaded)


def test_parks_made_during_a_pass_wait_for_the_next(monkeypatch):
    stats, parked, loaded = park_during_a_pass()
    with monkeypatch.context() as patch:
        one_request_per_entry(patch)
        assert park_during_a_pass() == (stats, parked, loaded)
    assert (parked, loaded) == ([], 1)
