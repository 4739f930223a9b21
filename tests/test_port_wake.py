"""The run loop's event-driven staleness skip is complete and exact.

``System.run`` visits a stale core only on an event cycle that touched
its port (``MemorySystem.touched``) or once its wake cycle arrives.
While ``Core.idle_charge`` proves the core's step a no-op, every event
cycle that passes it by is a skip, and ``Core.settle_skips`` charges a
run of them at once, as the steps would have.  The shadow run below
marks every stale core touched on every event cycle, so each skip is
settled alone at its own cycle, and replaces every settle with the real
step: it checks that the step made no progress, changed no core,
mechanism or port state, and bumped exactly the predicted counters.
It then restores the settle's own accounting, so the shadow run must
end with the normal run's result, byte for byte.  A second run checks
that every port change reaches the mask.  Both cover every mechanism,
the Table I machine and a 4-entry-MSHR one (where nearly every store
parks), fault injection off and ``medium``, 1 and 16 cores, and a
warm-up reset in the middle of the run or none.
"""

import dataclasses
from collections import Counter as Tally

import pytest

from repro.coherence.msgs import SnoopKind
from repro.common.config import MECHANISMS, table_i
from repro.cpu.core import DEFER, Core
from repro.cpu.stall import StallReason
from repro.faults import FaultInjector, FaultPlan, INTENSITIES
from repro.mem.cacheline import State
from repro.sim.system import System
from repro.workloads import make_parallel_traces, make_trace

SEED, FAULT_SEED = 42, 5


def machine(name, mechanism, cores):
    config = table_i()
    if name == "mshr4":
        memory = config.memory
        config = dataclasses.replace(config, memory=dataclasses.replace(
            memory, l1d=dataclasses.replace(memory.l1d, mshrs=4)))
    return config.with_mechanism(mechanism).with_sb_size(114) \
        .with_cores(cores)


def traces(cores):
    if cores == 1:
        return [make_trace("502.gcc2", 1_000, SEED)]
    return make_parallel_traces("dedup", cores, 100, SEED)


def leaves(group, prefix=""):
    """Every counter and histogram of a stats subtree, as (flattened
    key, statistic) pairs."""
    path = f"{prefix}{group.name}."
    out = [(path + name, stat) for name, stat in group._counters.items()]
    out += [(path + name, stat) for name, stat in group._histograms.items()]
    for child in group._children.values():
        out += leaves(child, path)
    return out


def values(stats):
    """The current value of every statistic of ``leaves()``."""
    return {key: (stat.value if hasattr(stat, "value")
                  else (stat.count, stat.total, tuple(stat.buckets),
                        stat.overflow))
            for key, stat in stats}


def snapshot(core):
    """What a no-op step must leave as it was: the mechanism's state,
    the port stamp, the SB/ROB/LQ occupancy and ends, the dispatch
    point and stall reason, the port's MSHR waiters and parked
    requests, and the port's statistics."""
    port = core.port
    rob, sb = core.rob, core.sb._entries
    return (core.mechanism.modelcheck_state(),
            port.epoch, port.mshrs.version,
            len(sb), len(rob), len(core.lq),
            sb[0].committed if sb else None,
            rob[0] if rob else None, rob[-1] if rob else None,
            core._next_uop, core.last_stall,
            sorted((entry.addr, entry.is_write, len(entry.waiters))
                   for entry in port.mshrs._entries.values()),
            len(port._pending), dict(port._pending_writes))


def touch_all(system):
    """Make the run loop treat every stale core's port as touched on
    every event cycle, so it re-evaluates each one there instead of
    letting skips pile up: every settle then covers one skip, at the
    current cycle."""
    events, memsys = system.events, system.memsys
    everyone = (1 << len(system.cores)) - 1
    real_run_until = events.run_until

    def run_until(cycle):
        fired = real_run_until(cycle)
        if fired:
            memsys.touched = everyone
        return fired
    events.run_until = run_until


def shadow_settle(skips, systems):
    """A ``Core.settle_skips`` for a :func:`touch_all` run that steps
    the core for real and checks the step against the skip, then leaves
    the accounting as the settle would have."""
    stats_of = {}

    def settle_skips(core, charge, count, since, cycle):
        assert (count, cycle) == (1, systems[-1].cycle), (core.core_id,
                                                          count, cycle)
        if core not in stats_of:
            stats_of[core] = (leaves(core.stats), leaves(core.port.stats))
        core_stats, port_stats = stats_of[core]
        before_state = snapshot(core)
        before, before_port = values(core_stats), values(port_stats)
        reason = core.last_stall
        assert not Core.step(core, cycle), (core.core_id, cycle)
        assert snapshot(core) == before_state, (core.core_id, cycle)
        assert values(port_stats) == before_port, (core.core_id, cycle)
        after = values(core_stats)
        delta = {key: (after[key] - before[key]
                       if isinstance(after[key], int)
                       else (before[key], after[key]))
                 for key in after if after[key] != before[key]}
        stall = f"{core.stats.name}.stalls.{reason.label}"
        expected = Tally({stall: 1, f"{core.stats.name}.stall_cycles": 1})
        if charge is not DEFER:
            paths = {id(stat): key for key, stat in core_stats}
            for counter, amount in charge:
                expected[paths[id(counter)]] += amount
        assert delta == dict(expected), (core.core_id, cycle, charge)
        assert reason is not StallReason.NONE
        skips["defer" if charge is DEFER else "charge"] += 1
        if charge is DEFER:
            # The skip leaves the cycle to the deferred charge.
            core.stalls._by_index[reason].value -= 1
            core.stalls._total.value -= 1
            return since
        core.charge_skipped(cycle - since - 1, cycle)
        return cycle
    return settle_skips


def simulate(mechanism, machine_name, faults, cores, warmup, prepare=None):
    system = System(machine(machine_name, mechanism, cores),
                    traces(cores), workload="shadow")
    if faults:
        FaultInjector(system,
                      FaultPlan(FAULT_SEED, INTENSITIES["medium"])).attach()
    if prepare is not None:
        prepare(system)
    total = sum(len(core.trace.uops) for core in system.cores)
    return system.run(warmup_committed=total * 3 // 10 if warmup else 0)


CASES = [(mechanism, machine_name, faults, cores, warmup)
         for mechanism in MECHANISMS
         for machine_name in ("table_i", "mshr4")
         for faults in (False, True)
         for cores in (1, 16)
         for warmup in (False, True)]


@pytest.mark.parametrize("mechanism,machine_name,faults,cores,warmup",
                         CASES)
def test_shadow_steps_match_the_skips(monkeypatch, mechanism, machine_name,
                                      faults, cores, warmup):
    normal = simulate(mechanism, machine_name, faults, cores, warmup)
    skips, systems = Tally(), []

    def prepare(system):
        systems.append(system)
        touch_all(system)

    monkeypatch.setattr(Core, "settle_skips", shadow_settle(skips, systems))
    shadow = simulate(mechanism, machine_name, faults, cores, warmup,
                      prepare)
    assert shadow.canonical_json() == normal.canonical_json()
    if cores > 1:
        assert skips["defer"] > 0
        if mechanism in ("baseline", "spb", "tus"):
            # Their drains are provably idle while blocked on a request
            # or a refused flush (CSB and SSB keep the drain_idle rule).
            assert skips["charge"] > 0


@pytest.mark.parametrize("mechanism,machine_name,faults,cores,warmup",
                         CASES)
def test_every_port_change_marks_its_core(monkeypatch, mechanism,
                                          machine_name, faults, cores,
                                          warmup):
    """The run loop visits a stale core only when its bit in
    ``MemorySystem.touched`` is set, so a port change that misses the
    mask would freeze the core.  After every event cycle and every core
    step, each live stale core whose port stamp moved since the loop
    last evaluated it (or that was never evaluated since it went stale)
    must have its bit set."""
    state = {}
    changed = Tally()

    def check():
        system = state["system"]
        touched = system.memsys.touched
        for cid, stamp in state["stale"].items():
            port = system.cores[cid].port
            if stamp != (port.epoch, port.mshrs.version):
                assert touched >> cid & 1, (cid, system.cycle)
                changed["stale cores touched"] += 1

    def prepare(system):
        state.update(system=system, stale={})
        real_run_until = system.events.run_until

        def run_until(cycle):
            fired = real_run_until(cycle)
            check()
            return fired
        system.events.run_until = run_until

    real_step, real_idle_charge = Core.step, Core.idle_charge

    def step(core, cycle):
        state["stale"].pop(core.core_id, None)
        progress = real_step(core, cycle)
        check()
        if not progress and not core.is_done():
            state["stale"][core.core_id] = None
        return progress

    def idle_charge(core, cycle):
        port = core.port
        state["stale"][core.core_id] = (port.epoch, port.mshrs.version)
        return real_idle_charge(core, cycle)

    monkeypatch.setattr(Core, "step", step)
    monkeypatch.setattr(Core, "idle_charge", idle_charge)
    simulate(mechanism, machine_name, faults, cores, warmup, prepare)
    if cores > 1:
        assert changed["stale cores touched"] > 0


def test_each_port_change_source_marks_its_core():
    """Fills, snoops and MSHR allocation and retirement each bump the
    port's epoch and set the core's bit.  The run above cannot tell an
    MSHR change apart: on these runs every one on a stale core's port
    happens inside a fill, which marks the core first."""
    memsys = System(machine("table_i", "baseline", 2), traces(2)).memsys
    port = memsys.ports[1]
    changes = {
        "mshr allocate": lambda: port.mshrs.allocate(0x1000, False, 0),
        "mshr complete": lambda: port.mshrs.complete(0x1000, 5),
        "snoop": lambda: port._snoop(0x2000, SnoopKind.INVALIDATE, 0, 6),
        "fill": lambda: port._fill(0x3000, State.E, 7, None),
    }
    for name, change in changes.items():
        memsys.touched = 0
        epoch = port.epoch
        change()
        assert (memsys.touched, port.epoch) == (0b10, epoch + 1), name


def test_skips_cut_steps_without_moving_results(monkeypatch):
    """The skip is live: on a 16-core run most event-cycle re-steps of a
    blocked core disappear, and the result does not move.  The skipping
    itself is proportional to port changes, not to event cycles."""
    calls = Tally()

    def counting(name):
        real = getattr(Core, name)

        def method(core, *args):
            calls[name] += 1
            return real(core, *args)
        monkeypatch.setattr(Core, name, method)

    for name in ("step", "idle_charge", "settle_skips"):
        counting(name)
    normal = simulate("baseline", "table_i", False, 16, False)
    counts = dict(calls)
    calls.clear()
    simulate("baseline", "table_i", False, 16, False, touch_all)
    per_skip = calls["settle_skips"]
    calls.clear()
    # Settling one skip at a time (touch_all) reproduces the per-skip
    # accounting of a loop that visits every stale core on every event
    # cycle: 16,559 calls here, as many as the earlier per-skip
    # ``Core.skip_idle`` made on this run.  Event-driven visits need
    # 1,090 idle_charge plus 839 settle calls instead.
    assert counts["idle_charge"] + counts["settle_skips"] < per_skip * 0.25
    monkeypatch.setattr(Core, "idle_charge",
                        lambda core, cycle: DEFER if core.stuck_at(cycle)
                        else None)
    unskipped = simulate("baseline", "table_i", False, 16, False)
    assert unskipped.canonical_json() == normal.canonical_json()
    assert counts["step"] < calls["step"] * 0.75
