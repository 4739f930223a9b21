"""The run loop's port-aware staleness skip is complete and exact.

``System.run`` skips a stale core on an event cycle while its port stamp
holds and ``Core.idle_charge`` proves the step a no-op, charging what
the step would have charged.  The shadow run below replaces every such
skip (``Core.skip_idle``) with the real step and checks, at each one,
that the step made no progress, changed no core, mechanism or port
state, and bumped exactly the predicted counters.  It then restores
the skip's own accounting, so the shadow run must end with the normal
run's result, byte for byte.  This covers every mechanism, the Table I
machine and a 4-entry-MSHR one (where nearly every store parks), fault
injection off and ``medium``, 1 and 16 cores, and a warm-up reset in
the middle of the run or none.
"""

import dataclasses
from collections import Counter as Tally

import pytest

from repro.common.config import MECHANISMS, table_i
from repro.cpu.core import DEFER, Core
from repro.cpu.stall import StallReason
from repro.faults import FaultInjector, FaultPlan, INTENSITIES
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


def shadow_skip(skips):
    """A ``Core.skip_idle`` that steps the core for real and checks the
    step against the skip, then leaves the accounting as the skip
    would have."""
    stats_of = {}

    def skip_idle(core, charge, since, cycle):
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
    return skip_idle


def simulate(mechanism, machine_name, faults, cores, warmup):
    system = System(machine(machine_name, mechanism, cores),
                    traces(cores), workload="shadow")
    if faults:
        FaultInjector(system,
                      FaultPlan(FAULT_SEED, INTENSITIES["medium"])).attach()
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
    skips = Tally()
    monkeypatch.setattr(Core, "skip_idle", shadow_skip(skips))
    shadow = simulate(mechanism, machine_name, faults, cores, warmup)
    assert shadow.canonical_json() == normal.canonical_json()
    if cores > 1:
        assert skips["defer"] > 0
        if mechanism in ("baseline", "spb", "tus"):
            # Their drains are provably idle while blocked on a request
            # or a refused flush (CSB and SSB keep the drain_idle rule).
            assert skips["charge"] > 0


def test_skips_cut_steps_without_moving_results(monkeypatch):
    """The skip is live: on a 16-core run most event-cycle re-steps of a
    blocked core disappear, and the result does not move."""
    steps = Tally()
    real_step = Core.step

    def counting_step(core, cycle):
        steps["calls"] += 1
        return real_step(core, cycle)

    monkeypatch.setattr(Core, "step", counting_step)
    normal = simulate("baseline", "table_i", False, 16, False)
    calls = steps["calls"]
    steps.clear()
    monkeypatch.setattr(Core, "idle_charge",
                        lambda core, cycle: DEFER if core.stuck_at(cycle)
                        else None)
    unskipped = simulate("baseline", "table_i", False, 16, False)
    assert unskipped.canonical_json() == normal.canonical_json()
    assert calls < steps["calls"] * 0.75
