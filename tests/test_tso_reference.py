"""The operational x86-TSO reference model on classic litmus shapes."""

import random

import pytest

from repro.models import Fence, Load, Program, Store, get_model
from repro.models.corpus import X, Y, corpus_by_name
from repro.models.tso import enumerate_outcomes

LITMUS = {name: entry.program for name, entry in corpus_by_name().items()}


def reg_tuples(outcomes):
    return {o[0] for o in outcomes}


class TestStoreBuffering:
    def test_relaxed_outcome_allowed(self):
        # The signature TSO behaviour: both loads read 0.
        outcomes = enumerate_outcomes(LITMUS["SB"])
        assert (("r1", 0), ("r2", 0)) in reg_tuples(outcomes)

    def test_all_four_outcomes(self):
        outcomes = reg_tuples(enumerate_outcomes(LITMUS["SB"]))
        assert len(outcomes) == 4

    def test_fences_forbid_zero_zero(self):
        outcomes = reg_tuples(enumerate_outcomes(LITMUS["SB+fences"]))
        assert (("r1", 0), ("r2", 0)) not in outcomes
        assert len(outcomes) == 3


class TestMessagePassing:
    def test_stale_flag_forbidden(self):
        # r1=1 (saw the flag) with r2=0 (missed the data) violates TSO's
        # store->store order.
        outcomes = reg_tuples(enumerate_outcomes(LITMUS["MP"]))
        assert (("r1", 1), ("r2", 0)) not in outcomes

    def test_allowed_outcomes(self):
        outcomes = reg_tuples(enumerate_outcomes(LITMUS["MP"]))
        assert (("r1", 1), ("r2", 1)) in outcomes
        assert (("r1", 0), ("r2", 0)) in outcomes
        assert (("r1", 0), ("r2", 1)) in outcomes


class TestStoreForwarding:
    def test_own_store_always_seen(self):
        # r1 and r3 read the cores' own just-written values, always.
        for outcome in enumerate_outcomes(LITMUS["SF"]):
            regs = dict(outcome[0])
            assert regs["r1"] == 1
            assert regs["r3"] == 1


class TestLoadOrdering:
    def test_loads_execute_in_program_order(self):
        # r1=1 then r2 must see at least the first store's effect if the
        # writes are ordered behind one flag store.
        prog = Program([
            [Store(X, 1)],
            [Load(X, "r1"), Load(X, "r2")],
        ])
        for outcome in enumerate_outcomes(prog):
            regs = dict(outcome[0])
            if regs["r1"] == 1:
                assert regs["r2"] == 1   # same location: no going back


class TestFinalMemory:
    def test_final_memory_reflects_all_stores(self):
        prog = Program([[Store(X, 1)], [Store(Y, 2)]])
        for outcome in enumerate_outcomes(prog):
            memory = dict(outcome[1])
            assert memory[X] == 1 and memory[Y] == 2

    def test_same_location_race_has_both_orders(self):
        prog = Program([[Store(X, 1)], [Store(X, 2)]])
        finals = {dict(o[1])[X] for o in enumerate_outcomes(prog)}
        assert finals == {1, 2}

    def test_fence_is_noop_with_empty_sb(self):
        prog = Program([[Fence(), Store(X, 1)]])
        outcomes = enumerate_outcomes(prog)
        assert len(outcomes) == 1


# ---------------------------------------------------------------------------
# Differential equivalence: TUS vs baseline over random programs.
#
# Each synthetic program gives every core a private set of addresses
# (single-writer), so the final memory contents are schedule-independent:
# whatever the interleaving, the last program-order store of the owning
# core must win.  Running the value-accurate TUS machine (coalescing
# store path) and the baseline machine (FIFO store path) over seeded
# random schedules must therefore reach the *same* final memory — and
# the order in which a TUS core's writes reach memory must preserve
# the core's program order per address (the TSO-preservation property
# of paper Section III-D, checked operationally).
# ---------------------------------------------------------------------------

_ADDRS_PER_CORE = 2
_OPS_PER_THREAD = 6


def make_random_program(seed, cores=2):
    rng = random.Random(seed)
    threads = []
    value = 0
    for cid in range(cores):
        own = [0x100 * (cid + 1) + 8 * j for j in range(_ADDRS_PER_CORE)]
        every = [0x100 * (c + 1) + 8 * j for c in range(cores)
                 for j in range(_ADDRS_PER_CORE)]
        ops = []
        for i in range(_OPS_PER_THREAD):
            roll = rng.random()
            if roll < 0.65:
                value += 1
                ops.append(Store(rng.choice(own), value))
            elif roll < 0.9:
                ops.append(Load(rng.choice(every), f"r{cid}_{i}"))
            else:
                ops.append(Fence())
        threads.append(ops)
    return Program(threads)


def expected_final_memory(program):
    """Last program-order store per address (single-writer programs)."""
    final = {}
    for thread in program.threads:
        for op in thread:
            if isinstance(op, Store):
                final[op.addr] = op.value
    return final


def run_logged_walk(program, coalescing, seed):
    """Drive one machine down a seeded random schedule, logging every
    write in the order it reaches memory as ``(cid, addr, value)``."""
    rng = random.Random(seed)
    machine = get_model("tso").machine(program, coalescing=coalescing)
    commits = []
    while True:
        steps = machine.enabled_steps()
        if not steps:
            break
        token = rng.choice(steps)
        kind, cid = token[:2]
        if kind == "visible":
            commits.extend((cid, addr, value)
                           for addr, value in machine.cores[cid].groups[0])
        machine.step(*token)
    assert machine.done(), "machine stuck before completion"
    return machine.memory, commits


class TestDifferentialEquivalence:
    PROGRAMS = 50
    WALKS_PER_PROGRAM = 3

    @pytest.mark.parametrize("seed", range(PROGRAMS))
    def test_tus_and_baseline_agree_on_final_memory(self, seed):
        program = make_random_program(seed)
        expected = expected_final_memory(program)
        for walk in range(self.WALKS_PER_PROGRAM):
            for coalescing in (True, False):
                memory, _ = run_logged_walk(program, coalescing,
                                            seed * 1000 + walk)
                assert memory == expected

    @pytest.mark.parametrize("seed", range(PROGRAMS))
    def test_tus_commit_order_respects_program_order(self, seed):
        program = make_random_program(seed)
        for walk in range(self.WALKS_PER_PROGRAM):
            _, commits = run_logged_walk(program, True, seed * 1000 + walk)
            for cid, thread in enumerate(program.threads):
                for addr in {op.addr for op in thread
                             if isinstance(op, Store)}:
                    applied = [v for c, a, v in commits
                               if c == cid and a == addr]
                    in_program = [op.value for op in thread
                                  if isinstance(op, Store)
                                  and op.addr == addr]
                    assert applied == in_program
