"""TUS preserves x86-TSO: machine outcomes are a subset of the reference.

This is the executable version of the paper's Section III-D argument.
The exhaustive check runs every litmus-corpus program; the hypothesis
test generates random small programs and random schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (Fence, Load, Program, Store,
                          enumerate_mechanism_outcomes,
                          enumerate_tus_outcomes, get_model,
                          random_walk_outcomes)
from repro.models.corpus import X, Y, corpus_by_name
from repro.models.tso import enumerate_outcomes

from .support import max_examples


LITMUS = {name: entry.program for name, entry in corpus_by_name().items()}

#: The TUS machine on the x86-TSO storage.
tso_machine = get_model("tso").machine


class TestLitmusSubset:
    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_tus_subset_of_tso(self, name):
        program = LITMUS[name]
        tso = enumerate_outcomes(program)
        tus = enumerate_tus_outcomes(program)
        assert tus <= tso, f"{name}: TUS produced non-TSO outcomes"

    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_tus_produces_something(self, name):
        program = LITMUS[name]
        assert enumerate_tus_outcomes(program)


class TestCoalescingAtomicity:
    def test_aba_observer_never_sees_new_a_before_b(self):
        # Program: X=1; Y=1; X=2 with a cycle merging {X, Y}.  If an
        # observer reads X=2, it must also read Y=1 (the group published
        # atomically and the groups in between published first).
        outcomes = enumerate_tus_outcomes(LITMUS["ABA-coalesce"])
        for regs, _mem in outcomes:
            values = dict(regs)
            if values["r1"] == 2:
                assert values["r2"] == 1

    def test_machine_coalesces_same_line(self):
        machine = tso_machine(Program([[Store(X, 1), Store(X, 2)]]))
        machine.step("exec", 0)
        machine.step("exec", 0)
        machine.step("drain", 0)
        machine.step("drain", 0)
        assert len(machine.cores[0].groups) == 1

    def test_cycle_merges_pending_groups(self):
        machine = tso_machine(Program([[
            Store(X, 1), Store(Y, 1), Store(X, 2)]]))
        for _ in range(3):
            machine.step("exec", 0)
        for _ in range(3):
            machine.step("drain", 0)
        assert len(machine.cores[0].groups) == 1   # {X, Y} merged

    def test_group_publishes_atomically(self):
        machine = tso_machine(Program([[
            Store(X, 1), Store(Y, 1), Store(X, 2)]]))
        for _ in range(3):
            machine.step("exec", 0)
        for _ in range(3):
            machine.step("drain", 0)
        machine.step("visible", 0, 0)
        assert machine.memory == {X: 2, Y: 1}


class TestNonCoalescing:
    """With coalescing off, the machine publishes singleton groups in
    FIFO order — it *is* the plain x86-TSO reference, outcome for
    outcome.  This pins the abstraction: everything TUS/CSB add beyond
    TSO is in the coalescing, nothing else."""

    @pytest.mark.parametrize("name", sorted(LITMUS))
    def test_exactly_the_tso_reference(self, name):
        program = LITMUS[name]
        machine = enumerate_mechanism_outcomes(program, "baseline")
        assert machine == enumerate_outcomes(program)

    def test_mechanism_names_are_validated(self):
        with pytest.raises(ValueError):
            enumerate_mechanism_outcomes(LITMUS["SB"], "nope")


class TestLocalReads:
    def test_load_sees_own_sb(self):
        machine = tso_machine(Program([[Store(X, 7), Load(X, "r1")]]))
        machine.step("exec", 0)
        machine.step("exec", 0)
        assert machine.regs["r1"] == 7

    def test_load_sees_pending_group(self):
        machine = tso_machine(Program([[Store(X, 7), Load(X, "r1")]]))
        machine.step("exec", 0)
        machine.step("drain", 0)
        machine.step("exec", 0)
        assert machine.regs["r1"] == 7

    def test_load_sees_youngest_pending_write(self):
        machine = tso_machine(Program([[
            Store(X, 1), Store(X, 2), Load(X, "r1")]]))
        machine.step("exec", 0)
        machine.step("drain", 0)
        machine.step("exec", 0)
        machine.step("drain", 0)
        machine.step("exec", 0)
        assert machine.regs["r1"] == 2


class TestFences:
    def test_fence_blocked_until_drained(self):
        machine = tso_machine(Program([[Store(X, 1), Fence()]]))
        machine.step("exec", 0)
        steps = machine.enabled_steps()
        assert ("exec", 0) not in steps   # fence waits
        machine.step("drain", 0)
        machine.step("visible", 0, 0)
        assert ("exec", 0) in machine.enabled_steps()


def _program_strategy():
    addr = st.sampled_from([X, Y])
    value = st.integers(1, 3)
    return st.lists(
        st.lists(
            st.one_of(
                st.builds(Store, addr, value),
                st.builds(lambda a: ("load", a), addr),
            ),
            min_size=1, max_size=3),
        min_size=2, max_size=2,
    )


@settings(max_examples=max_examples(40), deadline=None)
@given(_program_strategy())
def test_random_programs_subset(threads):
    """Property: for random 2-thread programs, every outcome of the TUS
    machine under random schedules is x86-TSO-allowed."""
    counter = [0]

    def realise(thread):
        ops = []
        for op in thread:
            if isinstance(op, tuple):
                counter[0] += 1
                ops.append(Load(op[1], f"r{counter[0]}"))
            else:
                ops.append(op)
        return ops

    program = Program([realise(t) for t in threads])
    tso = enumerate_outcomes(program)
    tus = random_walk_outcomes(program, walks=60, seed=7)
    assert tus <= tso
