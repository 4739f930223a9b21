"""Extended litmus shapes beyond the named suite.

Covers the remaining classic two-thread x86-TSO shapes (R, S, 2+2W)
and TUS-specific stress programs (same-line racing writers, fenced
producer/consumer), all under the subset check.
"""

import pytest

from repro.models import Fence, Load, Program, Store, enumerate_tus_outcomes
from repro.models.tso import enumerate_outcomes

X, Y = 0x1000, 0x2000


def subset_check(program):
    tso = enumerate_outcomes(program)
    tus = enumerate_tus_outcomes(program)
    assert tus <= tso
    return tso, tus


class TestClassicShapes:
    def test_r_shape(self):
        # R: w(x) w(y) || w(y) r(x)
        program = Program([
            [Store(X, 1), Store(Y, 1)],
            [Store(Y, 2), Load(X, "r1")],
        ], name="R")
        subset_check(program)

    def test_s_shape(self):
        # S: w(x) w(y) || r(y) w(x)
        program = Program([
            [Store(X, 2), Store(Y, 1)],
            [Load(Y, "r1"), Store(X, 1)],
        ], name="S")
        subset_check(program)

    def test_2_plus_2w(self):
        # 2+2W: w(x,1) w(y,2) || w(y,1) w(x,2)
        program = Program([
            [Store(X, 1), Store(Y, 2)],
            [Store(Y, 1), Store(X, 2)],
        ], name="2+2W")
        tso, tus = subset_check(program)
        # Both final-memory cyclic outcomes are TSO-allowed; TUS must
        # produce at least the sequential ones.
        finals = {tuple(mem) for _r, mem in tus}
        assert len(finals) >= 2

    def test_mp_with_producer_fence(self):
        program = Program([
            [Store(X, 1), Fence(), Store(Y, 1)],
            [Load(Y, "r1"), Load(X, "r2")],
        ], name="MP+fence")
        tso, tus = subset_check(program)
        for regs, _mem in tus:
            values = dict(regs)
            if values["r1"] == 1:
                assert values["r2"] == 1

    def test_racing_writers_same_line(self):
        program = Program([
            [Store(X, 1), Store(X, 2)],
            [Store(X, 3), Load(X, "r1")],
        ], name="race")
        tso, tus = subset_check(program)
        # Coherence: the final value is one of the written values.
        for _regs, mem in tus:
            assert dict(mem)[X] in (1, 2, 3)
        # The second writer's own load never sees its overwritten
        # predecessor... (it may see 3 or a later remote value; never 0)
        for regs, _mem in tus:
            assert dict(regs)["r1"] != 0


class TestCoalescingStress:
    def test_many_writes_one_line_stay_coherent(self):
        program = Program([
            [Store(X, i) for i in range(1, 5)],
            [Load(X, "r1"), Load(X, "r2")],
        ], name="multiwrite")
        tso, tus = subset_check(program)
        # Same-location loads never observe values going backwards.
        order = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        for regs, _mem in tus:
            values = dict(regs)
            assert order[values["r2"]] >= order[values["r1"]]

    def test_three_line_cycle(self):
        program = Program([
            [Store(X, 1), Store(Y, 1), Store(X, 2), Store(Y, 2),
             Store(X, 3)],
            [Load(X, "r1"), Load(Y, "r2")],
        ], name="3cycle")
        subset_check(program)

    def test_fence_separated_groups(self):
        program = Program([
            [Store(X, 1), Store(Y, 1), Fence(), Store(X, 2)],
            [Load(X, "r1"), Load(Y, "r2")],
        ], name="fence-split")
        tso, tus = subset_check(program)
        # If the reader sees X=2 the pre-fence stores are complete.
        for regs, _mem in tus:
            values = dict(regs)
            if values["r1"] == 2:
                assert values["r2"] == 1
