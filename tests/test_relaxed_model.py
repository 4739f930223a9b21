"""The relaxed operational backend: semantics + differential suite.

Semantics: the classic relaxed-memory deltas must be observable —
MP/LB/WRC/IRIW/2+2W criticals show up under ``relaxed`` and never under
``tso`` — while coherence (CoRR) and cumulative fences still hold.

Differential (mirroring the PR 4 tus-vs-baseline suite): over seeded
single-writer programs, the TUS atomic-group machine ported onto the
relaxed storage must agree with the relaxed reference machine on final
memory (schedule-independent for single-writer programs: same-address
stores never reorder, so coherence order is program order) and must
apply each address's writes in program order.
"""

import random

import pytest

from repro.models import (Fence, Load, Program, Store, get_model,
                          enumerate_model_outcomes, enumerate_tus_outcomes)
from repro.models.corpus import ALLOWED, corpus
from repro.models.relaxed import RelaxedMachine

CORPUS = {entry.name: entry for entry in corpus()}

#: The TUS machine on the relaxed storage.
relaxed_tus = get_model("relaxed").machine

#: Criticals that distinguish the models: observable under relaxed,
#: forbidden under TSO.
RELAXED_ONLY = ("MP", "LB", "WRC", "IRIW", "2+2W", "ABA-coalesce",
                "interleave")

#: Fenced shapes: forbidden under both models.
FENCED = ("SB+fences", "MP+fences", "LB+fences", "WRC+fences",
          "IRIW+fences")


class TestRelaxedSemantics:
    @pytest.mark.parametrize("name", RELAXED_ONLY)
    def test_relaxed_only_outcomes(self, name):
        entry = CORPUS[name]
        relaxed = enumerate_model_outcomes(entry.program, model="relaxed")
        tso = enumerate_model_outcomes(entry.program, model="tso")
        assert entry.observable(relaxed), \
            f"{name} critical must be observable under relaxed"
        assert not entry.observable(tso), \
            f"{name} critical must stay forbidden under tso"

    @pytest.mark.parametrize("name", FENCED)
    def test_fences_restore_order(self, name):
        entry = CORPUS[name]
        relaxed = enumerate_model_outcomes(entry.program, model="relaxed")
        assert not entry.observable(relaxed), \
            f"{name} critical must be fenced off under relaxed"

    def test_coherence_survives_relaxation(self):
        entry = CORPUS["CoRR"]
        relaxed = enumerate_model_outcomes(entry.program, model="relaxed")
        assert not entry.observable(relaxed)

    def test_relaxed_is_weaker_than_tso_on_corpus(self):
        # Every TSO outcome stays reachable; somewhere the inclusion is
        # strict (that's the whole point of the backend).
        strict = False
        for entry in corpus():
            tso = enumerate_model_outcomes(entry.program, model="tso")
            relaxed = enumerate_model_outcomes(entry.program,
                                               model="relaxed")
            assert tso <= relaxed, entry.name
            strict |= tso < relaxed
        assert strict

    def test_tus_on_relaxed_subset_of_reference(self):
        for entry in corpus():
            ref = enumerate_model_outcomes(entry.program, model="relaxed")
            tus = enumerate_tus_outcomes(entry.program, model="relaxed")
            assert tus <= ref, entry.name

    def test_fence_flushes_observations(self):
        # Cumulativity: after c1 fences between reading x and writing y,
        # any core that sees y=1 must also see x=1 (fenced WRC).
        entry = CORPUS["WRC+fences"]
        outcomes = enumerate_model_outcomes(entry.program, model="relaxed")
        for regs, _ in outcomes:
            values = dict(regs)
            if values["r1"] == 1 and values["r2"] == 1:
                assert values["r3"] == 1


# ---------------------------------------------------------------------------
# Differential equivalence: TUS-on-relaxed vs the relaxed reference over
# seeded single-writer programs (mirrors the PR 4 tus-vs-baseline suite).
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


def run_logged_walk(machine, seed):
    """Drive one relaxed machine down a seeded random schedule, logging
    every write in coherence (commit) order as ``(cid, addr, value)``."""
    rng = random.Random(seed)
    while True:
        steps = machine.enabled_steps()
        if not steps:
            break
        machine.step(*rng.choice(steps))
    assert machine.done(), "machine stuck before completion"
    commits = [(cid, addr, value)
               for cid, writes in machine.storage.batches
               for addr, value in writes]
    memory = machine.storage.memory(machine.program.addresses())
    return memory, commits


class TestDifferentialEquivalence:
    PROGRAMS = 50
    WALKS_PER_PROGRAM = 3

    @pytest.mark.parametrize("seed", range(PROGRAMS))
    def test_tus_and_reference_agree_on_final_memory(self, seed):
        program = make_random_program(seed)
        expected = expected_final_memory(program)
        for walk in range(self.WALKS_PER_PROGRAM):
            for machine in (RelaxedMachine(program),
                            relaxed_tus(program),
                            relaxed_tus(program, coalescing=False)):
                memory, _ = run_logged_walk(machine, seed * 1000 + walk)
                assert memory == expected

    @pytest.mark.parametrize("seed", range(PROGRAMS))
    def test_commit_order_respects_program_order_per_address(self, seed):
        program = make_random_program(seed)
        for walk in range(self.WALKS_PER_PROGRAM):
            for machine in (RelaxedMachine(program),
                            relaxed_tus(program)):
                _, commits = run_logged_walk(machine, seed * 1000 + walk)
                for cid, thread in enumerate(program.threads):
                    for addr in {op.addr for op in thread
                                 if isinstance(op, Store)}:
                        applied = [v for c, a, v in commits
                                   if c == cid and a == addr]
                        in_program = [op.value for op in thread
                                      if isinstance(op, Store)
                                      and op.addr == addr]
                        assert applied == in_program


class TestRelaxedMachineDetails:
    def test_reads_never_go_backwards_per_core(self):
        # Per-location SC, operationally: once a core reads value v of
        # an address, a later read of the same address on that core
        # never returns an older coherence position.
        program = Program([
            [Store(0x10, 1), Store(0x10, 2)],
            [Load(0x10, "a1"), Load(0x10, "a2")],
        ])
        for regs, _ in enumerate_model_outcomes(program, model="relaxed"):
            values = dict(regs)
            assert (values["a1"], values["a2"]) not in \
                ((1, 0), (2, 0), (2, 1))

    def test_fence_waits_for_pending_stores_in_tus_machine(self):
        # Mirrors the TSO TUS machine's fence rule: exec of a fence is
        # only enabled once SB and pending groups drained.
        program = Program([[Store(0x10, 1), Fence(), Load(0x20, "r1")]])
        machine = relaxed_tus(program)
        machine.step("exec", 0)            # buffer the store
        kinds = {step[0] for step in machine.enabled_steps()}
        assert kinds == {"drain"}
        machine.step("drain", 0)
        kinds = {step[0] for step in machine.enabled_steps()}
        assert kinds == {"visible"}

    def test_group_level_store_store_reordering(self):
        # Two pending groups touching disjoint lines may publish in
        # either order; same-line groups may not.
        program = Program([[Store(0x10, 1), Store(0x20, 2)]])
        machine = relaxed_tus(program, coalescing=False)
        for _ in range(2):
            machine.step("exec", 0)
            machine.step("drain", 0)
        visible = {step for step in machine.enabled_steps()
                   if step[0] == "visible"}
        assert visible == {("visible", 0, 0), ("visible", 0, 1)}

    def test_same_line_groups_publish_in_order(self):
        program = Program([[Store(0x10, 1), Store(0x10, 2)]])
        machine = relaxed_tus(program, coalescing=False)
        for _ in range(2):
            machine.step("exec", 0)
            machine.step("drain", 0)
        visible = {step for step in machine.enabled_steps()
                   if step[0] == "visible"}
        assert visible == {("visible", 0, 0)}

    def test_corpus_verdicts_cover_relaxed(self):
        model = get_model("relaxed")
        for entry in corpus():
            allowed = entry.verdict(model.name) == ALLOWED
            outcomes = model.reference_outcomes(entry.program)
            assert entry.observable(outcomes) == allowed, entry.name
