"""The protocol model checker: exhaustive exploration, counterexamples.

The positive direction: every mechanism passes the invariant library
over all interleavings of the 2-core scenarios.  The negative
direction (the acceptance case for the subsystem): reverting the
atomic-group authorization fix behind ``unsound=True`` must produce a
wait-graph counterexample whose minimised schedule replays
deterministically.
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

import repro.modelcheck.explorer as explorer_module
import repro.modelcheck.scheduler as scheduler_module
from repro.common.config import MECHANISMS
from repro.common.pool import TaskFailure
from repro.harness import checks
from repro.harness.checks import CheckJob, run_check, run_checks
from repro.mechanisms.tus import TUSMechanism
from repro.modelcheck import (INVARIANTS, SCENARIOS, MemoryFrontier,
                              explore, fuzz, get_scenario, replay,
                              run_schedule)
from repro.modelcheck.explorer import CheckRunner
from repro.modelcheck.scheduler import RandomScheduler


class TestDefaultSchedules:
    """Every (scenario, mechanism) cell completes under the default
    (first-enabled-action) schedule with all work committed."""

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_runs_to_completion(self, scenario, mechanism):
        outcome = run_schedule(scenario, mechanism, (), cores=2, lines=2)
        assert outcome.kind == "done"
        programs = get_scenario(scenario).build(2, 2)
        assert outcome.committed == tuple(len(p) for p in programs)

    def test_tiny_cycle_budget_reports_deadlock(self):
        outcome = run_schedule("overlap", "tus", (), cores=2, lines=2,
                               max_cycles=3)
        assert outcome.kind == "violation"
        assert outcome.invariant == "deadlock"


#: Exhaustive ``--por off`` counts of every mechanism on four scenarios
#: at 2 cores x 2 lines, recorded before the checker's machines went
#: stats-free: executions, unique/terminal states, distinct terminals
#: and the terminal fingerprint.
PINNED_COUNTS = json.loads(
    (Path(__file__).parent / "data" / "check_counts.json").read_text())


def _assert_pinned(scenario, mechanism):
    pins = PINNED_COUNTS["checks"][f"{scenario}/{mechanism}"]
    report = explore(scenario, mechanism, cores=PINNED_COUNTS["cores"],
                     lines=PINNED_COUNTS["lines"], por=PINNED_COUNTS["por"])
    assert report.passed
    assert report.complete
    assert {name: getattr(report, name) for name in pins} == pins


class TestExhaustive:
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_overlap_all_mechanisms_pass(self, mechanism):
        _assert_pinned("overlap", mechanism)

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    @pytest.mark.parametrize("scenario", ("sb", "mp", "fence"))
    def test_pinned_counts(self, scenario, mechanism):
        _assert_pinned(scenario, mechanism)

    def test_pause_exposes_branches(self):
        outcome = run_schedule("overlap", "tus", (), cores=2, lines=2,
                               pause=True)
        assert outcome.kind == "frontier"
        assert outcome.branches >= 2
        assert outcome.key

    def test_out_of_range_choices_are_clamped(self):
        outcome = run_schedule("overlap", "tus", (99, 99), cores=2,
                               lines=2)
        assert outcome.kind == "done"


class TestCounterexample:
    """Unsound authorization -> minimised, deterministic wait-graph
    counterexample (the ISSUE acceptance case)."""

    @pytest.fixture(scope="class")
    def report(self):
        return explore("overlap", "tus", cores=2, lines=2, unsound=True)

    def test_violation_found(self, report):
        assert not report.passed
        assert report.violation.invariant == "wait-graph"
        assert "waits for" in report.violation.message

    def test_schedule_is_minimised(self, report):
        # The default (all-zeros) continuation does not trip the
        # invariant: the recorded choices are load-bearing.
        schedule = report.violation.schedule
        assert any(choice != 0 for choice in schedule)
        outcome = replay("overlap", "tus", (), unsound=True)
        assert outcome.kind == "done"

    def test_replays_deterministically(self, report):
        schedule = report.violation.schedule
        first = replay("overlap", "tus", schedule, unsound=True)
        second = replay("overlap", "tus", schedule, unsound=True)
        assert first.kind == second.kind == "violation"
        assert first.invariant == second.invariant == "wait-graph"
        assert first.message == second.message
        assert first.trace == second.trace

    def test_trace_is_human_readable(self, report):
        trace = report.violation.trace
        assert any("choose" in line for line in trace)
        assert any("step core" in line for line in trace)

    def test_pytest_snippet_mentions_replay(self, report):
        snippet = report.violation.as_pytest()
        assert "replay(" in snippet
        assert "'wait-graph'" in snippet

    def test_sound_configuration_has_no_counterexample(self):
        report = explore("overlap", "tus", cores=2, lines=2)
        assert report.passed and report.complete


def _describe_sha(violation) -> str:
    return hashlib.sha256(violation.describe().encode()).hexdigest()


class TestCounterexampleText:
    """The rendered counterexample — message, minimised schedule, the
    whole action trace and the replay snippet — is pinned byte for
    byte.  The trace is rendered lazily from the recorded actions and
    the replayed prefix is no longer re-checked, so these pins prove
    neither changes what a user reads."""

    EXHAUSTIVE = ("be6438a779630c1aa0cc42cb3d70084f"
                  "40d9e301e421184e8b17cbf304716b06")
    FUZZ = ("f594104504136cdee9823729cfb0ac93"
            "80799bda0cef1626f5df12a97d76362d")

    @pytest.mark.parametrize("por", ["off", "sleep", "persistent"])
    def test_exhaustive(self, por):
        report = explore("overlap", "tus", unsound=True, por=por)
        assert _describe_sha(report.violation) == self.EXHAUSTIVE

    def test_fuzz(self):
        report = fuzz("overlap", "tus", unsound=True, seed=0)
        assert _describe_sha(report.violation) == self.FUZZ


class TestMachineCounterexample:
    """A counterexample found on a non-default machine replays on that
    machine: the generated snippet carries the ``machine`` overrides."""

    MACHINE = {"topology": "mesh", "dir_shards": 2, "link_latency": 3}

    @pytest.fixture(scope="class")
    def violation(self):
        report = explore("overlap", "tus", unsound=True,
                         machine=self.MACHINE)
        return report.violation

    def test_generated_snippet_reproduces(self, violation):
        namespace = {}
        exec(violation.as_pytest(), namespace)
        namespace["test_replay_counterexample"]()

    def test_describe_names_the_machine(self, violation):
        assert f"machine {self.MACHINE}" in violation.describe()
        assert replay("overlap", "tus", violation.schedule, unsound=True,
                      machine=self.MACHINE).kind == "violation"

    def test_default_machine_is_not_mentioned(self):
        violation = explore("overlap", "tus", unsound=True,
                            machine={"topology": "p2p", "dir_shards": 1,
                                     "dram_channels": 1, "link_latency": 1}
                            ).violation
        assert "machine" not in violation.describe()
        assert "machine=" not in violation.as_pytest()


class TestCycleBudgetCounterexample:
    """A violation of the check's own cycle budget replays under that
    budget: the generated snippet carries ``max_cycles``."""

    def test_generated_snippet_reproduces(self):
        violation = explore("mixed", "tus", max_cycles=3).violation
        assert violation.invariant == "deadlock"
        namespace = {}
        exec(violation.as_pytest(), namespace)
        namespace["test_replay_counterexample"]()
        assert "max_cycles 3" in violation.describe()

    def test_default_budget_is_not_mentioned(self):
        violation = explore("overlap", "tus", unsound=True).violation
        assert "max_cycles" not in violation.describe()


def _check_every_action(monkeypatch):
    """Test-only: make the checking scheduler evaluate invariants on the
    replayed prefix too, as it did before the prefix skip."""
    monkeypatch.setattr(scheduler_module, "replayed_decisions",
                        lambda inner: 0)


def _late_publisher(ctx):
    """Fires once core 1 has published a line while core 0 has not: a
    state the default schedule never reaches, first met several
    decisions deep behind a non-zero branch."""
    events = ctx.observer.events
    if events.get(1) and not events.get(0):
        return (f"cycle {ctx.system.cycle}: core 1 published "
                f"{events[1]} first")
    return None


class TestPrefixSkipSoundness:
    """Skipping invariants on the replayed prefix of a frontier record
    finds exactly what checking every action finds."""

    @pytest.fixture
    def late_invariant(self, monkeypatch):
        monkeypatch.setitem(INVARIANTS, "late-publisher", _late_publisher)
        base = TUSMechanism.modelcheck_invariants
        monkeypatch.setattr(TUSMechanism, "modelcheck_invariants",
                            lambda self: base(self) + ("late-publisher",))

    @staticmethod
    def _explore(scenario):
        store = MemoryFrontier()
        report = explore(scenario, "tus", store=store)
        return report, store.get_violation()

    @pytest.mark.parametrize("scenario", ["overlap", "sb"])
    def test_violation_past_the_prefix(self, scenario, late_invariant,
                                       monkeypatch):
        skipped, skipped_raw = self._explore(scenario)
        _check_every_action(monkeypatch)
        checked, checked_raw = self._explore(scenario)
        assert checked.violation.invariant == "late-publisher"
        # Found past a replayed prefix, behind a non-zero branch.
        taken = checked_raw["taken"]
        assert len(taken) >= 2 and any(taken[1:])
        assert skipped_raw == checked_raw
        assert skipped.executions == checked.executions
        assert skipped.violation == checked.violation

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_check_matrix_counts_unchanged(self, scenario, monkeypatch):
        def counts():
            return [(r.executions, r.unique_states, r.terminal_states,
                     r.distinct_terminals, r.terminal_fingerprint,
                     r.complete, r.passed)
                    for r in (explore(scenario, "tus", por=por)
                              for por in ("off", "persistent"))]

        skipped = counts()
        _check_every_action(monkeypatch)
        assert counts() == skipped


#: The fields a kept outcome shares with a fresh run of its prefix
#: (``steps``, the raw trace, is dropped from a kept outcome).
OUTCOME_FIELDS = ("kind", "branches", "key", "taken", "actions",
                  "invariant", "message", "committed")


def _spy_on_settles(monkeypatch, resume=True):
    """Record each outcome a settled run continued into, with the
    child prefix it belongs to; with ``resume=False`` no run continues,
    so every record is replayed (the loop before resumption)."""
    continued = []
    call = CheckRunner.__call__

    def spy(self, schedule, pause, settle=None):
        if settle is None:
            return call(self, schedule, pause)
        branches = []

        def settle_spy(outcome):
            branches.append(settle(outcome))
            return branches[0] if resume else None

        outcome = call(self, schedule, pause, settle_spy)
        if resume and branches and branches[0] is not None:
            continued.append((tuple(schedule) + (branches[0],), outcome))
        return outcome

    monkeypatch.setattr(CheckRunner, "__call__", spy)
    return continued


def _report_fields(report):
    return (report.executions, report.unique_states, report.terminal_states,
            report.distinct_terminals, report.terminal_fingerprint,
            report.complete, report.truncated,
            report.violation and report.violation.describe())


class TestResumption:
    """A run that settles its record at the pause goes on into the
    first child it pushed.  That child's kept outcome equals a fresh
    replay of its prefix field by field, and the check's counts equal
    those of a drain that replays every record."""

    @staticmethod
    def _compare(monkeypatch, scenario, mechanism, por, unsound=False):
        with monkeypatch.context() as patch:
            _spy_on_settles(patch, resume=False)
            replayed = explore(scenario, mechanism, por=por,
                               unsound=unsound)
        with monkeypatch.context() as patch:
            continued = _spy_on_settles(patch)
            resumed = explore(scenario, mechanism, por=por,
                              unsound=unsound)
        assert replayed.resumed == 0
        assert 0 < resumed.resumed <= len(continued)
        assert _report_fields(resumed) == _report_fields(replayed)
        runner = CheckRunner(scenario, mechanism, unsound=unsound, por=por)
        for prefix, outcome in continued:
            fresh = runner(prefix, True)
            assert [getattr(outcome, name) for name in OUTCOME_FIELDS] \
                == [getattr(fresh, name) for name in OUTCOME_FIELDS], prefix
        return resumed, len(continued)

    @pytest.mark.parametrize("por", ["off", "sleep", "persistent"])
    @pytest.mark.parametrize("scenario", ["overlap", "sb", "mp", "fence"])
    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_resumed_outcomes_equal_fresh_replays(self, monkeypatch,
                                                  mechanism, scenario, por):
        report, continued = self._compare(monkeypatch, scenario, mechanism,
                                          por)
        # An in-memory queue pops every child a run continued into.
        assert report.resumed == continued
        if por == "off":
            pins = PINNED_COUNTS["checks"][f"{scenario}/{mechanism}"]
            assert report.executions == pins["executions"]

    def test_unsound_counterexample(self, monkeypatch):
        report, _ = self._compare(monkeypatch, "overlap", "tus", "off",
                                  unsound=True)
        assert report.violation.invariant == "wait-graph"

    def test_budget_reaches_every_continued_child(self, monkeypatch):
        # Under a binding state budget a run continues only into a
        # child the budget will still pop: no continuation is wasted.
        continued = _spy_on_settles(monkeypatch)
        report = explore("overlap", "tus", max_states=300)
        assert report.truncated and report.executions == 300
        assert len(continued) == report.resumed > 0

    @pytest.mark.parametrize("resume", [True, False])
    def test_a_violation_stops_the_drain(self, monkeypatch, resume):
        # The drain stops on the violating outcome itself, not on
        # reading the violation back from the store (a spool's
        # violation.json may read as corrupt and be quarantined).
        class Unreadable(MemoryFrontier):
            pops_after = 0

            def pop(self):
                if self._violation is not None:
                    self.pops_after += 1
                return super().pop()

            def get_violation(self):
                return None

        _spy_on_settles(monkeypatch, resume=resume)
        store = Unreadable()
        report = explore("overlap", "tus", unsound=True, store=store)
        assert report.violation.invariant == "wait-graph"
        assert store.pops_after == 0

    def test_kept_outcomes_hold_no_system(self, monkeypatch):
        # A done or violating outcome's trace reaches its machine
        # (event closures hold the memory system); kept outcomes drop
        # it, so while the drain runs at most the last run's machine
        # (the loop's current outcome) is still reachable.
        import gc
        import weakref
        alive = weakref.WeakSet()
        build = CheckRunner.build
        most = [0]

        def tracked(self):
            gc.collect()
            most[0] = max(most[0], len(alive))
            built = build(self)
            alive.add(built[0].memsys)
            return built

        monkeypatch.setattr(CheckRunner, "build", tracked)
        report = explore("sb", "tus")
        assert report.resumed > 0 and report.terminal_states > 0
        assert most[0] <= 1


class TestFuzz:
    def test_sound_swarm_passes(self):
        report = fuzz("overlap", "tus", cores=2, lines=2, runs=20, seed=3)
        assert report.passed
        assert report.mode == "fuzz"
        assert not report.complete   # sampling never proves exhaustiveness

    def test_unsound_swarm_finds_the_livelock(self):
        report = fuzz("overlap", "tus", cores=2, lines=2, runs=40, seed=7,
                      unsound=True)
        assert not report.passed
        assert report.violation.invariant == "wait-graph"

    def test_same_seed_same_counterexample(self):
        a = fuzz("overlap", "tus", cores=2, lines=2, runs=40, seed=7,
                 unsound=True)
        b = fuzz("overlap", "tus", cores=2, lines=2, runs=40, seed=7,
                 unsound=True)
        assert a.violation.schedule == b.violation.schedule
        assert a.executions == b.executions


class TestSymmetry:
    def test_identical_traces_are_interchangeable(self):
        # mp with 3 cores: the two consumers run the same program.
        assert len(CheckRunner("mp", "baseline", cores=3).perms) == 2

    def test_symmetric_branches_collapse_to_one_state(self):
        # First decision offers [step core0, step core1, step core2];
        # stepping consumer 1 vs consumer 2 must hash identically, and
        # differently from stepping the producer.
        keys = {}
        for choice in (0, 1, 2):
            outcome = run_schedule("mp", "baseline", (choice,), cores=3,
                                   lines=2, pause=True)
            assert outcome.kind == "frontier"
            keys[choice] = outcome.key
        assert keys[1] == keys[2]
        assert keys[0] != keys[1]


class TestHarness:
    def test_serial_matrix_preserves_order(self):
        jobs = [CheckJob("sb", "baseline"), CheckJob("sb", "tus")]
        reports = run_checks(jobs, workers=1)
        assert [r.mechanism for r in reports] == ["baseline", "tus"]
        assert all(r.passed for r in reports)

    def test_failed_cells_cost_only_their_own_slots(self, monkeypatch):
        # sb/tus kills its worker (a pool break) and sb/csb raises: the
        # other reports come back, in job order, beside two records.
        monkeypatch.setattr(checks, "run_check", _breaks_tus_and_csb)
        jobs = [CheckJob("sb", m) for m in ("baseline", "tus", "csb", "ssb")]
        reports = run_checks(jobs, workers=2)
        assert [r.mechanism for r in reports[::3]] == ["baseline", "ssb"]
        assert all(r.passed for r in reports[::3])
        assert [(r.label, r.kind) for r in reports[1:3]] == [
            ("sb/tus", "crash"), ("sb/csb", "error")]
        assert all(isinstance(r, TaskFailure) for r in reports[1:3])
        assert "deliberately broken cell" in reports[2].message

    def test_fuzz_job_routes_to_swarm_mode(self):
        report = run_check(CheckJob("sb", "tus", fuzz_runs=5, seed=1))
        assert report.mode == "fuzz"
        assert report.executions == 5

    def test_report_summary_mentions_extent(self):
        report = run_check(CheckJob("sb", "baseline"))
        assert "exhaustive" in report.summary()
        assert "PASS" in report.summary()


def _breaks_tus_and_csb(job):
    if job.mechanism == "tus":
        os._exit(17)    # kills the worker process, breaking the pool
    if job.mechanism == "csb":
        raise ValueError("deliberately broken cell")
    return run_check(job)


class _FIFOScheduler:
    """Always picks the first enabled action: fire due events in order,
    then step runnable cores in core-id order — the same per-cycle order
    :meth:`System.run` uses."""

    def choose(self, system, actions):
        return 0

    def after_action(self, system, action):
        pass


class TestControlledRunParity:
    """The controlled run loop simulates the same machine as the fast
    loop: under the FIFO scheduler the two must agree on every
    timing-free observable.  This pins the perf-optimised ``run`` and
    the model checker's ``run_controlled`` to each other — a staleness
    or fast-forward bug in either one breaks the agreement."""

    @pytest.fixture(scope="class")
    def pair(self):
        from repro.common.config import table_i
        from repro.sim.system import System
        from repro.workloads import make_parallel_traces

        def build():
            config = (table_i().with_mechanism("tus")
                      .with_sb_size(114).with_cores(2))
            traces = make_parallel_traces("canneal", 2, 800, 42)
            return System(config, traces, workload="canneal")

        fast = build()
        fast_result = fast.run()
        controlled = build()
        controlled_result = controlled.run_controlled(
            _FIFOScheduler(), max_cycles=500_000)
        return fast, fast_result, controlled, controlled_result

    def test_committed_counts_agree(self, pair):
        _, fast_result, _, controlled_result = pair
        committed = [core.committed for core in fast_result.cores]
        assert committed == [800, 800]
        assert committed == [core.committed
                             for core in controlled_result.cores]

    def test_total_cycles_agree(self, pair):
        _, fast_result, _, controlled_result = pair
        assert fast_result.cycles == controlled_result.cycles

    def test_final_memory_state_agrees(self, pair):
        from repro.modelcheck.state import _encode_port
        fast, _, controlled, _ = pair
        for fast_port, controlled_port in zip(fast.memsys.ports,
                                              controlled.memsys.ports):
            assert _encode_port(fast_port) == _encode_port(controlled_port)


class TestStatsFreeMachines:
    """The checker's machines keep no statistics (``NULL_STATS``): the
    same schedules on machines that keep them all give the same
    outcomes, field for field."""

    @staticmethod
    def _outcomes(scenario, mechanism, unsound):
        runner = CheckRunner(scenario, mechanism, unsound=unsound)
        outcomes = []
        for seed in range(8):
            walk = RandomScheduler(random.Random(seed))
            runs = [runner.run(walk)]
            runs.append(runner(tuple(walk.taken[:len(walk.taken) // 2]),
                               pause=True))
            outcomes += [(o.kind, o.key, o.branches, o.taken, o.trace,
                          o.committed, o.invariant, o.message)
                         for o in runs]
        return outcomes

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_full_statistics_change_no_outcome(self, monkeypatch,
                                               mechanism):
        cases = [("overlap", False), ("mp", False)]
        if mechanism == "tus":
            cases.append(("overlap", True))     # violations too
        stats_free = [self._outcomes(scenario, mechanism, unsound)
                      for scenario, unsound in cases]
        monkeypatch.setattr(explorer_module, "NULL_STATS", None)
        system, _, _ = CheckRunner("overlap", mechanism).build()
        assert system.stats.flatten()           # a full statistics tree
        assert [self._outcomes(scenario, mechanism, unsound)
                for scenario, unsound in cases] == stats_free
