"""Differential equivalence suite for partial-order reduction.

The POR relations (:mod:`repro.modelcheck.por`) are conservative
implementations of reduction theorems, but the repo does not trust
them axiomatically — this suite pins them against the unreduced BFS:

* every scenario and every litmus-corpus program must agree across
  ``off``/``sleep``/``persistent`` on the verdict and (when the search
  is exhaustive) on the terminal-state fingerprint;
* a Hypothesis property executes declared exactly-commuting action
  pairs in both orders and demands identical canonical state hashes —
  failures shrink to a directly replayable schedule;
* a violating configuration must stay violating under every mode, and
  each mode's minimised counterexample must replay to the same
  invariant;
* the reduction must actually reduce: the persistent provider takes
  >=5x unique states off the 3-core ``disjoint`` scenario.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modelcheck import (POR_MODES, explore, litmus_names, replay,
                              run_schedule)
from repro.modelcheck.litmus import litmus_scenarios
from repro.modelcheck.por import commutes_exactly
from repro.modelcheck.scenarios import SCENARIOS

from .support import max_examples

#: 4-core corpus programs are exhaustible but expensive (~1 min per
#: mode); the differential run caps their execution budget and then
#: only the verdict is comparable (a truncated search's terminal set
#: depends on where the budget landed).
_BIG = tuple(name for name, s in litmus_scenarios().items()
             if s.fixed_cores >= 4)
_SMALL_LITMUS = tuple(n for n in litmus_names() if n not in _BIG)

ALL_PROGRAMS = tuple(sorted(SCENARIOS)) + _SMALL_LITMUS


def _run_modes(name, **kwargs):
    return {por: explore(name, "tus", cores=2, lines=2, por=por, **kwargs)
            for por in POR_MODES}


def _assert_agreement(reports, require_complete=True):
    base = reports["off"]
    for por, report in reports.items():
        assert (report.violation is None) == (base.violation is None), \
            f"por={por} verdict diverges from off"
        if require_complete:
            assert report.complete, f"por={por} did not exhaust"
            assert report.terminal_fingerprint == \
                base.terminal_fingerprint, \
                f"por={por} terminal fingerprint diverges"
            assert report.distinct_terminals == base.distinct_terminals


class TestDifferentialEquivalence:
    # The cells check x86-TSO, the simulator's one memory model; the
    # ids say so.
    @pytest.mark.parametrize("name", ALL_PROGRAMS,
                             ids=[f"{name}-tso" for name in ALL_PROGRAMS])
    def test_por_agrees_with_full_bfs(self, name):
        _assert_agreement(_run_modes(name))

    @pytest.mark.parametrize("name", _BIG)
    def test_big_corpus_verdicts_agree(self, name):
        reports = _run_modes(name, max_states=900)
        _assert_agreement(reports, require_complete=False)

    def test_three_core_differential(self):
        reports = {por: explore("disjoint", "tus", cores=3, lines=3,
                                por=por) for por in POR_MODES}
        _assert_agreement(reports)

    def test_off_matches_pre_por_baseline(self):
        # The pinned pre-POR numbers for overlap/tus at 2x2: --por off
        # must stay bit-identical through the store-based loop.
        report = explore("overlap", "tus", cores=2, lines=2, por="off")
        assert (report.executions, report.unique_states,
                report.terminal_states) == (803, 317, 28)

    def test_persistent_reduces_disjoint_five_fold(self):
        full = explore("disjoint", "tus", cores=3, lines=3, por="off")
        reduced = explore("disjoint", "tus", cores=3, lines=3,
                          por="persistent")
        assert reduced.terminal_fingerprint == full.terminal_fingerprint
        assert full.unique_states >= 5 * reduced.unique_states

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            explore("sb", "tus", por="stubborn")


class TestViolationDifferential:
    @pytest.fixture(scope="class", params=POR_MODES)
    def report(self, request):
        return explore("overlap", "tus", cores=2, lines=2, unsound=True,
                       por=request.param)

    def test_violation_survives_reduction(self, report):
        assert report.violation is not None

    def test_minimised_counterexample_replays(self, report):
        violation = report.violation
        outcome = replay("overlap", "tus", violation.schedule,
                         unsound=True)
        assert outcome.kind == "violation"
        assert outcome.invariant == violation.invariant


class TestRunOutcomeKeys:
    def test_violation_outcome_carries_state_key(self):
        report = explore("overlap", "tus", cores=2, lines=2,
                         unsound=True)
        outcome = run_schedule("overlap", "tus",
                               report.violation.schedule, unsound=True)
        assert outcome.kind == "violation"
        assert outcome.key, "violation outcomes must hash their state"

    def test_terminal_outcome_carries_state_key(self):
        outcome = run_schedule("overlap", "tus", ())
        assert outcome.kind == "done"
        assert outcome.key

    def test_terminal_key_ignores_stale_bookkeeping(self):
        # Terminal hashing neutralises the run loop's intra-cycle
        # position, so the key is a function of architectural content.
        first = run_schedule("overlap", "tus", ())
        second = run_schedule("overlap", "tus", ())
        assert first.key == second.key


def _frontier(schedule):
    return run_schedule("overlap", "tus", schedule, pause=True,
                        por="sleep")


def _index_of(sig, infos):
    for index, info in enumerate(infos):
        if info[0] == sig:
            return index
    return None


def _after_pair(prefix, first_sig, second_sig):
    """Execute ``first`` then ``second`` from the state at ``prefix``
    (resolving each action by signature at its own decision point) and
    return the resulting outcome, or None when the pair is not
    consecutively enabled along this path."""
    at_first = _frontier(prefix)
    if at_first.kind != "frontier":
        return None
    first = _index_of(first_sig, at_first.actions[0])
    if first is None:
        return None
    mid = _frontier(prefix + (first,))
    if mid.kind != "frontier":
        return None
    second = _index_of(second_sig, mid.actions[0])
    if second is None:
        return None
    return _frontier(prefix + (first, second))


class TestCommutationProperty:
    @settings(max_examples=max_examples(25), deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=8)
           .map(tuple))
    def test_exactly_commuting_pairs_reach_the_same_state(self, prefix):
        """Independent *and* surely-progressing enabled pairs executed
        in either order land on the same canonical state hash.  A
        failure shrinks to ``prefix`` — replayable directly via
        ``run_schedule('overlap', 'tus', prefix, pause=True)``."""
        outcome = _frontier(prefix)
        if outcome.kind != "frontier":
            return
        infos = outcome.actions[0]
        for i in range(len(infos)):
            for j in range(i + 1, len(infos)):
                if not commutes_exactly(infos[i], infos[j]):
                    continue
                one = _after_pair(prefix, infos[i][0], infos[j][0])
                two = _after_pair(prefix, infos[j][0], infos[i][0])
                if one is None or two is None:
                    continue
                assert one.kind == two.kind, \
                    f"{infos[i][0]} / {infos[j][0]} diverge in kind " \
                    f"after prefix {prefix}"
                assert one.key == two.key, \
                    f"{infos[i][0]} / {infos[j][0]} do not commute " \
                    f"after prefix {prefix}"


class TestDescribeActions:
    def test_describe_captures_every_action(self):
        outcome = _frontier(())
        assert outcome.kind == "frontier"
        infos, keep = outcome.actions
        assert len(infos) == outcome.branches
        assert set(keep) <= set(range(len(infos)))
        for sig, lines, shared, progressing in infos:
            assert sig[0] in ("event", "core")
            assert isinstance(shared, bool)
            assert isinstance(progressing, bool)
