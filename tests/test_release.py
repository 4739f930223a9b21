"""A checked execution leaves no cyclic garbage.

The model checker builds one :class:`~repro.sim.system.System` per
execution.  Its ports, hooks, MSHR callbacks and pending event closures
point at each other, so unless :meth:`System.release` breaks those
cycles every machine waits for the cyclic collector.  With the
collector disabled, each outcome kind below must leave nothing for
``gc.collect()`` to find.
"""

import gc

import pytest

from repro.modelcheck import explore
from repro.modelcheck.explorer import CheckRunner

#: name -> (CheckRunner arguments, schedule, pause, settle, kind, invariant)
CASES = {
    "frontier": (dict(scenario_name="overlap", mechanism="tus",
                      por="persistent"), (0, 1, 1, 0), True, None,
                 "frontier", ""),
    "continued": (dict(scenario_name="mixed", mechanism="csb"), (1,), True,
                  lambda outcome: 0, "frontier", ""),
    "done": (dict(scenario_name="mp", mechanism="tus"), (1, 1, 1, 1), False,
             None, "done", ""),
    "violation": (dict(scenario_name="overlap", mechanism="tus",
                       unsound=True), (0, 0, 0, 0, 0, 0, 1), False, None,
                  "violation", "wait-graph"),
    "deadlock": (dict(scenario_name="overlap", mechanism="ssb",
                      max_cycles=3), (), False, None, "violation",
                 "deadlock"),
}


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("case", sorted(CASES))
def test_execution_leaves_no_cyclic_garbage(case, no_collector):
    kwargs, schedule, pause, settle, kind, invariant = CASES[case]
    runner = CheckRunner(**kwargs)
    assert gc.collect() == 0
    outcome = runner(schedule, pause, settle)
    assert (outcome.kind, outcome.invariant) == (kind, invariant)
    if kind == "violation":
        # The lazily rendered trace still reads the released machine's
        # actions.
        assert outcome.trace and outcome.trace[-1].startswith("cycle ")
    del outcome
    assert gc.collect() == 0


def test_whole_check_leaves_no_cyclic_garbage(no_collector):
    report = explore("overlap", "tus", unsound=True, por="persistent")
    assert report.violation is not None and report.violation.trace
    del report
    assert gc.collect() == 0
