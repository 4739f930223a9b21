"""A checked execution and a simulation point leave no cyclic garbage.

The model checker builds one :class:`~repro.sim.system.System` per
execution, and :meth:`~repro.harness.runner.Runner.simulate` one per
point.  Their ports, hooks, MSHR callbacks and pending event closures
point at each other, so unless :meth:`System.release` breaks those
cycles every machine waits for the cyclic collector.  With the
collector disabled, each outcome kind and each mechanism below must
leave nothing for ``gc.collect()`` to find.
"""

import gc

import pytest

from repro.harness.runner import Point, Runner
from repro.modelcheck import explore
from repro.modelcheck.explorer import CheckRunner

MECHANISMS = ("baseline", "ssb", "csb", "spb", "tus")

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


@pytest.fixture(scope="module")
def point_runner():
    return Runner(use_disk_cache=False, st_length=2_000, par_length=100,
                  num_cores_parallel=16)


@pytest.mark.parametrize("bench", ["502.gcc1", "canneal"])
@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_point_leaves_no_cyclic_garbage(point_runner, bench, mechanism,
                                        no_collector):
    point = Point(bench, mechanism, 114)
    # The runner keeps the last workload's traces; make them first so
    # only the point's machine is in question.
    point_runner.simulate(point)
    assert gc.collect() == 0
    result = point_runner.simulate(point)
    assert result.committed > 0
    assert len(result.cores) == (16 if bench == "canneal" else 1)
    del result
    assert gc.collect() == 0
