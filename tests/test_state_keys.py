"""Pinned canonical state keys.

The explorer deduplicates states by :func:`repro.modelcheck.state
.canonical_key`, and the terminal fingerprints pinned in
``tests/data/check_counts.json`` hash those keys, so the key text must
not drift when its encoder is made cheaper.  This pins the key of a
fixed set of paused, finished and violating states: every
``check-matrix`` scenario under TUS at several prefixes, one prefix per
mechanism, the symmetric 3-core shape and a sharded machine.

Regenerate ``tests/data/state_keys.json`` (only after a change meant to
alter state keys) with ``PYTHONPATH=src python tests/test_state_keys.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.modelcheck import run_schedule

DATA = Path(__file__).parent / "data" / "state_keys.json"

#: The ``check-matrix`` scenarios (perfbench's model-checking workload).
MATRIX = ("overlap", "sb", "mp", "fence", "mixed", "disjoint")
MECHANISMS = ("baseline", "ssb", "csb", "spb", "tus")
PREFIXES = ((), (1,), (0, 1, 1, 0), (1, 1, 0, 1, 0, 1))
SHARDED = {"topology": "mesh", "dir_shards": 2, "link_latency": 3}


def _cases():
    """``id -> run_schedule`` keyword arguments."""
    cases = {}
    for scenario in MATRIX:
        for prefix in PREFIXES:
            cases[f"{scenario}/tus/pause{list(prefix)}"] = dict(
                scenario_name=scenario, mechanism="tus", schedule=prefix,
                pause=True)
        for prefix in ((), (1, 1, 1, 1, 1, 1)):
            cases[f"{scenario}/tus/done{list(prefix)}"] = dict(
                scenario_name=scenario, mechanism="tus", schedule=prefix)
    for mechanism in MECHANISMS:
        cases[f"overlap/{mechanism}/pause[0, 1, 1, 0]"] = dict(
            scenario_name="overlap", mechanism=mechanism,
            schedule=(0, 1, 1, 0), pause=True)
        cases[f"mixed/{mechanism}/done[1, 0, 1]"] = dict(
            scenario_name="mixed", mechanism=mechanism, schedule=(1, 0, 1))
    cases["overlap/tus/unsound/violation"] = dict(
        scenario_name="overlap", mechanism="tus",
        schedule=(0, 0, 0, 0, 0, 0, 1), unsound=True)
    cases["overlap/tus/deadlock"] = dict(
        scenario_name="overlap", mechanism="tus", max_cycles=3)
    cases["sb/tus/3x3/pause[1, 2, 0, 1]"] = dict(
        scenario_name="sb", mechanism="tus", schedule=(1, 2, 0, 1),
        cores=3, lines=3, pause=True)
    cases["overlap/tus/sharded/pause[0, 1, 1, 0]"] = dict(
        scenario_name="overlap", mechanism="tus", schedule=(0, 1, 1, 0),
        machine=SHARDED, pause=True)
    return cases


CASES = _cases()


def _outcome(case_id: str):
    return run_schedule(**CASES[case_id])


def current_keys() -> dict:
    keys = {}
    for case_id in CASES:
        outcome = _outcome(case_id)
        keys[case_id] = {"kind": outcome.kind, "key": outcome.key}
    return keys


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


def test_cases_reach_every_outcome_kind(pinned):
    kinds = {entry["kind"] for entry in pinned.values()}
    assert kinds == {"frontier", "done", "violation"}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_key_is_pinned(pinned, case_id):
    outcome = _outcome(case_id)
    assert {"kind": outcome.kind, "key": outcome.key} == pinned[case_id]


if __name__ == "__main__":
    DATA.write_text(json.dumps(current_keys(), indent=1, sort_keys=True)
                    + "\n")
    sys.stdout.write(f"wrote {len(CASES)} keys to {DATA}\n")
