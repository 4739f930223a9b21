"""Pinned trace digests.

Every simulated result starts from a generated trace, so a change to
the generator (or to the :class:`~repro.cpu.isa.UOp` records it emits)
must not move a single micro-op.  This pins the SHA-256 of every
profile's trace: single-core at two seeds, and each core of a 4-core
parallel trace.

Regenerate ``tests/data/trace_digests.json`` (only after a change meant
to alter traces) with ``PYTHONPATH=src python tests/test_trace_digests.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.workloads import all_profiles, make_parallel_traces, make_trace

DATA = Path(__file__).parent / "data" / "trace_digests.json"

SEEDS = (0, 42)
LENGTH = 12_000
CORES = 4
LENGTH_PER_CORE = 3_000
PARALLEL_SEED = 42


def digest(trace) -> str:
    """SHA-256 of a trace's name, seed and every micro-op's fields."""
    sha = hashlib.sha256(f"{trace.name}/{trace.seed}\n".encode())
    for uop in trace:
        sha.update(f"{int(uop.kind)},{uop.addr},{uop.size},"
                   f"{uop.dep_dist}\n".encode())
    return sha.hexdigest()


def current_digests() -> dict:
    digests = {}
    for name in sorted(all_profiles()):
        for seed in SEEDS:
            digests[f"{name}/seed{seed}"] = digest(
                make_trace(name, LENGTH, seed))
        traces = make_parallel_traces(name, CORES, LENGTH_PER_CORE,
                                      PARALLEL_SEED)
        for core_id, trace in enumerate(traces):
            digests[f"{name}/{CORES}core/core{core_id}"] = digest(trace)
    return digests


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


@pytest.fixture(scope="module")
def current():
    return current_digests()


def test_every_profile_is_pinned(pinned, current):
    assert sorted(pinned) == sorted(current)


@pytest.mark.parametrize("name", sorted(all_profiles()))
def test_traces_are_pinned(pinned, current, name):
    moved = sorted(key for key in current
                   if key.startswith(name + "/")
                   and current[key] != pinned.get(key))
    assert not moved


if __name__ == "__main__":
    digests = current_digests()
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(digests)} digests to {DATA}\n")
