"""Regenerate ``pins.json``: output fingerprints for the pinned seeds.

    python3 perfbench/make_pins.py

Run from the repository root after a change that is *meant* to alter
simulated behaviour; any other change must leave the file untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

#: The default seed and a held-out seed no tuning used.
PINNED_SEEDS = [42, 7]
#: ``macro.canneal_16`` fingerprint from BENCH_4.json (seed 42).
CANNEAL16_BENCH4 = \
    "efe3c605e5d662021df835a566af7fc12e80c81883dfec8d2282a74e7ad5d570"


def op_digests(workload) -> dict:
    digests = {}
    for op in workload.ops(0):
        outcome = op()
        if not outcome.ok:
            raise SystemExit(f"{workload.name}: {outcome.note}")
        digests[outcome.label] = outcome.digest
    return digests


def main() -> int:
    pins = {"check-matrix": op_digests(workloads.CheckMatrix(0, pins={}))}
    for cls in (workloads.Spec1Core, workloads.Parsec16Core):
        pins[cls.name] = {str(seed): op_digests(cls(seed, pins={}))
                          for seed in PINNED_SEEDS}
    canneal = pins["parsec-16core"]["42"]["macro.canneal_16"]
    if canneal != CANNEAL16_BENCH4:
        raise SystemExit(f"macro.canneal_16 drifted from BENCH_4.json: "
                         f"{canneal}")
    from repro.service.jobs import validate_spec
    service = workloads.ServiceSweep(0, pins={})
    pins[service.name] = {
        str(seed): {f"fig9/{bench}": workloads.tables_digest(
            workloads.direct_tables(validate_spec(
                "sweep", service.spec("fig9", [bench], seed))))
            for bench in service.benches()}
        for seed in PINNED_SEEDS}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1,
                                              sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
