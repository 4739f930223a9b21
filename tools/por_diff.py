"""Differential POR comparison: verdict/fingerprint agreement + reduction ratios.

Runs every requested scenario cell under all three POR modes,
verifies that verdicts and terminal fingerprints agree with the
unreduced BFS, and writes a JSON artifact with per-cell reduction
ratios (the CI ``check-por-smoke`` job uploads it).

    PYTHONPATH=src python tools/por_diff.py --out por-report.json \
        overlap:2:2 disjoint:3:3 lit:SB

Cells are ``name[:cores[:lines]]``; litmus cells pin their own shape.
Exits non-zero on any disagreement.
"""
import argparse
import json
import sys

from repro.modelcheck import POR_MODES, explore


def run_cell(name: str, cores: int, lines: int) -> dict:
    reports = {por: explore(name, "tus", cores=cores, lines=lines,
                            por=por)
               for por in POR_MODES}
    base = reports["off"]
    cell = {"scenario": name, "cores": reports["off"].cores,
            "lines": reports["off"].lines, "agree": True, "modes": {}}
    for por, report in reports.items():
        agree = (report.complete
                 and (report.violation is None) == (base.violation is None)
                 and report.terminal_fingerprint == base.terminal_fingerprint)
        cell["agree"] = cell["agree"] and agree
        cell["modes"][por] = {
            "executions": report.executions,
            "unique_states": report.unique_states,
            "terminal_states": report.terminal_states,
            "fingerprint": report.terminal_fingerprint,
            "states_per_sec": round(report.states_per_sec, 1),
            "wall_seconds": round(report.wall_seconds, 2),
            "reduction_ratio": round(
                base.unique_states / max(1, report.unique_states), 3),
        }
    return cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("cells", nargs="+",
                        help="scenario[:cores[:lines]] cells to compare")
    parser.add_argument("--out", default=None,
                        help="write the JSON artifact here")
    args = parser.parse_args(argv)
    cells = []
    for spec in args.cells:
        parts = spec.split(":")
        if parts[0] == "lit":           # litmus names contain a colon
            name, rest = ":".join(parts[:2]), parts[2:]
        else:
            name, rest = parts[0], parts[1:]
        cores = int(rest[0]) if rest else 2
        lines = int(rest[1]) if len(rest) > 1 else 2
        cell = run_cell(name, cores, lines)
        cells.append(cell)
        best = max(m["reduction_ratio"] for m in cell["modes"].values())
        print(f"{name:16} agree={cell['agree']} best-reduction={best}x "
              + " ".join(f"{por}={m['unique_states']}"
                         for por, m in cell["modes"].items()))
    payload = {"version": 1, "cells": cells,
               "agree": all(c["agree"] for c in cells)}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if payload["agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
