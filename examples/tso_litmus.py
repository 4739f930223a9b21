#!/usr/bin/env python
"""Litmus-test explorer: prove TUS preserves x86-TSO.

For each program of the litmus corpus (the classic shapes plus the
paper's ABA coalescing pattern), this enumerates every outcome the
operational x86-TSO model allows, enumerates every outcome the TUS
functional machine (SB -> coalescing atomic groups -> atomic
visibility) can produce, and checks the subset relation that Section
III-D of the paper argues for.

Run:  python examples/tso_litmus.py
"""

from repro.models import enumerate_tus_outcomes
from repro.models.corpus import corpus_by_name
from repro.models.tso import enumerate_outcomes


def fmt(outcome):
    regs, memory = outcome
    parts = [f"{reg}={val}" for reg, val in regs]
    parts += [f"[{addr:#x}]={val}" for addr, val in memory]
    return " ".join(parts)


def main() -> None:
    all_ok = True
    litmus = {name: entry.program
              for name, entry in corpus_by_name().items()}
    for name, program in litmus.items():
        tso = enumerate_outcomes(program)
        tus = enumerate_tus_outcomes(program)
        extra = tus - tso
        verdict = "OK (subset)" if not extra else "VIOLATION"
        all_ok &= not extra
        print(f"{name:15} x86-TSO outcomes: {len(tso):3}   "
              f"TUS outcomes: {len(tus):3}   {verdict}")
        if extra:
            for outcome in sorted(extra):
                print(f"    not allowed by TSO: {fmt(outcome)}")
    print()
    if all_ok:
        print("Every TUS-producible outcome is x86-TSO-allowed: "
              "coalescing with atomic groups preserves TSO.")
    else:
        raise SystemExit("TSO violation found!")

    # Show the ABA example in detail (the paper's Figure 3 motivation).
    program = litmus["ABA-coalesce"]
    print()
    print("ABA-coalesce (stores X=1; Y=1; X=2 against a reader):")
    for outcome in sorted(enumerate_tus_outcomes(program)):
        print(f"    {fmt(outcome)}")


if __name__ == "__main__":
    main()
