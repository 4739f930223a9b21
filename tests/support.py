"""Shared helpers for the test suite."""

import os


def max_examples(default: int) -> int:
    """Hypothesis example count, capped by $REPRO_HYPOTHESIS_MAX_EXAMPLES.

    Explicit ``@settings(max_examples=...)`` decorators override
    hypothesis profiles, so CI caps property tests through this helper
    instead: locally it returns ``default`` unchanged, and in CI the
    environment variable bounds every suite uniformly.
    """
    cap = os.environ.get("REPRO_HYPOTHESIS_MAX_EXAMPLES")
    return min(default, int(cap)) if cap else default


def process_gone(pid: int) -> bool:
    """No such process, or only its unreaped zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):
        # ESRCH: the process was reaped between open and read.
        return True
