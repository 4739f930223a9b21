"""Host speed, to state times at a fixed reference speed.

On a shared host the same code runs up to ~2x slower for minutes at a
time, when neighbours load the cores and caches this one shares.
Process CPU time slows down as much as wall time, so it is not time
spent descheduled, and a slow spell outlasts a run, so a longer run
does not average it out.  A short fixed interpreter loop, timed between
operations, slows down with the program; scaling each operation's
seconds by ``REFERENCE_S`` over the loop times just before and just
after it removes most of the spell.  On the VM the bounds were set on,
this cut the spread of 20-second runs of the same operations from 0.15
to 0.05 (quartile distance over median).  The loop does not run
program code, so a faster program still reads as faster by the same
factor.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

#: Seconds ``_loop`` takes at the reference speed: about its fastest
#: time on the 2-vCPU shared VM the bounds were set on (Python 3.11).
REFERENCE_S = 0.0026
#: Loop timings per sample.
TIMINGS = 2
#: Operations shorter than this share the samples around them.
EVERY_S = 0.2


def _loop() -> int:
    """Tuple building, hashing and set and dict traffic, like the
    simulator's and the model checker's; of the loops tried, its time
    followed theirs most closely."""
    seen = set()
    for i in range(6000):
        state = (i % 97, (i * 31) % 89, i & 15, ("x", i % 7))
        seen.add(hash(state))
        record = {"key": i, "state": state}
    return len(seen) + len(record)


def sample() -> float:
    """Seconds ``_loop`` takes now (mean of ``TIMINGS``)."""
    timings = []
    for _ in range(TIMINGS):
        start = time.perf_counter()
        _loop()
        timings.append(time.perf_counter() - start)
    return statistics.fmean(timings)


class Speed:
    """Samples between operations.  Operations since the last sample
    wait in ``add`` until the next one; then the operation's latency
    (``Outcome.seconds``) and its wall time are scaled by
    ``REFERENCE_S`` over the mean of the samples on either side."""

    def __init__(self) -> None:
        self.samples: List[float] = [sample()]
        #: Wall times of the settled operations, at reference speed.
        self.walls: List[float] = []
        self._since = time.perf_counter()
        self._pending: List[Tuple[object, float]] = []

    def add(self, outcome, wall: float) -> None:
        self._pending.append((outcome, wall))
        if time.perf_counter() - self._since >= EVERY_S:
            self.close()

    def close(self) -> None:
        """Take a sample and settle every waiting operation."""
        if not self._pending:
            return
        self.samples.append(sample())
        scale = REFERENCE_S / statistics.fmean(self.samples[-2:])
        for outcome, wall in self._pending:
            outcome.seconds *= scale
            self.walls.append(wall * scale)
        self._pending = []
        self._since = time.perf_counter()


def at_reference(measure: Callable[[], float]) -> float:
    """``measure()``'s seconds at reference speed, sampled around it."""
    before = sample()
    seconds = measure()
    return seconds * REFERENCE_S / statistics.fmean((before, sample()))
