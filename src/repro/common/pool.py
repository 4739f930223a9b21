"""Crash-resilient fan-out of independent tasks across worker processes.

The one process pool behind the figure sweeps
(:func:`repro.harness.parallel.run_points`), the ``repro check`` matrix
(:func:`repro.harness.checks.run_checks`) and the fault campaigns
(:func:`repro.faults.campaign.run_campaigns`).  Stdlib-only and outside
:mod:`repro.harness`, so the campaigns use it without loading the
harness.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


class SignalWatch:
    """Convert SIGTERM/SIGINT into a cooperative stop flag.

    Handlers are process-global, so they are installed only from the
    main thread (the only place ``signal.signal`` is legal) and the
    previous handlers are restored when the batch ends — a nested or
    non-main-thread batch simply runs unwatched.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self, enabled: bool) -> None:
        self.triggered: Optional[str] = None
        self._previous: Dict[int, object] = {}
        self.installed = False
        if not enabled:
            return
        if threading.current_thread() is not threading.main_thread():
            return
        for sig in self.SIGNALS:
            self._previous[sig] = signal.signal(sig, self._handle)
        self.installed = True

    def _handle(self, signum, frame) -> None:
        self.triggered = signal.Signals(signum).name

    def restore(self) -> None:
        if self.installed:
            for sig, previous in self._previous.items():
                signal.signal(sig, previous)
            self.installed = False


@dataclass
class TaskFailure:
    """One task that could not be completed within its retry budget."""

    label: str
    kind: str            # "error" | "crash" | "timeout" | "interrupted"
    message: str
    attempts: int

    def to_dict(self) -> Dict:
        return asdict(self)


def fan_out(fn: Callable, payloads: Sequence, labels: Sequence[str],
            workers: int, emit: Callable[[int, Any], None],
            timeout: Optional[float] = None, retries: int = 0,
            watch: Optional[SignalWatch] = None,
            local: Optional[Callable] = None) -> None:
    """Run ``fn(payload)`` for every payload and call ``emit(index,
    outcome)`` as each task finishes, exactly once per task; the outcome
    is the task's result or its :class:`TaskFailure` (named by
    ``labels[index]``).  When ``watch`` triggers, every unfinished task
    is emitted as ``interrupted`` with the attempts charged so far.

    With one worker or one task the batch runs in this process through
    ``local`` (default ``fn``): an exception is an ``error`` at attempt
    1, nothing is retried, no timeout is enforced, and ``watch`` is
    checked between tasks.  Otherwise see :func:`_pooled`.
    """
    if workers > 1 and len(payloads) > 1:
        _pooled(fn, payloads, labels, workers, emit, timeout, retries,
                watch)
        return
    for index, payload in enumerate(payloads):
        if watch is not None and watch.triggered:
            for rest in range(index, len(payloads)):
                emit(rest, _interrupted(labels[rest], watch, 0))
            return
        try:
            outcome = (local or fn)(payload)
        except Exception as exc:  # noqa: BLE001 - per-task record
            outcome = TaskFailure(labels[index], "error",
                                  f"{type(exc).__name__}: {exc}", 1)
        emit(index, outcome)


def _interrupted(label: str, watch: SignalWatch,
                 attempts: int) -> TaskFailure:
    return TaskFailure(label, "interrupted",
                       f"interrupted by {watch.triggered}", attempts)


@dataclass
class _Attempt:
    """Book-keeping for one task: failures attributed so far, and the
    wall-clock deadline of its current in-flight run (if any)."""

    index: int
    failures: int = 0
    deadline: Optional[float] = None


def _pooled(fn: Callable, payloads: Sequence, labels: Sequence[str],
            workers: int, emit: Callable[[int, Any], None],
            timeout: Optional[float], retries: int,
            watch: Optional[SignalWatch]) -> None:
    """Shard the tasks across a process pool (``fn`` and every payload
    must pickle) that survives its workers.  Three failure classes, all
    bounded by the per-task retry budget:

    * ``error``   — the worker raised; the exception travels back over
      the future, the task is retried in place, and the pool survives.
    * ``timeout`` — the task exceeded its wall-clock deadline.  A hung
      worker occupies its pool slot indefinitely, so the pool is
      abandoned and rebuilt; the expired task is charged an attempt,
      the other in-flight tasks are resubmitted uncharged.
    * ``crash``   — a worker process died (``BrokenProcessPool``, seen
      at submit or at wait).  The breakage surfaces on *every*
      outstanding future, so the culprit is unidentifiable from the
      pool; the lost tasks become suspects and re-run one at a time in
      a one-worker pool, where a crash implicates exactly the task that
      ran.  Innocent bystanders complete there (a deterministic crasher
      cannot starve them), at the cost of one serialized run each.
    """
    max_failures = 1 + max(0, retries)
    size = min(workers, len(payloads))
    pool = ProcessPoolExecutor(max_workers=size)
    solo = False            # the pool has one worker, for the suspects
    pending: Dict[object, _Attempt] = {}
    # Only `size` tasks are ever in flight; the rest wait here.  That
    # keeps per-task deadlines honest: a pending future is (modulo
    # pool-internal latency) actually running, so its deadline measures
    # the task's own wall-clock, not time spent queued behind others.
    backlog: List[_Attempt] = [_Attempt(i) for i in range(len(payloads))]
    suspects: List[_Attempt] = []

    def failed(attempt: _Attempt, kind: str, message: str) -> None:
        """Attribute one failure; requeue while budget remains."""
        attempt.failures += 1
        if attempt.failures >= max_failures:
            emit(attempt.index, TaskFailure(labels[attempt.index], kind,
                                            message, attempt.failures))
        else:
            backlog.append(attempt)

    def rebuild() -> None:
        """Abandon the pool (orphaned workers die when they finish or
        the interpreter exits) for a new one: one worker while suspects
        wait, else ``size``."""
        nonlocal pool, solo
        pending.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        solo = bool(suspects)
        pool = ProcessPoolExecutor(max_workers=1 if solo else size)

    def broke(lost: List[_Attempt]) -> None:
        """The pool broke.  Alone in a one-worker pool, the task that
        ran is the culprit; otherwise every lost task is a suspect (a
        slot lost to someone else's crash is not its failure)."""
        if solo:
            failed(lost[0], "crash",
                   "worker process died (BrokenProcessPool)")
        else:
            suspects.extend(lost)
        rebuild()

    def pump() -> None:
        while True:
            if solo and not suspects and not pending:
                rebuild()
            queue, limit = (suspects, 1) if solo else (backlog, size)
            if not queue or len(pending) >= limit:
                return
            attempt = queue.pop(0)
            attempt.deadline = (time.monotonic() + timeout
                                if timeout is not None else None)
            try:
                future = pool.submit(fn, payloads[attempt.index])
            except BrokenProcessPool:
                # A worker died since the last wait: the pool refuses
                # new work before any future reports the breakage.
                broke(list(pending.values()) + [attempt])
                continue
            pending[future] = attempt

    try:
        while pending or suspects or backlog:
            if watch is not None and watch.triggered:
                # Signal shutdown is nobody's failure: attempts stay
                # uncharged.
                for attempt in list(pending.values()) + suspects + backlog:
                    emit(attempt.index, _interrupted(
                        labels[attempt.index], watch, attempt.failures))
                break
            pump()
            if not pending:
                continue
            # Wait for the first result, the nearest deadline, or (so a
            # signal that lands mid-task stops the batch promptly) 0.2 s.
            bounds = [0.2] if watch is not None and watch.installed else []
            if timeout is not None:
                bounds.append(min(a.deadline for a in pending.values())
                              - time.monotonic())
            done, _ = wait(pending, timeout=max(0.0, min(bounds))
                           if bounds else None, return_when=FIRST_COMPLETED)
            broken_by: Optional[_Attempt] = None
            for future in done:
                attempt = pending.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken_by = attempt
                    break
                except Exception as exc:  # noqa: BLE001 - per task
                    failed(attempt, "error",
                           f"{type(exc).__name__}: {exc}")
                    continue
                emit(attempt.index, outcome)
            if broken_by is not None:
                # The breakage surfaces on every outstanding future.
                broke([broken_by] + list(pending.values()))
                continue
            if timeout is None:
                continue
            now = time.monotonic()
            expired = {f: a for f, a in pending.items()
                       if now >= a.deadline and not f.done()}
            if not expired:
                continue
            # Hung workers hold their slots until the process exits, so
            # the whole pool is rebuilt; the non-expired in-flight tasks
            # go back to the backlog with no failure attributed.
            survivors = [a for f, a in pending.items() if f not in expired]
            rebuild()
            for attempt in expired.values():
                failed(attempt, "timeout",
                       f"exceeded {timeout:.1f}s wall-clock")
            backlog.extend(survivors)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
