"""``repro fsck``: scan and repair the repo's durable directories.

The scanner is layout-aware: pointed at a service data dir, a
``--spool`` frontier, or a bare point-cache/record directory, it walks
the layout it recognises and classifies what it finds.  The service
queue is a :class:`~.spool.Spool`, scanned by :func:`_fsck_spool`; the
service then settles its entries against its job records with the
repair pass its own monitor runs
(:meth:`~repro.service.ledger.JobLedger.repair`), offline: no worker
alive, no grace period.  A frontier spool is one checkpoint record
(:class:`~repro.modelcheck.frontier.DiskFrontier`) in a flat
directory, scanned like any other.

=====================  =================================================
finding kind           meaning / repair
=====================  =================================================
``tmp-orphan``         a ``*.tmp<pid>`` file older than the age gate —
                       a crash between write and rename; removed
``corrupt``            a record that fails envelope validation (parse,
                       checksum, or schema); quarantined — except queue
                       entries, whose payload is a pure function of the
                       filename and is rebuilt in place.  A spool's
                       records quarantine into ``<spool>/quarantine/``
``dangling-running``   a claimed queue entry with no live claimant (a
                       stopped service); requeued so the work reruns —
                       a job as ``queued`` with no worker, or failed
                       ``WorkerLost`` once its attempts are spent
``orphan-entry``       a queue entry whose job record is gone — nothing
                       says what to execute; removed
``lost-entry``         an active job record with no queue entry (the
                       inverse crash window); reset to ``queued`` and
                       a fresh entry enqueued
``quarantined``        informational: evidence already moved aside by a
                       previous reader or fsck run
=====================  =================================================

Repairs are only applied with ``repair=True`` and only when they are
safe offline; run repair against a *stopped* service or checker (a
live service's monitor runs the same service repairs itself, with its
workers' liveness and age gates).  A corrupt frontier checkpoint is
quarantined, and the next run of that check starts from its root.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .records import (QUARANTINE_DIR, CorruptRecord, quarantine,
                      quarantine_count, read_record, write_record)
from .spool import Spool

#: Finding kinds that leave data at risk (non-informational).
PROBLEM_KINDS = ("tmp-orphan", "corrupt", "dangling-running",
                 "orphan-entry", "lost-entry")


@dataclass
class Finding:
    """One thing fsck noticed, and what it did (or would do) about it."""

    kind: str
    path: str
    detail: str
    repaired: bool = False
    action: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path,
                "detail": self.detail, "repaired": self.repaired,
                "action": self.action}


@dataclass
class FsckReport:
    """Everything one scan found."""

    root: str
    layout: str
    repair: bool
    findings: List[Finding] = field(default_factory=list)

    def add(self, kind: str, path: Path, detail: str,
            repaired: bool = False, action: str = "") -> Finding:
        finding = Finding(kind, str(path), detail, repaired, action)
        self.findings.append(finding)
        return finding

    @property
    def problems(self) -> List[Finding]:
        return [f for f in self.findings if f.kind in PROBLEM_KINDS]

    @property
    def unrepaired(self) -> List[Finding]:
        return [f for f in self.problems if not f.repaired]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.kind] = out.get(finding.kind, 0) + 1
        return out

    @property
    def clean(self) -> bool:
        return not self.unrepaired

    def to_dict(self) -> Dict[str, Any]:
        return {"root": self.root, "layout": self.layout,
                "repair": self.repair, "clean": self.clean,
                "counts": self.counts(),
                "findings": [f.to_dict() for f in self.findings]}

    def render(self) -> str:
        lines = [f"fsck {self.root} [{self.layout} layout]"]
        for finding in self.findings:
            mark = "fixed" if finding.repaired else (
                "info" if finding.kind not in PROBLEM_KINDS else "PROBLEM")
            line = f"  [{mark:>7}] {finding.kind}: {finding.path}" \
                   f" — {finding.detail}"
            if finding.action:
                line += f" ({finding.action})"
            lines.append(line)
        counts = self.counts()
        if counts:
            summary = ", ".join(f"{k}={v}"
                                for k, v in sorted(counts.items()))
            lines.append(f"  {summary}")
        lines.append("  clean" if self.clean else
                     f"  {len(self.unrepaired)} problem(s) remain"
                     + ("" if self.repair else " (re-run with --repair)"))
        return "\n".join(lines)


def detect_layout(root: Path) -> str:
    """``service``, ``frontier``, or ``records`` (a flat record dir)."""
    root = Path(root)
    if (root / "queue").is_dir() and (root / "jobs").is_dir():
        return "service"
    if (root / "checkpoint.json").exists():
        return "frontier"
    return "records"


def fsck(root: Path, repair: bool = False,
         tmp_age: float = 60.0) -> FsckReport:
    """Scan ``root`` (see module docstring); repairs only if asked."""
    root = Path(root)
    layout = detect_layout(root)
    report = FsckReport(str(root), layout, repair)
    if not root.is_dir():
        report.add("corrupt", root, "not a directory")
        return report
    if layout == "service":
        _fsck_service(root, report, repair, tmp_age)
    elif layout == "frontier":
        _scan_records(root, report, repair, tmp_age, "frontier-checkpoint")
    else:
        _scan_records(root, report, repair, tmp_age)
    return report


# ----------------------------------------------------------------------
# Shared scans
# ----------------------------------------------------------------------

def _scan_tmp(directory: Path, report: FsckReport, repair: bool,
              tmp_age: float) -> None:
    if not directory.is_dir():
        return
    now = time.time()
    for path in sorted(directory.glob("*.tmp*")):
        try:
            age = now - path.stat().st_mtime
        except OSError:
            continue
        if age < tmp_age:
            continue
        finding = report.add("tmp-orphan", path,
                             f"orphaned tmp file ({age:.0f}s old)")
        if repair:
            _remove(finding, path)


def _remove(finding: Finding, path: Path) -> None:
    try:
        path.unlink()
    except OSError as exc:
        finding.action = f"unlink failed: {exc}"
        return
    finding.repaired = True
    finding.action = "removed"


def _scan_quarantine(directory: Path, report: FsckReport) -> None:
    count = quarantine_count(directory)
    if count:
        report.add("quarantined", directory / QUARANTINE_DIR,
                   f"{count} previously quarantined record(s)")


def _check_record(path: Path, report: FsckReport, repair: bool,
                  schema: Optional[str] = None,
                  rebuild: Optional[dict] = None,
                  root: Optional[Path] = None) -> bool:
    """Validate one record file; returns True when it reads clean.

    ``rebuild`` is a replacement payload (queue entries only) written
    in place on repair; otherwise a corrupt record is quarantined into
    ``<root>/quarantine/`` (default: beside the record).
    """
    try:
        read_record(path, schema)
        return True
    except CorruptRecord as exc:
        finding = report.add("corrupt", path, exc.reason)
        if repair:
            if rebuild is not None:
                quarantine(path, root=root, reason="rebuilt")
                write_record(path, schema or "generic", rebuild)
                finding.repaired = True
                finding.action = "rebuilt from filename"
            else:
                dest = quarantine(path, root=root, reason="fsck")
                finding.repaired = True
                finding.action = f"quarantined -> {dest}"
        return False


def _scan_records(directory: Path, report: FsckReport, repair: bool,
                  tmp_age: float, schema: Optional[str] = None,
                  root: Optional[Path] = None) -> None:
    """Generic scan of one flat directory of record files.  With a
    ``root``, corrupt records quarantine there (whose quarantine the
    caller reports); otherwise beside the directory's records."""
    if not directory.is_dir():
        return
    _scan_tmp(directory, report, repair, tmp_age)
    if root is None:
        _scan_quarantine(directory, report)
    for path in sorted(directory.glob("*.json")):
        _check_record(path, report, repair, schema, root=root)


def _fsck_spool(spool: Spool, report: FsckReport, repair: bool,
                tmp_age: float, schema: str,
                rebuild: Callable[[str], Optional[dict]]) -> None:
    """The scan of a spool's pending/ and running/ entries.

    Each entry is validated against ``schema``; a corrupt one is
    rebuilt in place from ``rebuild(name)`` when the client can, else
    quarantined.
    """
    for directory in (spool.root, spool.pending_dir, spool.running_dir):
        _scan_tmp(directory, report, repair, tmp_age)
    _scan_quarantine(spool.root, report)
    for directory, names in ((spool.pending_dir, spool.pending()),
                             (spool.running_dir, spool.running())):
        for name in names:
            _check_record(directory / name, report, repair, schema,
                          rebuild=rebuild(name), root=spool.root)


# ----------------------------------------------------------------------
# Service layout
# ----------------------------------------------------------------------

def _fsck_service(root: Path, report: FsckReport, repair: bool,
                  tmp_age: float) -> None:
    from ..service.ledger import JobLedger
    from ..service.queue import DiskQueue, entry_rebuild
    store_dir = root / "store"

    # Records and entries are validated (rebuilt, quarantined) first;
    # then the service's own crash-repair pass settles the entries
    # against the records, offline: no worker alive, no grace period.
    _scan_records(root / "jobs", report, repair, tmp_age, "job-record")
    _fsck_spool(Spool(root / "queue"), report, repair, tmp_age,
                DiskQueue.SCHEMA, rebuild=entry_rebuild)
    # No tmp sweep on open (the scans above report tmp files) and no
    # backlog bound (a repair never sheds an accepted job).
    ledger = JobLedger.open(root, max_backlog=1 << 30, sweep_age=math.inf)
    report.findings += ledger.repair(apply=repair)

    # Artifacts, point cache, heartbeats.
    _scan_records(store_dir / "artifacts", report, repair, tmp_age,
                  "artifact")
    _scan_records(store_dir / "points", report, repair, tmp_age,
                  "point-cache")
    workers_dir = root / "workers"
    if workers_dir.is_dir():
        _scan_tmp(workers_dir, report, repair, tmp_age)
        for path in sorted(workers_dir.glob("*.json")):
            if not _check_record(path, report, False, "heartbeat") \
                    and repair:
                # Heartbeats are ephemeral: no point quarantining.
                _remove(report.findings[-1], path)


__all__ = ["Finding", "FsckReport", "PROBLEM_KINDS", "detect_layout",
           "fsck"]
