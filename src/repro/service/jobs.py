"""Job model for the simulation service: specs, records, content ids.

A *job* is one unit of service work — a figure sweep, a model-check
matrix cell, a fault campaign, or a synthetic placeholder (tests,
drills).  Submissions are validated against a per-kind schema
(stdlib-only, hand-rolled: required fields, types, choices, bounds)
and *normalised* — every optional field is filled with its default —
before anything else looks at them.

Normalisation is what makes dedup work: the job id is the SHA-256 of
the canonical JSON of ``(kind, normalised spec)``, so two clients
submitting the same work — whether or not they spelled out the
defaults — produce the *same* job id, map onto the same queue entry,
and share one artifact.  Priority is deliberately excluded from the
digest: it changes when the work runs, not what the work is.

:class:`JobRecord` is the durable per-job state machine
(``queued -> running -> done | failed``), persisted as one JSON file
per job with atomic replace, so any process (API, worker, monitor)
can transition a job without a coordinator; every transition is a
method of :class:`~repro.service.ledger.JobLedger`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..common.errors import ReproError
from ..durability.faultyfs import NULL_FS
from ..durability.records import (CorruptRecord, quarantine_count,
                                  read_or_quarantine, read_record,
                                  sweep_tmp, write_record)

#: Everything the service knows how to execute, in doc order.
JOB_KINDS = ("sweep", "check", "faults", "synthetic")

#: Job states.  ``queued`` and ``running`` are *active*; the other two
#: are terminal.  There is no ``shed`` state: a shed submission is
#: refused with 429 before a record ever exists.
JOB_STATES = ("queued", "running", "done", "failed")

#: Priorities, best first.  Lower number drains first.
PRIORITIES = {"high": 0, "normal": 1, "low": 2}
DEFAULT_PRIORITY = "normal"


class JobValidationError(ReproError):
    """A submitted job spec does not satisfy its kind's schema."""


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """One spec field: type, default (``REQUIRED`` marks mandatory),
    optional choice set and integer bounds."""

    type: tuple
    default: Any = None
    required: bool = False
    choices: Optional[tuple] = None
    minimum: Optional[int] = None
    maximum: Optional[int] = None


def _machine_fields() -> Dict[str, Field]:
    """Scaled-machine knobs shared by check and faults jobs."""
    from ..common.config import TOPOLOGIES
    return {
        "topology": Field((str,), "p2p", choices=tuple(TOPOLOGIES)),
        "dir_shards": Field((int,), 1, minimum=1, maximum=64),
        "dram_channels": Field((int,), 1, minimum=1, maximum=64),
        "link_latency": Field((int,), 1, minimum=0, maximum=64),
    }


def machine_of(spec: Dict[str, Any]) -> Dict[str, Any]:
    """The ``machine`` mapping of a normalised check or faults spec
    (its scaled-machine fields, as :func:`~repro.modelcheck.scenarios
    .check_config` takes them)."""
    return {name: spec[name] for name in _machine_fields()}


def _schemas() -> Dict[str, Dict[str, Field]]:
    """Per-kind schema, built lazily so importing this module stays
    cheap (mechanism/figure tables import the harness)."""
    from ..common.config import MECHANISMS
    mechs = tuple(MECHANISMS)
    schemas: Dict[str, Dict[str, Field]] = {
        "sweep": {
            "figure": Field((str,), required=True),
            "benches": Field((list, type(None)), None),
            "st_length": Field((int,), 4_000, minimum=100,
                               maximum=10_000_000),
            "par_length": Field((int,), 300, minimum=50,
                                maximum=1_000_000),
            "simpoints": Field((int,), 1, minimum=1, maximum=16),
            "parsec_simpoints": Field((int,), 1, minimum=1, maximum=16),
            "cores": Field((int,), 4, minimum=1, maximum=64),
            "seed": Field((int,), 42, minimum=0),
            "workers": Field((int,), 1, minimum=1, maximum=64),
        },
        "check": {
            "scenario": Field((str,), "sb"),
            "mechanism": Field((str,), "tus", choices=mechs),
            "cores": Field((int,), 2, minimum=2, maximum=8),
            "lines": Field((int,), 2, minimum=1, maximum=8),
            "depth": Field((int,), 64, minimum=1),
            "max_states": Field((int,), 20_000, minimum=1),
            "max_cycles": Field((int,), 20_000, minimum=100),
            "fuzz": Field((int,), 0, minimum=0),
            "seed": Field((int,), 0, minimum=0),
            "por": Field((str,), "off",
                         choices=("off", "sleep", "persistent")),
            **_machine_fields(),
        },
        "faults": {
            "seeds": Field((int,), 4, minimum=1, maximum=1000),
            "seed": Field((int,), 0, minimum=0),
            "mechanism": Field((str,), "tus", choices=mechs),
            "intensity": Field((str,), "medium",
                               choices=("low", "medium", "high", "all")),
            "cores": Field((int,), 2, minimum=2, maximum=64),
            "ops": Field((int,), 24, minimum=4, maximum=10_000),
            "retry": Field((str,), "backoff",
                           choices=("fixed", "backoff")),
            "workers": Field((int,), 1, minimum=1, maximum=64),
            **_machine_fields(),
        },
        "synthetic": {
            "duration_ms": Field((int,), 10, minimum=0, maximum=600_000),
            "points": Field((int,), 1, minimum=0, maximum=100_000),
            "payload": Field((str,), ""),
            "fail": Field((str,), "", choices=("", "error", "deadlock")),
        },
    }
    return schemas


_SCHEMA_CACHE: Optional[Dict[str, Dict[str, Field]]] = None


def schema(kind: str) -> Dict[str, Field]:
    global _SCHEMA_CACHE
    if _SCHEMA_CACHE is None:
        _SCHEMA_CACHE = _schemas()
    try:
        return _SCHEMA_CACHE[kind]
    except KeyError:
        raise JobValidationError(
            f"unknown job kind {kind!r}; known: "
            f"{', '.join(JOB_KINDS)}") from None


def validate_spec(kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Validate ``spec`` against ``kind``'s schema and normalise it.

    Returns a new dict with every field present (defaults filled) and
    keys sorted, which is the canonical form the job id hashes.
    Raises :class:`JobValidationError` listing *all* problems at once.
    """
    if not isinstance(spec, dict):
        raise JobValidationError(
            f"spec must be a JSON object, got {type(spec).__name__}")
    fields = schema(kind)
    problems: List[str] = []
    for key in sorted(spec):
        if key not in fields:
            problems.append(f"unknown field {key!r}")
    normalised: Dict[str, Any] = {}
    for name, fld in fields.items():
        if name not in spec or spec[name] is None:
            if fld.required:
                problems.append(f"missing required field {name!r}")
                continue
            normalised[name] = fld.default
            continue
        value = spec[name]
        # bool is an int subclass; keep the check strict so schemas
        # that want ints reject JSON booleans.
        if not isinstance(value, fld.type) or (
                isinstance(value, bool) and bool not in fld.type):
            expect = "/".join(t.__name__ for t in fld.type)
            problems.append(f"{name!r} must be {expect}, "
                            f"got {type(value).__name__}")
            continue
        if fld.choices is not None and value not in fld.choices:
            problems.append(
                f"{name!r} must be one of {sorted(fld.choices)!r}, "
                f"got {value!r}")
            continue
        if isinstance(value, int) and not isinstance(value, bool):
            if fld.minimum is not None and value < fld.minimum:
                problems.append(f"{name!r} must be >= {fld.minimum}")
                continue
            if fld.maximum is not None and value > fld.maximum:
                problems.append(f"{name!r} must be <= {fld.maximum}")
                continue
        if isinstance(value, list):
            if not all(isinstance(item, str) for item in value):
                problems.append(f"{name!r} must be a list of strings")
                continue
            value = list(value)
        normalised[name] = value
    if kind == "sweep" and "figure" in normalised:
        from ..harness.sweep import FIGURES
        if normalised["figure"] not in FIGURES:
            problems.append(
                f"unknown figure {normalised['figure']!r}; known: "
                f"{', '.join(sorted(FIGURES))}")
    if kind == "check" and "scenario" in normalised:
        # Imported here, not in the schema: only check jobs pay for
        # loading the model checker.
        from ..modelcheck.scenarios import get_scenario
        try:
            get_scenario(normalised["scenario"])
        except ValueError as exc:
            problems.append(str(exc))
    if problems:
        raise JobValidationError("; ".join(problems))
    return dict(sorted(normalised.items()))


def job_id(kind: str, spec: Dict[str, Any]) -> str:
    """Content-addressed job id: hash of the normalised (kind, spec).

    ``spec`` must already be normalised (see :func:`validate_spec`);
    identical work always maps to the same id, which is what turns a
    duplicate submission into an artifact-store hit.
    """
    blob = json.dumps([kind, spec], sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# Durable job records
# ----------------------------------------------------------------------

@dataclass
class JobRecord:
    """Durable state of one job; JSON-plain, one file per job."""

    id: str
    kind: str
    spec: Dict[str, Any]
    priority: str = DEFAULT_PRIORITY
    status: str = "queued"
    attempts: int = 0
    max_attempts: int = 3
    submitted_ts: float = 0.0
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    worker: Optional[str] = None
    pid: Optional[int] = None
    #: ``True`` when the job completed without executing anything —
    #: its artifact already existed in the store (cross-client dedup).
    cache_hit: bool = False
    #: How many times this exact job was submitted while already
    #: known (dedup coalesced the submissions onto this record).
    resubmits: int = 0
    #: Structured failure payload; carries ``progress_dump`` when the
    #: job died in a :class:`~repro.common.errors.DeadlockError`.
    error: Optional[Dict[str, Any]] = None
    #: Sweep telemetry summary (points/cache hits/simulated) when the
    #: job kind produces one; feeds the cache-hit-rate metric.
    points_total: int = 0
    point_cache_hits: int = 0
    points_simulated: int = 0

    @property
    def active(self) -> bool:
        return self.status in ("queued", "running")

    @property
    def latency(self) -> Optional[float]:
        """Submit-to-finish wall-clock for terminal jobs."""
        if self.finished_ts is None:
            return None
        return max(0.0, self.finished_ts - self.submitted_ts)

    @property
    def run_seconds(self) -> Optional[float]:
        if self.finished_ts is None or self.started_ts is None:
            return None
        return max(0.0, self.finished_ts - self.started_ts)

    def to_dict(self) -> Dict[str, Any]:
        # The derived, read-only fields ride along; ``from_dict`` drops
        # them again.
        return {**vars(self), "latency": self.latency,
                "run_seconds": self.run_seconds}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})


class JobStore:
    """The ``jobs/`` directory: one atomic JSON file per job record."""

    #: Envelope schema tag of job records.
    SCHEMA = "job-record"

    def __init__(self, root: Path, fs=NULL_FS, fsync: bool = False,
                 sweep_age: float = 60.0) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fs = fs
        self.fsync = fsync
        #: Orphaned tmp files reclaimed when this store opened.
        self.tmp_swept = sweep_tmp(self.root, max_age=sweep_age)

    def path(self, job: str) -> Path:
        return self.root / f"{job}.json"

    def load(self, job: str) -> Optional[JobRecord]:
        """``None`` when missing or corrupt (then quarantined)."""
        data = read_or_quarantine(self.path(job), self.SCHEMA)
        return JobRecord.from_dict(data) if data else None

    def save(self, record: JobRecord) -> None:
        """Enveloped, tmp file + atomic replace: never torn, on read."""
        write_record(self.path(record.id), self.SCHEMA, record.to_dict(),
                     fs=self.fs, fsync=self.fsync)

    def all(self, quarantine: bool = True) -> List[JobRecord]:
        """Every readable record; a corrupt one is skipped, and moved
        aside only with ``quarantine`` (a read-only scan leaves it)."""
        docs = (self._read(path, quarantine)
                for path in sorted(self.root.glob("*.json")))
        return [JobRecord.from_dict(doc) for doc in docs if doc]

    def _read(self, path: Path, quarantine: bool):
        if quarantine:
            return read_or_quarantine(path, self.SCHEMA)
        try:
            return read_record(path, self.SCHEMA)
        except CorruptRecord:
            return None

    def quarantined(self) -> int:
        """Corrupt records moved aside so far (derived from disk)."""
        return quarantine_count(self.root)


def submit_record(kind: str, spec: Dict[str, Any], priority: str,
                  max_attempts: int = 3) -> Tuple[str, JobRecord]:
    """Validate + normalise one submission into a fresh queued record."""
    if priority not in PRIORITIES:
        raise JobValidationError(
            f"unknown priority {priority!r}; known: "
            f"{', '.join(sorted(PRIORITIES, key=PRIORITIES.get))}")
    normalised = validate_spec(kind, spec)
    jid = job_id(kind, normalised)
    record = JobRecord(id=jid, kind=kind, spec=normalised,
                       priority=priority, submitted_ts=time.time(),
                       max_attempts=max_attempts)
    return jid, record
