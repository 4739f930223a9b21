"""Crash-consistency layer for everything the repo persists.

The paper's thesis — *write first, ask for permission later* — only
works because the hardware validates before anything becomes
architecturally visible.  This package applies the same discipline to
the repo's own durable state (the service queue, the artifact store,
the model checker's spooled frontier, the point cache):

* :mod:`~repro.durability.faultyfs` — a deterministic, seeded
  filesystem fault-injection shim (:class:`FaultyFS`, mirroring
  :mod:`repro.faults`' ``FaultPlan``/null-object pattern) that the
  durable layers route their writes/renames/links through: torn
  writes, crash-before/after-rename, ENOSPC, EIO, and bitrot, with
  zero overhead when disabled (:data:`NULL_FS` is falsy);
* :mod:`~repro.durability.records` — a versioned, checksummed record
  envelope (sha256 + schema tag) every durable store writes, so every
  read self-validates and a corrupt record is *quarantined* instead of
  crashing (or silently misleading) the reader;
* :mod:`~repro.durability.spool` — the pending/running spool (claim
  by rename, ack, requeue, quarantine) under the service queue;
* :mod:`~repro.durability.fsck` — ``repro fsck``: scan any
  service/spool/cache directory for orphaned tmp files, dangling
  running entries, and checksum failures, and repair what is safe;
* :mod:`~repro.durability.campaign` — ``repro chaos``: seeded
  end-to-end crash/corruption drills asserting the service and
  frontier invariants differentially (no accepted job lost, no attempt
  double-charged, resumed checks identical to uninterrupted ones).
"""

from .faultyfs import (FSFaultConfig, FS_SITES, FaultyFS, InjectedCrash,
                       NULL_FS, NullFS)
from .fsck import Finding, FsckReport, fsck
from .records import (CorruptRecord, RECORD_VERSION, is_envelope,
                      quarantine, read_record, sweep_tmp, unwrap, wrap,
                      write_record)

__all__ = [
    "CorruptRecord", "FSFaultConfig", "FS_SITES", "FaultyFS", "Finding",
    "FsckReport", "InjectedCrash", "NULL_FS", "NullFS",
    "RECORD_VERSION", "fsck", "is_envelope", "quarantine",
    "read_record", "sweep_tmp", "unwrap", "wrap", "write_record",
]
