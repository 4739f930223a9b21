"""Deterministic filesystem fault injection for the durable layers.

:class:`FaultyFS` mirrors :class:`repro.faults.plan.FaultPlan`: every
decision is drawn from a per-site RNG stream derived from the shim's
seed, so a (seed, config) pair names exactly one fault schedule and a
failing chaos drill replays by seed.  The disabled state is the falsy
null object :data:`NULL_FS`, shared by every store; the record layer
guards with ``if fs:`` so the disabled fast path is one truth test and
the bytes on disk are identical to a build without the shim.

Faults model what real storage does to an unsuspecting writer:

==========================  ===========================================
op                          effect
==========================  ===========================================
``torn``                    only a prefix of the data reaches the tmp
                            file (page-cache loss without fsync)
``enospc``                  the write fails with ``OSError(ENOSPC)``
                            after a partial prefix (disk filled up)
``eio``                     the write fails with ``OSError(EIO)``
                            (media error surfaced to the writer)
``crash-before-rename``     the process "dies" (:class:`InjectedCrash`)
                            after the tmp write, before the rename —
                            the classic orphaned ``.tmp`` file
``crash-after-rename``      the process dies right after the rename —
                            the record is durable, the writer's
                            follow-up bookkeeping is not
``bitrot``                  the rename succeeds but one byte of the
                            final file is flipped (silent media decay,
                            detected only by checksums)
==========================  ===========================================

Sites are free-form strings — each durable store passes its record
schema tag (``queue-entry``, ``artifact``, ``frontier-checkpoint``,
``point-cache``, ...), so a drill can aim one fault at one layer.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

from ..common.errors import ReproError
from ..common.rng import make_rng

#: Write-path ops (decided when the tmp file is written).
WRITE_OPS: Tuple[str, ...] = ("torn", "enospc", "eio")
#: Rename-path ops (decided when the tmp file is published).
RENAME_OPS: Tuple[str, ...] = ("crash-before-rename",
                               "crash-after-rename", "bitrot")
#: Every op a config may enable.
FS_OPS: Tuple[str, ...] = WRITE_OPS + RENAME_OPS

#: The record schema tags double as injection sites; listed here for
#: documentation and CLI help (a shim accepts any site string).
FS_SITES: Tuple[str, ...] = (
    "queue-entry", "job-record", "artifact", "heartbeat",
    "frontier-checkpoint", "point-cache",
)


class InjectedCrash(ReproError):
    """A simulated process death at a seeded instant.

    Chaos drills catch this where a real deployment would lose the
    process, then "reboot" by constructing fresh store objects over
    the same directories.
    """

    def __init__(self, site: str, op: str, path: str) -> None:
        super().__init__(f"injected crash ({op}) at {site}: {path}")
        self.site = site
        self.op = op
        self.path = path


@dataclass(frozen=True)
class FSFaultConfig:
    """Intensity knobs for a filesystem fault shim.

    ``rate`` is the per-opportunity injection probability, ``ops``
    restricts which faults may fire, ``sites`` (empty = all) restricts
    where, ``site_budget`` caps injections per site, and ``skip``
    lets the first N opportunities per site through untouched — drills
    use it to aim a fault past a store's setup writes.
    """

    rate: float = 1.0
    ops: Tuple[str, ...] = FS_OPS
    sites: Tuple[str, ...] = ()
    site_budget: int = 1
    skip: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate {self.rate} outside [0, 1]")
        if self.site_budget < 0 or self.skip < 0:
            raise ValueError("site_budget and skip must be >= 0")
        unknown = set(self.ops) - set(FS_OPS)
        if unknown:
            raise ValueError(f"unknown fs fault ops {sorted(unknown)}")


class NullFS:
    """The disabled shim: falsy; the record layer skips it entirely."""

    __slots__ = ()
    enabled = False

    def __bool__(self) -> bool:
        return False

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {}


#: The shared disabled shim every durable store starts with.
NULL_FS = NullFS()


class FaultyFS:
    """One seeded, bounded filesystem fault schedule.

    The record layer calls :meth:`write_text` for tmp-file writes and
    :meth:`publish` for the atomic rename/link that makes a record
    visible; each call is one seeded opportunity.
    """

    enabled = True

    def __init__(self, seed: int, config: FSFaultConfig = None) -> None:
        config = config if config is not None else FSFaultConfig()
        config.validate()
        self.seed = seed
        self.config = config
        self._rngs: Dict[str, object] = {}
        self._seen: Dict[str, int] = {}
        #: site -> injections performed, by op.
        self.counts: Dict[str, Dict[str, int]] = {}

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    def _draw(self, site: str, ops: Tuple[str, ...]) -> str:
        """One budgeted draw for ``site``; '' means no fault."""
        cfg = self.config
        if cfg.sites and site not in cfg.sites:
            return ""
        allowed = tuple(op for op in ops if op in cfg.ops)
        if not allowed:
            return ""
        self._seen[site] = self._seen.get(site, 0) + 1
        if self._seen[site] <= cfg.skip:
            return ""
        spent = sum(self.counts.get(site, {}).values())
        if spent >= cfg.site_budget:
            return ""
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = make_rng(self.seed, f"fsfault:{site}")
        if rng.random() >= cfg.rate:
            return ""
        op = allowed[rng.randrange(len(allowed))]
        self.counts.setdefault(site, {})
        self.counts[site][op] = self.counts[site].get(op, 0) + 1
        return op

    # ------------------------------------------------------------------
    def write_text(self, path: Path, data: str, site: str) -> None:
        """Write the tmp file, possibly torn or failing."""
        op = self._draw(site, WRITE_OPS)
        if not op:
            Path(path).write_text(data)
            return
        rng = self._rngs[site]
        if op == "eio":
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(path))
        # torn and enospc both leave a partial prefix behind.
        keep = rng.randrange(len(data)) if data else 0
        Path(path).write_text(data[:keep])
        if op == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC),
                          str(path))

    def publish(self, src: Path, dst: Path, site: str,
                exclusive: bool = False) -> bool:
        """The atomic rename (or first-writer-wins link) that makes a
        record visible; returns False when an exclusive publish lost
        the race.  May crash before or after, or rot the result."""
        op = self._draw(site, RENAME_OPS)
        if op == "crash-before-rename":
            raise InjectedCrash(site, op, str(dst))
        if exclusive:
            try:
                os.link(src, dst)
                created = True
            except FileExistsError:
                created = False
        else:
            os.replace(src, dst)
            created = True
        if op == "bitrot" and created:
            _flip_one_byte(Path(dst), self._rngs[site])
        if op == "crash-after-rename":
            raise InjectedCrash(site, op, str(dst))
        return created

    # ------------------------------------------------------------------
    @property
    def total_injections(self) -> int:
        return sum(sum(ops.values()) for ops in self.counts.values())

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {site: dict(ops) for site, ops in self.counts.items()
                if ops}


def _flip_one_byte(path: Path, rng) -> None:
    """In-place single-byte corruption (the bitrot op and the chaos
    drills' direct corruption helper share this)."""
    blob = bytearray(path.read_bytes())
    if not blob:
        return
    index = rng.randrange(len(blob))
    blob[index] ^= 0xFF
    path.write_bytes(bytes(blob))


def corrupt_file(path: Path, seed: int, mode: str = "flip") -> None:
    """Deterministically corrupt ``path`` for a drill: ``flip`` one
    byte, ``truncate`` to a prefix, or ``zero`` the whole file."""
    path = Path(path)
    rng = make_rng(seed, f"corrupt:{path.name}")
    if mode == "flip":
        _flip_one_byte(path, rng)
    elif mode == "truncate":
        blob = path.read_bytes()
        path.write_bytes(blob[:rng.randrange(max(1, len(blob)))])
    elif mode == "zero":
        path.write_bytes(b"")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
