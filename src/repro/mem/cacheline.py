"""Cache-line bookkeeping: coherence state plus the TUS-specific bits.

A :class:`CacheLine` models the per-line metadata of a cache entry.  On
top of the usual MESI state it carries the two extra bits TUS adds to the
L1D (Section IV):

* ``not_visible`` — the line holds unauthorized store data and must be
  hidden from the coherence protocol (it cannot be replaced, forwarded,
  or invalidated while set);
* ``ready`` — write permission has arrived and the unauthorized data has
  been combined with the memory copy, but the line has not yet been made
  visible because an older WOQ atomic group is still pending.

The simulator does not track data values byte-for-byte (timing model);
it tracks the *byte mask* of locally written bytes, which is what the
combine step and store-to-load forwarding decisions need.  Functional
values for the TSO checker are tracked separately by ``repro.models``.
"""

from __future__ import annotations

import enum
from typing import Optional


class State(enum.IntEnum):
    """MESI stable states (plus Invalid)."""

    I = 0
    S = 1
    E = 2
    M = 3

    @property
    def writable(self) -> bool:
        return self in (State.E, State.M)

    @property
    def valid(self) -> bool:
        return self != State.I


class CacheLine:
    """Metadata for one allocated cache entry."""

    __slots__ = ("addr", "state", "not_visible", "ready", "locked",
                 "write_mask", "prefetched", "last_touch")

    def __init__(self, addr: int, state: State = State.I) -> None:
        self.addr = addr
        self.state = state
        #: TUS: unauthorized data present; hidden from coherence.
        self.not_visible = False
        #: TUS: permission arrived and data combined, awaiting visibility.
        self.ready = False
        #: Transient lock (an MSHR transaction owns this entry).
        self.locked = False
        #: Byte mask of locally written (unauthorized) data.
        self.write_mask = 0
        #: The line was brought in by a prefetch and not yet demanded.
        self.prefetched = False
        #: Replacement timestamp (maintained by the replacement policy).
        self.last_touch = 0

    @property
    def dirty(self) -> bool:
        return self.state == State.M

    @property
    def replaceable(self) -> bool:
        """A line can be chosen as a victim unless it is locked or holds
        unauthorized (not yet visible) data — the only copy of that data."""
        return not self.locked and not self.not_visible

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join((
            "n" if self.not_visible else "-",
            "r" if self.ready else "-",
            "l" if self.locked else "-",
        ))
        return f"Line({self.addr:#x} {self.state.name} {flags})"
