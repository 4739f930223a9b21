"""Coherence message and snoop-response vocabulary.

The timing model is transaction-based rather than packet-based: a request
walks the hierarchy accumulating latency, and remote caches are consulted
through snoop callbacks.  These enums name the protocol-visible choices;
TUS extends the classic ack/ack-with-data snoop answers with the two
behaviours Section III-C introduces (delay and relinquish).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set


class ReqType(enum.Enum):
    """Requests a private hierarchy can issue to the shared levels."""

    GETS = "GetS"          # read permission (load miss / read prefetch)
    GETX = "GetX"          # write permission + data (store miss)
    UPGRADE = "Upgrade"    # write permission for a line already held shared
    PUTM = "PutM"          # writeback of a dirty evicted line


class SnoopKind(enum.Enum):
    """What a snoop asks of a remote cache."""

    INVALIDATE = "Inv"     # GetX/Upgrade by another core
    DOWNGRADE = "Down"     # GetS by another core hitting an M/E copy


class SnoopResult(enum.Enum):
    """How a remote cache answers a snoop.

    ``ACK``/``ACK_DATA`` are the classic MESI responses.  ``DELAY`` and
    ``RELINQUISH_OLD_DATA`` are the TUS extensions: a core that holds the
    line as not-visible either delays the request (it owns every line of
    lesser-or-equal lex order, so it is guaranteed to finish first) or
    relinquishes its permission and instructs its L2 to supply the
    unmodified copy of the data.
    """

    ACK = "ack"
    ACK_DATA = "ack_data"
    DELAY = "delay"
    RELINQUISH_OLD_DATA = "relinquish"


@dataclass(slots=True)
class SnoopReply:
    """A remote cache's full answer to one snoop."""

    result: SnoopResult
    #: True when the responder had the only modified copy (data forward).
    had_dirty: bool = False


@dataclass(slots=True, eq=False)
class Transaction:
    """Bookkeeping for one in-flight shared-level transaction.

    Compares by identity: two transactions are never interchangeable,
    even when every field matches."""

    req: ReqType
    addr: int
    requester: int
    issued_cycle: int
    #: Number of times the directory re-polled a delaying core.
    polls: int = 0
    #: Number of busy/conflict retries at the directory; indexes the
    #: retry policy's backoff schedule.
    retries: int = 0
    prefetch: bool = False
    #: Targets that already answered this transaction's snoop (ACK,
    #: ACK_DATA, or RELINQUISH).  A DELAY re-poll must not snoop them
    #: again: their caches were already invalidated/downgraded and the
    #: stats already counted them.
    resolved: Set[int] = field(default_factory=set)
    #: True once any resolved target supplied (or relinquished) dirty
    #: data; must survive DELAY re-polls so the data forward is not
    #: forgotten.
    data_from_remote: bool = False
    #: Core currently answering this transaction's snoop with DELAY
    #: (None while no delay is outstanding).  The model checker's
    #: wait-for graph is built from these edges: a cycle of live delays
    #: is the deadlock the lex order is supposed to exclude.
    waiting_on: Optional[int] = None
    #: Directory home (shard id) serving this transaction; 0 on a
    #: monolithic directory.
    home: int = 0
    #: Slowest snoop round trip charged so far (hop latency between the
    #: home and its snoop targets).  Accumulated as a max across DELAY
    #: re-polls so the data supply pays the full collection time once.
    snoop_latency: int = 0
