"""Message categories and records.

The paper's cost metric is the *number of messages* exchanged among sensors
(Section 5).  Every one-hop radio transmission is one message.  We tag each
transmission with a :class:`MessageCategory` so experiments can report the
split the paper describes: "the cost of forwarding the query to the
query-relevant index nodes plus the cost of retrieving the qualifying
events".
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MessageCategory", "Message"]


class MessageCategory(enum.Enum):
    """What a radio transmission was for (accounting buckets)."""

    #: Routing a detected event from its source to its home index node.
    INSERT = "insert"
    #: Disseminating a query down the forwarding tree.
    QUERY_FORWARD = "query_forward"
    #: Carrying (aggregated) qualifying events back toward the sink.
    QUERY_REPLY = "query_reply"
    #: Geographic-hash-table lookups (pivot cells, home-node discovery).
    DHT = "dht"
    #: Periodic neighbor beacons.
    BEACON = "beacon"
    #: Workload-sharing handoffs between an index node and a delegate.
    SHARING = "sharing"
    #: Push notifications from continuous (standing) queries.
    NOTIFY = "notify"
    #: Synchronous replication copies and post-failure recovery transfers.
    REPLICATE = "replicate"
    #: Anything an application sends directly.
    APPLICATION = "application"
    #: ARQ retransmission of a lost one-hop transmission (the first
    #: attempt stays charged under its original category).
    RETRANSMIT = "retransmit"
    #: Explicit ACK closing a recovered ARQ exchange.  First-try
    #: successes are acknowledged passively (overhearing the receiver's
    #: own forward transmission), so a lossless network charges none.
    ACK = "ack"

    # Every charge hashes its category into the ledger's counts.  Members
    # are singletons compared by identity, so the identity hash (C-level)
    # is exact; ``Enum``'s own hashes the name in Python, twice per charge.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_message_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """One logical message travelling through the network.

    A logical message may cost many radio transmissions (one per hop); the
    accounting layer (:class:`repro.network.radio.MessageStats`) records
    hops, not logical messages.

    Attributes
    ----------
    category:
        Accounting bucket.
    src, dst:
        Node ids of the logical endpoints (``dst`` may be ``None`` when the
        packet is addressed to a geographic location instead of a node).
    payload:
        Arbitrary application data (an :class:`~repro.events.Event`, a
        query, a handoff record, ...).
    dest_point:
        Geographic destination for location-addressed packets (GPSR).
    msg_id:
        Unique id, mostly for tracing/debugging.
    """

    category: MessageCategory
    src: int
    dst: int | None = None
    payload: Any = None
    dest_point: tuple[float, float] | None = None
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.dst if self.dst is not None else self.dest_point
        return f"Message(#{self.msg_id} {self.category} {self.src}->{target})"
