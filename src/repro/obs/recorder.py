"""The per-hop flight recorder: a bounded ring of routing events.

A :class:`FlightRecorder` is the aviation-style black box of one system's
run, and the one place to look for the exact hops a packet took: every
logical packet sent through :meth:`Network.send_along` opens a packet
entry, so does every tree dissemination and reply collection
(:meth:`Network.disseminate`, :meth:`Network.collect_up_tree`), and every
one-hop transmission appends an event — the hop
taken and its GPSR mode (greedy/perimeter), plus (under a reliability
layer) per-hop losses, retransmissions, recovery ACKs and exhausted-ARQ
failures.  ``python -m repro.obs.route capture.jsonl <pid>`` replays one
packet's events as a human-readable route trace.

Determinism: events are recorded in the *main* simulation process at the
facade layer — program order there is identical regardless of ``--jobs``
(cells are independent) — and :meth:`as_dict` additionally sorts events by
``(pid, seq)``, so the exported ring is byte-identical across any worker
configuration.

Cost: a facade without a recorder attached
(``Network.flight_recorder is None``) pays one ``if`` per send and never
allocates — the zero-cost-when-off contract the
telemetry byte-identity tests pin.

The ring is bounded (``capacity`` events); when full, the oldest events
are evicted and counted in ``dropped``, so a pathological run cannot
hold the whole hop history in memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.exceptions import ConfigurationError

__all__ = ["FlightRecorder", "EVENT_KINDS"]

#: Event kinds a recorder emits.  ``send`` opens a packet (src/dst are the
#: logical endpoints, the root twice for a tree packet); ``hop`` is one delivered one-hop transmission with
#: its GPSR mode in ``info``; ``loss``/``retransmit``/``ack``/``failed``
#: are the ARQ lifecycle of a lossy hop (``info`` is the attempt index).
EVENT_KINDS = ("send", "hop", "loss", "retransmit", "ack", "failed")

#: Default ring capacity (events, not packets).
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Bounded, deterministic ring of per-hop routing events.

    Parameters
    ----------
    capacity:
        Maximum events retained.  The ring keeps the *newest* events:
        when full, the oldest event is evicted and ``dropped`` counts it,
        so a capture always says how much history it is missing.
    """

    __slots__ = ("capacity", "dropped", "_events", "_next_pid", "_next_seq")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.dropped = 0
        self._events: deque[tuple[int, int, str, int, int, Any]] = deque(
            maxlen=capacity
        )
        self._next_pid = 0
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def packets(self) -> int:
        """Number of packet ids assigned so far."""
        return self._next_pid

    def open_packet(self, category: str, src: int, dst: int) -> int:
        """Assign the next packet id and record its ``send`` event.

        ``category`` is the message-category value string of the logical
        send; ``src``/``dst`` are the endpoints of the whole path, not of
        one hop.
        """
        pid = self._next_pid
        self._next_pid += 1
        self.record(pid, "send", src, dst, category)
        return pid

    def record(self, pid: int, kind: str, src: int, dst: int, info: Any = None) -> None:
        """Append one event to the ring (evicting the oldest when full)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        seq = self._next_seq
        self._next_seq += 1
        self._events.append((pid, seq, kind, src, dst, info))

    def events_for(self, pid: int) -> list[dict[str, Any]]:
        """The retained events of one packet, in sequence order."""
        return [
            self._event_dict(event)
            for event in sorted(self._events)
            if event[0] == pid
        ]

    @staticmethod
    def _event_dict(event: tuple[int, int, str, int, int, Any]) -> dict[str, Any]:
        pid, seq, kind, src, dst, info = event
        payload: dict[str, Any] = {
            "pid": pid,
            "seq": seq,
            "kind": kind,
            "src": src,
            "dst": dst,
        }
        if info is not None:
            payload["info"] = info
        return payload

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready ring snapshot, events sorted by ``(pid, seq)``.

        The sort is what makes the exported block independent of any
        residual interleaving concern: two rings holding the same events
        serialize identically no matter the append order.
        """
        return {
            "capacity": self.capacity,
            "packets": self._next_pid,
            "dropped": self.dropped,
            "events": [self._event_dict(event) for event in sorted(self._events)],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"events={len(self._events)}, dropped={self.dropped})"
        )
