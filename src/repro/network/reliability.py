"""Lossy-link reliability layer: loss model, hop-by-hop ARQ, fault injection.

The paper prices queries on a perfectly reliable radio.  This module makes
unreliable delivery a first-class, *deterministic* simulation condition:

* :class:`LossModel` — per-link Bernoulli loss drawn from
  :func:`repro.rng.derive` streams (one independent stream per directed
  link), with an optional distance-scaled mode where loss grows with the
  fraction of the radio range a hop spans.
* :class:`ArqPolicy` — bounded per-hop retransmissions with exponential
  backoff.  The first attempt of a hop stays charged under its original
  :class:`~repro.network.messages.MessageCategory`; every retransmission is
  charged to ``RETRANSMIT`` and a recovered exchange closes with one
  explicit ``ACK`` (first-try successes are acknowledged passively, so at
  ``loss_rate = 0`` the ledger is byte-identical to the lossless stack).
* :class:`FaultPlan` — scheduled node deaths, link-degradation windows and
  message-level drop rules, all indexed by a monotone *transmission tick*
  so faults can land while a query's forwarding tree is mid-flight.
* :class:`ReliabilityLayer` — the runtime object the
  :class:`~repro.network.network.Network` and
  :class:`~repro.network.simulator.Simulator` consult for every one-hop
  transmission.  When the retry budget is exhausted it raises
  :class:`~repro.exceptions.UnreachableError`; storage systems catch it and
  resolve queries to :class:`~repro.dcs.PartialResult` instead of failing.

Determinism: each directed link owns a child stream derived as
``derive(base, "link", sender, receiver)``, so a link's drop sequence
depends only on how many transmissions *that link* has attempted — not on
global interleaving.  Sweeps are therefore identical across ``--jobs 1``
and ``--jobs N`` and across processes.  When the effective loss
probability of a transmission is zero no stream is consulted at all, which
both preserves stream stability and makes the ``loss_rate = 0`` path free.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError, UnreachableError
from repro.geometry import distance
from repro.network.messages import MessageCategory
from repro.rng import SeedLike, derive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.radio import MessageStats
    from repro.network.topology import Topology
    from repro.obs.recorder import FlightRecorder

__all__ = [
    "LossModel",
    "ArqPolicy",
    "NodeDeath",
    "LinkDegradation",
    "DropRule",
    "FaultPlan",
    "ReliabilityLayer",
]


class LossModel:
    """Deterministic per-link Bernoulli packet loss.

    Each *directed link* draws from its own stream, derived as
    ``derive(seed, "link", sender, receiver)`` and consumed one draw per
    attempt on that link.  The stream identity therefore depends only on
    the link's endpoints and its own attempt count — never on global draw
    order or on which process performs the send — which is what keeps
    lossy runs byte-identical across ``--jobs N``.

    Parameters
    ----------
    loss_rate:
        Baseline probability in ``[0, 1)`` that a single one-hop
        transmission is lost.
    distance_scaled:
        When true, a hop spanning distance ``d`` under radio range ``r``
        loses packets with probability ``loss_rate * (d / r) ** 2``
        (clipped to ``[0, 1)``): short hops are nearly clean, hops at the
        edge of the range see the full configured rate.
    seed:
        Root of the per-link stream tree.  Pass a derived generator (e.g.
        ``derive(seed, "loss", size, trial)``) so the loss streams are
        independent of topology and workload streams.
    """

    def __init__(
        self,
        loss_rate: float,
        *,
        distance_scaled: bool = False,
        seed: SeedLike = 0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {loss_rate}"
            )
        self.loss_rate = float(loss_rate)
        self.distance_scaled = bool(distance_scaled)
        self._base = derive(seed, "loss-model")
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def link_probability(
        self, distance_m: float | None, radio_range: float | None
    ) -> float:
        """Effective baseline loss probability for one hop."""
        if not self.distance_scaled or distance_m is None or not radio_range:
            return self.loss_rate
        scale = (distance_m / radio_range) ** 2
        return min(self.loss_rate * scale, 0.999999)

    def _stream(self, sender: int, receiver: int) -> np.random.Generator:
        link = (sender, receiver)
        stream = self._streams.get(link)
        if stream is None:
            stream = derive(self._base, "link", sender, receiver)
            self._streams[link] = stream
        return stream

    def drops(
        self,
        sender: int,
        receiver: int,
        *,
        extra: float = 0.0,
        distance_m: float | None = None,
        radio_range: float | None = None,
    ) -> bool:
        """Draw one Bernoulli loss decision for a transmission.

        ``extra`` is additive loss probability from active degradation
        windows.  When the effective probability is zero no stream is
        consulted, so enabling the layer at ``loss_rate = 0`` makes no
        draws at all.
        """
        p = self.link_probability(distance_m, radio_range) + extra
        if p <= 0.0:
            return False
        p = min(p, 0.999999)
        return bool(self._stream(sender, receiver).random() < p)


@dataclass(frozen=True, slots=True)
class ArqPolicy:
    """Bounded retransmission with exponential backoff.

    ``retry_limit`` is the number of *re*transmissions allowed per hop
    (``0`` disables ARQ: one attempt, then the hop fails).  ``backoff``
    only matters under the discrete-event simulator, where retransmission
    ``k`` waits ``backoff_base * backoff_factor ** (k - 1)`` seconds.
    """

    retry_limit: int = 3
    backoff_base: float = 0.02
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.retry_limit < 0:
            raise ConfigurationError(
                f"retry_limit must be non-negative, got {self.retry_limit}"
            )
        if self.backoff_base <= 0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff_base must be positive and backoff_factor >= 1, got "
                f"base={self.backoff_base} factor={self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retransmission ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_base * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True, slots=True)
class NodeDeath:
    """Kill ``nodes`` just before transmission tick ``at`` is attempted."""

    at: int
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"death tick must be >= 0, got {self.at}")


@dataclass(frozen=True, slots=True)
class LinkDegradation:
    """Add ``extra_loss`` on ticks in ``[start, until)``.

    ``links`` restricts the window to specific directed ``(sender,
    receiver)`` pairs; ``None`` degrades every link.
    """

    start: int
    until: int
    extra_loss: float
    links: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.until:
            raise ConfigurationError(
                f"degradation window [{self.start}, {self.until}) is empty"
            )
        if not 0.0 < self.extra_loss <= 1.0:
            raise ConfigurationError(
                f"extra_loss must be in (0, 1], got {self.extra_loss}"
            )

    def applies(self, tick: int, sender: int, receiver: int) -> bool:
        if not self.start <= tick < self.until:
            return False
        return self.links is None or (sender, receiver) in self.links


@dataclass(frozen=True, slots=True)
class DropRule:
    """Deterministically drop matching transmissions (message-level hook).

    A transmission is dropped when its tick is listed in ``at``, or when
    ``every`` is set and ``start <= tick < until`` with
    ``(tick - start) % every == 0``.  ``category`` (a
    :class:`MessageCategory` value string) narrows the rule; ``None``
    matches everything.  Drop rules model adversarial/bursty interference
    that a Bernoulli model cannot: they bypass the RNG entirely.
    """

    category: str | None = None
    at: tuple[int, ...] = ()
    every: int | None = None
    start: int = 0
    until: int | None = None

    def __post_init__(self) -> None:
        if self.every is not None and self.every <= 0:
            raise ConfigurationError(f"every must be positive, got {self.every}")
        if self.category is not None:
            MessageCategory(self.category)  # raises ValueError on bad names

    def matches(self, tick: int, category: MessageCategory) -> bool:
        if self.category is not None and category.value != self.category:
            return False
        if tick in self.at:
            return True
        if self.every is None:
            return False
        if tick < self.start or (self.until is not None and tick >= self.until):
            return False
        return (tick - self.start) % self.every == 0


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A schedule of faults indexed by transmission tick.

    Ticks count attempted one-hop transmissions seen by one
    :class:`ReliabilityLayer` (a monotone per-layer clock), so the same
    plan hits every system at the same point of *its own* traffic —
    a fair way to compare how Pool and the baselines degrade.
    """

    deaths: tuple[NodeDeath, ...] = ()
    degradations: tuple[LinkDegradation, ...] = ()
    drops: tuple[DropRule, ...] = ()

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        """Build a plan from the ``--fault-plan`` JSON document shape."""
        unknown = set(data) - {"deaths", "degradations", "drops"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan keys: {sorted(unknown)}"
            )
        deaths = tuple(
            NodeDeath(at=int(entry["at"]), nodes=tuple(int(n) for n in entry["nodes"]))
            for entry in data.get("deaths", ())
        )
        degradations = tuple(
            LinkDegradation(
                start=int(entry["start"]),
                until=int(entry["until"]),
                extra_loss=float(entry["extra_loss"]),
                links=(
                    tuple((int(a), int(b)) for a, b in entry["links"])
                    if entry.get("links") is not None
                    else None
                ),
            )
            for entry in data.get("degradations", ())
        )
        drops = tuple(
            DropRule(
                category=entry.get("category"),
                at=tuple(int(t) for t in entry.get("at", ())),
                every=(int(entry["every"]) if entry.get("every") is not None else None),
                start=int(entry.get("start", 0)),
                until=(int(entry["until"]) if entry.get("until") is not None else None),
            )
            for entry in data.get("drops", ())
        )
        return cls(deaths=deaths, degradations=degradations, drops=drops)

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` flag)."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"fault plan {path!r} must be a JSON object, got {type(data).__name__}"
            )
        return cls.from_dict(data)

    def as_dict(self) -> dict[str, Any]:
        """Inverse of :meth:`from_dict` (for telemetry and round-trips)."""
        return {
            "deaths": [
                {"at": d.at, "nodes": list(d.nodes)} for d in self.deaths
            ],
            "degradations": [
                {
                    "start": d.start,
                    "until": d.until,
                    "extra_loss": d.extra_loss,
                    "links": (
                        [list(link) for link in d.links]
                        if d.links is not None
                        else None
                    ),
                }
                for d in self.degradations
            ],
            "drops": [
                {
                    "category": r.category,
                    "at": list(r.at),
                    "every": r.every,
                    "start": r.start,
                    "until": r.until,
                }
                for r in self.drops
            ],
        }


@dataclass(slots=True)
class ReliabilityLayer:
    """Runtime link-reliability state consulted on every one-hop send.

    One layer is shared by all scopes of one :class:`Network` facade (the
    harness builds a fresh layer per system so each system sees identical
    link streams and the same fault schedule relative to its own traffic).

    Accounting split: the scoped :class:`MessageStats` ledgers stay the
    energy ground truth — every attempted transmission is charged there,
    retransmissions under ``RETRANSMIT`` and recovery ACKs under ``ACK``.
    The layer's own counters (``attempted``/``delivered``/...) summarize
    delivery outcomes for the bench report and telemetry.
    """

    loss: LossModel
    arq: ArqPolicy = field(default_factory=ArqPolicy)
    fault_plan: FaultPlan | None = None
    #: Called with the tuple of newly-dead node ids whenever a scheduled
    #: NodeDeath fires (the Simulator hooks this to put SimNodes to sleep).
    on_death: Callable[[tuple[int, ...]], None] | None = None

    clock: int = 0
    dead: set[int] = field(default_factory=set)
    attempted: int = 0
    delivered: int = 0
    retransmissions: int = 0
    acks: int = 0
    failed_hops: int = 0
    _topology: "Topology | None" = None
    _pending_deaths: list[NodeDeath] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.fault_plan is not None:
            self._pending_deaths = sorted(
                self.fault_plan.deaths, key=lambda d: d.at
            )

    # ------------------------------------------------------------------ #
    # Wiring                                                             #
    # ------------------------------------------------------------------ #

    def bind(self, topology: "Topology") -> None:
        """Attach a topology (for distance-scaled loss); idempotent."""
        if self._topology is None:
            self._topology = topology

    def is_alive(self, node: int) -> bool:
        """Liveness as seen by the reliability overlay (fault-plan deaths)."""
        return node not in self.dead

    # ------------------------------------------------------------------ #
    # Per-transmission machinery                                         #
    # ------------------------------------------------------------------ #

    def begin_transmission(self) -> int:
        """Advance the transmission clock, applying any due fault-plan deaths.

        Returns the tick assigned to this transmission.
        """
        tick = self.clock
        self.clock += 1
        while self._pending_deaths and self._pending_deaths[0].at <= tick:
            death = self._pending_deaths.pop(0)
            newly = tuple(n for n in death.nodes if n not in self.dead)
            self.dead.update(newly)
            if newly and self.on_death is not None:
                self.on_death(newly)
        return tick

    def transmission_lost(
        self, tick: int, category: MessageCategory, sender: int, receiver: int
    ) -> bool:
        """Decide whether the transmission at ``tick`` is lost in flight.

        A dead receiver always loses the packet; drop rules fire
        deterministically; degradation windows add loss probability on top
        of the baseline model.
        """
        if receiver in self.dead:
            return True
        extra = 0.0
        if self.fault_plan is not None:
            for rule in self.fault_plan.drops:
                if rule.matches(tick, category):
                    return True
            for window in self.fault_plan.degradations:
                if window.applies(tick, sender, receiver):
                    extra += window.extra_loss
        distance_m: float | None = None
        radio_range: float | None = None
        if self.loss.distance_scaled and self._topology is not None:
            distance_m = distance(
                self._topology.position(sender), self._topology.position(receiver)
            )
            radio_range = self._topology.radio_range
        return self.loss.drops(
            sender,
            receiver,
            extra=extra,
            distance_m=distance_m,
            radio_range=radio_range,
        )

    def transmit(
        self,
        category: MessageCategory,
        sender: int,
        receiver: int,
        attempt: int,
        stats: "MessageStats",
        *,
        sender_alive: bool = True,
        flight: "FlightRecorder | None" = None,
        pid: int | None = None,
    ) -> bool | None:
        """Send attempt ``attempt`` (0 first) of a hop; ``True`` if it survives.

        Advances the clock (applying due deaths), then checks the sender:
        a dead one (or ``sender_alive=False``) fails the hop, returning
        ``None``.  Otherwise the attempt is charged, under ``category``
        first and ``RETRANSMIT`` after, and the loss is drawn.
        """
        tick = self.begin_transmission()
        if sender in self.dead or not sender_alive:
            self.failed_hops += 1
            if flight is not None and pid is not None:
                flight.record(pid, "failed", sender, receiver, "sender-dead")
            return None
        charge = category if attempt == 0 else MessageCategory.RETRANSMIT
        stats.record(charge, sender=sender, receiver=receiver)
        self.attempted += 1
        if attempt > 0:
            self.retransmissions += 1
            if flight is not None and pid is not None:
                flight.record(pid, "retransmit", sender, receiver, attempt)
        return not self.transmission_lost(tick, category, sender, receiver)

    def land(
        self,
        sender: int,
        receiver: int,
        attempt: int,
        arrived: bool,
        stats: "MessageStats",
        *,
        flight: "FlightRecorder | None" = None,
        pid: int | None = None,
        mode: str | None = None,
    ) -> bool | None:
        """Land an attempt: ``True`` delivered, ``False`` failed, ``None`` retry.

        A recovered hop adds one ``ACK`` from receiver back to sender; a
        lost attempt fails the hop once ``retry_limit`` retries are spent.
        """
        if arrived:
            self.delivered += 1
            if flight is not None and pid is not None:
                flight.record(pid, "hop", sender, receiver, mode)
            if attempt > 0:
                stats.record(MessageCategory.ACK, sender=receiver, receiver=sender)
                self.acks += 1
                if flight is not None and pid is not None:
                    flight.record(pid, "ack", receiver, sender, attempt)
            return True
        if flight is not None and pid is not None:
            flight.record(pid, "loss", sender, receiver, attempt)
        if attempt >= self.arq.retry_limit:
            self.failed_hops += 1
            if flight is not None and pid is not None:
                flight.record(pid, "failed", sender, receiver, "arq-exhausted")
            return False
        return None

    def deliver_hop(
        self,
        category: MessageCategory,
        sender: int,
        receiver: int,
        stats: "MessageStats",
        *,
        flight: "FlightRecorder | None" = None,
        pid: int | None = None,
        mode: str | None = None,
    ) -> bool:
        """One hop under ARQ: :meth:`transmit` then :meth:`land` until the
        hop delivers (``True``) or fails (``False``).

        With ``flight``/``pid`` set, each step appends its ``retransmit``,
        ``loss``, ``hop`` (annotated with the GPSR ``mode``), ``ack`` or
        ``failed`` event to the flight-recorder ring; recording never
        changes a decision.
        """
        attempt = 0
        while True:
            arrived = self.transmit(
                category, sender, receiver, attempt, stats, flight=flight, pid=pid
            )
            if arrived is None:
                return False
            outcome = self.land(
                sender, receiver, attempt, arrived, stats,
                flight=flight, pid=pid, mode=mode,
            )
            if outcome is not None:
                return outcome
            attempt += 1

    def send_path(
        self,
        category: MessageCategory,
        path: list[int] | tuple[int, ...],
        stats: "MessageStats",
        *,
        flight: "FlightRecorder | None" = None,
        pid: int | None = None,
        modes: tuple[str, ...] | None = None,
    ) -> None:
        """Deliver along ``path`` hop by hop, raising on an exhausted hop.

        Mirrors :meth:`MessageStats.record_path` exactly when nothing is
        lost.  On failure the raised :class:`UnreachableError` carries the
        prefix that *was* reached (``partial_path``) and the failed hop.
        ``flight``/``pid``/``modes`` thread the flight-recorder context
        through to :meth:`deliver_hop` (``modes[i]`` labels hop ``i``).
        """
        for index in range(len(path) - 1):
            sender, receiver = path[index], path[index + 1]
            if not self.deliver_hop(
                category,
                sender,
                receiver,
                stats,
                flight=flight,
                pid=pid,
                mode=modes[index] if modes is not None else None,
            ):
                raise UnreachableError(
                    f"hop {sender}->{receiver} undeliverable after "
                    f"{self.arq.retry_limit} retransmission(s)",
                    list(path[: index + 1]),
                    failed_hop=(sender, receiver),
                )

    # ------------------------------------------------------------------ #
    # Reporting                                                          #
    # ------------------------------------------------------------------ #

    @property
    def delivery_ratio(self) -> float:
        """Delivered / attempted transmissions (1.0 when nothing sent)."""
        if self.attempted == 0:
            return 1.0
        return self.delivered / self.attempted

    def snapshot(self) -> dict[str, Any]:
        """Deterministic summary for telemetry records."""
        return {
            "attempted": self.attempted,
            "delivered": self.delivered,
            "retransmissions": self.retransmissions,
            "acks": self.acks,
            "failed_hops": self.failed_hops,
            "delivery_ratio": round(self.delivery_ratio, 6),
            "dead_nodes": sorted(self.dead),
        }
