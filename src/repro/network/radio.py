"""Radio-level accounting: message counters and the energy model.

:class:`MessageStats` is the source of truth for the paper's cost metric.
Every layer that causes a transmission (routing, forwarding trees,
workload sharing) reports into the ledger owned by its
:class:`~repro.network.network.Network` facade.

Ledgers are *scoped*: :meth:`MessageStats.scope` hands out an independent
child recorder.  Each storage system records into its own scope, so
several systems can run against one shared deployment without resetting a
shared ledger between measured phases, while a parent ledger still reads
as the aggregate of everything recorded beneath it (reads sum lazily over
the scope tree; the hot recording path touches only the local scope).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.network.messages import MessageCategory

__all__ = ["MessageStats", "EnergyModel"]


class MessageStats:
    """Per-category transmission counters, arranged in scopes.

    A "message" here is one one-hop radio transmission, matching the unit
    on the y-axis of the paper's Figures 6 and 7.

    Recording is always local to this scope; every read (``count``,
    ``total``, ``snapshot``, the per-node views) aggregates this scope
    plus all scopes obtained from it, so a facade-level ledger keeps
    reporting whole-deployment totals while each system reads exactly its
    own traffic.
    """

    def __init__(self, *, label: str | None = None) -> None:
        self.label = label
        self._counts: Counter[MessageCategory] = Counter()
        self._per_node_tx: Counter[int] = Counter()
        self._per_node_rx: Counter[int] = Counter()
        self._scopes: list[MessageStats] = []

    def scope(self, label: str | None = None) -> "MessageStats":
        """An independent child ledger aggregated into this one on reads.

        This replaces the old reset-the-shared-ledger dance: a system
        records into its own scope and measures phases with
        :meth:`checkpoint`/:meth:`delta` or :meth:`reset` without
        disturbing any sibling system sharing the deployment.
        """
        child = MessageStats(label=label)
        self._scopes.append(child)
        return child

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    def record(
        self,
        category: MessageCategory,
        hops: int = 1,
        *,
        sender: int | None = None,
        receiver: int | None = None,
    ) -> None:
        """Record ``hops`` transmissions in ``category``.

        ``sender``/``receiver`` feed the per-node energy ledger when the
        caller knows them (single-hop case).
        """
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        if hops == 0:
            return
        self._counts[category] += hops
        if sender is not None:
            self._per_node_tx[sender] += hops
        if receiver is not None:
            self._per_node_rx[receiver] += hops

    def record_path(self, category: MessageCategory, path: Sequence[int]) -> None:
        """Record a multi-hop traversal: one transmission per path edge.

        Charged in one step rather than one :meth:`record` per hop (this
        runs for every routed packet): every node but the last sends
        once, every node but the first receives once.  Nodes enter the
        per-node counters in path order, as one ``record`` per hop would
        add them, so the per-node views iterate identically.
        """
        hops = len(path) - 1
        if hops <= 0:
            return
        self._counts[category] += hops
        self._per_node_tx.update(path[:-1])
        self._per_node_rx.update(path[1:])

    # ------------------------------------------------------------------ #
    # Reading (aggregates over this scope and all scopes below it)       #
    # ------------------------------------------------------------------ #

    def count(self, category: MessageCategory) -> int:
        """Transmissions recorded in one category."""
        return self._counts[category] + sum(
            child.count(category) for child in self._scopes
        )

    @property
    def total(self) -> int:
        """Transmissions across all categories."""
        return sum(self._counts.values()) + sum(
            child.total for child in self._scopes
        )

    def query_cost(self) -> int:
        """The paper's query-processing cost: forward + reply messages."""
        return self.count(MessageCategory.QUERY_FORWARD) + self.count(
            MessageCategory.QUERY_REPLY
        )

    def snapshot(self) -> dict[str, int]:
        """Immutable view of all counters, keyed by category value."""
        return {category.value: self.count(category) for category in MessageCategory}

    def per_node_transmissions(self) -> Mapping[int, int]:
        """Read-only view of transmissions by sending node."""
        merged = Counter(self._per_node_tx)
        for child in self._scopes:
            merged.update(child.per_node_transmissions())
        return dict(merged)

    def per_node_receptions(self) -> Mapping[int, int]:
        """Read-only view of receptions by receiving node."""
        merged = Counter(self._per_node_rx)
        for child in self._scopes:
            merged.update(child.per_node_receptions())
        return dict(merged)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Zero every counter in this scope and all scopes below it."""
        self._counts.clear()
        self._per_node_tx.clear()
        self._per_node_rx.clear()
        for child in self._scopes:
            child.reset()

    def checkpoint(self) -> "StatsCheckpoint":
        """Capture current counters; subtract later with ``delta()``."""
        return StatsCheckpoint(
            {category: self.count(category) for category in MessageCategory}
        )

    def delta(self, checkpoint: "StatsCheckpoint") -> dict[str, int]:
        """Per-category transmissions since ``checkpoint``."""
        return {
            category.value: self.count(category)
            - checkpoint.counts.get(category, 0)
            for category in MessageCategory
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{category.value}={count}"
            for category, count in self._counts.items()
        )
        scoped = f", scopes={len(self._scopes)}" if self._scopes else ""
        return f"MessageStats({parts}{scoped})"


@dataclass(frozen=True, slots=True)
class StatsCheckpoint:
    """A frozen copy of :class:`MessageStats` counters."""

    counts: dict[MessageCategory, int]


@dataclass(slots=True)
class EnergyModel:
    """First-order radio energy model (Heinzelman et al. style).

    Energy is derived from the transmission ledger rather than tracked
    live: ``energy(node) = tx_cost * transmissions + rx_cost * receptions``.
    Defaults approximate a mica2-class radio sending small index packets;
    the absolute scale is irrelevant to the paper's relative comparisons.

    Attributes
    ----------
    tx_cost:
        Joules per transmitted message.
    rx_cost:
        Joules per received message.
    idle_cost_per_s:
        Joules per second of idle listening (used by the simulator's
        low-power-state accounting in the workload-sharing experiments).
    """

    tx_cost: float = 50e-6
    rx_cost: float = 25e-6
    idle_cost_per_s: float = 1e-6
    initial_energy: float = field(default=2.0)

    def spent(self, transmissions: int, receptions: int, idle_s: float = 0.0) -> float:
        """Energy consumed by a node with the given activity."""
        return (
            self.tx_cost * transmissions
            + self.rx_cost * receptions
            + self.idle_cost_per_s * idle_s
        )

    def remaining(
        self, transmissions: int, receptions: int, idle_s: float = 0.0
    ) -> float:
        """Remaining battery after the given activity (can go negative)."""
        return self.initial_energy - self.spent(transmissions, receptions, idle_s)

    def per_node_remaining(self, stats: MessageStats) -> dict[int, float]:
        """Remaining energy per node id, from a stats ledger."""
        tx = stats.per_node_transmissions()
        rx = stats.per_node_receptions()
        nodes = sorted(set(tx) | set(rx))
        return {
            node: self.remaining(tx.get(node, 0), rx.get(node, 0)) for node in nodes
        }
