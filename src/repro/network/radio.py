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

Category counts are eager: a charge adds to them at once.  The per-node
ledger is lazy: a charge appends a reference to what was sent (a routed
path, one ARQ hop, or a planned tree) to the scope's log, and the
per-node views fold the log on read, in record order, in one batched
pass.  A log that reaches :data:`LOG_FOLD_WEIGHT` folds itself, so
memory stays bounded when nothing reads the views.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.network.messages import MessageCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.multicast import MulticastTree

__all__ = ["MessageStats", "EnergyModel", "LOG_FOLD_WEIGHT"]

#: A scope's log folds itself into the per-node counts once its weight
#: reaches this.  An entry weighs ``_ENTRY_WEIGHT`` plus one per tree id
#: (a tree is logged as its already converted :meth:`edge_ends`) and
#: ``_PATH_ID_WEIGHT`` per path id (the fold converts those).  The
#: bound keeps a scope's log under about 1 MB and a fold near 1 ms.  A
#: fold runs inside the charge that crossed it, so a large bound makes
#: that pause rare (one query in a few hundred on the Figure 7 workload)
#: rather than frequent: folds of 4,096 ids, each about 0.2 ms, raised
#: the benchmark's p99 query latency by 37-47%.
LOG_FOLD_WEIGHT = 3 << 17
_ENTRY_WEIGHT = 64
_PATH_ID_WEIGHT = 8

#: Ids one fold step converts at a time, which caps a fold's temporary
#: arrays near 0.5 MB.
_FOLD_STEP = 1 << 14

#: The second element of a logged ``(edge ends, kind)`` tree entry.
#: Going forward the parents (the first half of the ends) send and the
#: children receive; replies swap the roles; a round trip (the replies
#: logged right after their own dissemination) counts both halves on
#: both sides.
_FORWARD, _REPLY, _ROUND_TRIP = 1, 2, 3


def _first_keys(ends: np.ndarray, kind: int, nodes: list[int], sends: bool) -> list[tuple]:
    """Sort keys placing ``nodes`` as they first send (``sends``) or
    receive in a logged tree, edge by edge in send order.

    Going forward, edges go parents before children and siblings by id,
    which orders nodes by depth and then by their line of ancestors;
    replies go deepest first, ties by child id.  Each key costs one walk
    up the tree, not a traversal of it.
    """
    ids = ends.tolist()
    edges = len(ids) // 2
    parents = dict(zip(ids[edges:], ids[:edges]))

    def line(node: int) -> tuple[int, ...]:
        ancestors = []
        while node in parents:
            ancestors.append(node)
            node = parents[node]
        return tuple(reversed(ancestors))

    forward = kind & _FORWARD
    internal = set(ids[:edges]) if forward else set()
    first_child: dict[int, int] = {}
    if not sends and kind & _REPLY:
        wanted = set(nodes)
        for child, parent in parents.items():
            if parent in wanted and child < first_child.get(parent, child + 1):
                first_child[parent] = child
    keys: list[tuple] = []
    for node in nodes:
        ancestors = line(node)
        depth = len(ancestors)
        if sends:
            # A parent first sends going forward; a leaf only replies.
            if node in internal:
                keys.append((0, depth, ancestors))
            else:
                keys.append((1, -depth, node))
        elif forward and depth:
            # A child first receives going forward; the root only hears
            # its children's replies.
            keys.append((0, depth, ancestors))
        else:
            keys.append((1, -depth - 1, first_child[node]))
    return keys


class _NodeCounts:
    """One side of the per-node ledger: counts by node id, first-seen order.

    ``order`` lists exactly the nodes whose count is non-zero.
    """

    __slots__ = ("counts", "order")

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.order: list[int] = []

    def _grow(self, size: int) -> np.ndarray:
        if size > self.counts.size:
            grown = np.zeros(size, dtype=np.int64)
            grown[: self.counts.size] = self.counts
            self.counts = grown
        return self.counts[:size]

    def add(self, node: int, amount: int) -> None:
        counts = self._grow(node + 1)
        if not counts[node]:
            self.order.append(node)
        counts[node] += amount

    def add_batch(self, batch: np.ndarray) -> np.ndarray:
        """Add per-node ``batch`` counts; returns the nodes seen first here."""
        counts = self._grow(batch.size)
        counts += batch
        if np.count_nonzero(self.counts) == len(self.order):
            return batch[:0]
        return np.flatnonzero((counts == batch) & (batch > 0))

    def as_dict(self) -> dict[int, int]:
        order = self.order
        return dict(zip(order, self.counts[order].tolist()))

    def clear(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)
        self.order = []


def _first_seen(
    fresh: np.ndarray,
    seq: np.ndarray,
    where: np.ndarray,
    starts: np.ndarray,
    log: list,
    trees: list[int],
    sends: bool,
) -> list[int]:
    """``fresh`` nodes in the order a per-hop ledger first counts them.

    ``seq`` is one side of the folded log and ``where`` each element's
    position in the flat log, which entry ``i`` fills from ``starts[i]``
    on; ``trees`` indexes the tree entries.  Paths flatten in send order;
    a tree flattens in graft order, so when two fresh nodes first show up
    in the same tree, their rank in that tree's send order replaces their
    position in it.
    """
    first = np.full(int(seq.max()) + 1, seq.size, dtype=np.int64)
    np.minimum.at(first, seq, np.arange(seq.size))
    at = where[first[fresh]]
    entries = np.searchsorted(starts, at, side="right") - 1
    shared, counts = np.unique(entries, return_counts=True)
    tree_entries = set(trees)
    for index in shared[counts > 1].tolist():
        if index not in tree_entries:
            continue
        mine = np.flatnonzero(entries == index)
        ends, kind = log[index]
        keys = _first_keys(ends, kind, fresh[mine].tolist(), sends)
        ranked = sorted(range(len(keys)), key=keys.__getitem__)
        at[mine[ranked]] = starts[index] + np.arange(len(ranked))
    return fresh[np.argsort(at, kind="stable")].tolist()


class MessageStats:
    """Per-category transmission counters, arranged in scopes.

    A "message" here is one one-hop radio transmission, matching the unit
    on the y-axis of the paper's Figures 6 and 7.

    Recording is always local to this scope; every read (``count``,
    ``total``, ``snapshot``, the per-node views) aggregates this scope
    plus all scopes obtained from it, so a facade-level ledger keeps
    reporting whole-deployment totals while each system reads exactly its
    own traffic.

    The per-node views count every charge that names its nodes: routed
    paths, ARQ hops and trees.  Charges made with a bare count stay
    category-only, and the per-node views do not sum to :attr:`total`
    when a scope has any: Pool's ``REPLICATE`` and ``SHARING`` transfers,
    the flooding baseline's broadcast, and the continuous-query
    cancellation.  The event-driven simulator's beacons name only their
    sender, so they count in the transmissions view alone.
    """

    def __init__(self, *, label: str | None = None) -> None:
        self.label = label
        self._counts: Counter[MessageCategory] = Counter()
        # The sum of ``_counts``, kept as charges land.
        self._total = 0
        # What was sent, in record order, not yet folded into the counts:
        # paths and ``(edge ends, kind)`` trees, the indices of the trees,
        # and the log's weight.
        self._log: list = []
        self._log_trees: list[int] = []
        self._log_weight = 0
        # The last tree logged and its entry, which its replies can join.
        self._tree: MulticastTree | None = None
        self._tree_entry: tuple[np.ndarray, int] | None = None
        self._per_node_tx = _NodeCounts()
        self._per_node_rx = _NodeCounts()
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
        if hops == 1 and sender is not None and receiver is not None:
            # One ARQ hop: a two-node path.
            self.record_path(category, (sender, receiver))
            return
        self._counts[category] += hops
        self._total += hops
        if sender is None and receiver is None:
            return
        self._fold()
        if sender is not None:
            self._per_node_tx.add(sender, hops)
        if receiver is not None:
            self._per_node_rx.add(receiver, hops)

    def record_path(self, category: MessageCategory, path: Sequence[int]) -> None:
        """Record a multi-hop traversal: one transmission per path edge.

        Every node but the last sends once, every node but the first
        receives once.  The log keeps ``path`` itself (this runs for
        every routed packet, usually on the route cache's own list), so
        the caller must not change it afterwards.
        """
        ids = len(path)
        if ids <= 1:
            return
        self._counts[category] += ids - 1
        self._total += ids - 1
        self._log.append(path)
        self._log_weight += ids * _PATH_ID_WEIGHT + _ENTRY_WEIGHT
        if self._log_weight >= LOG_FOLD_WEIGHT:
            self._fold()

    def record_tree(
        self, category: MessageCategory, tree: "MulticastTree", *, reply: bool = False
    ) -> None:
        """Record one transmission per edge of ``tree``.

        Forward (``reply=False``) every parent sends to each child,
        parents before children and siblings by id; a reply sends every
        child to its parent, deepest first and ties by id.  These are
        the orders a reliability layer charges the same tree in.
        """
        hops = len(tree.parents)
        if not hops:
            return
        self._counts[category] += hops
        self._total += hops
        log = self._log
        if reply and self._tree is tree and log and log[-1] is self._tree_entry:
            # The replies retrace the dissemination just logged: the
            # round trip folds as one entry.
            log[-1] = (log[-1][0], _ROUND_TRIP)
            return
        ends = tree.edge_ends()
        entry = (ends, _REPLY if reply else _FORWARD)
        self._tree, self._tree_entry = tree, entry
        self._log_trees.append(len(log))
        log.append(entry)
        self._log_weight += ends.size + _ENTRY_WEIGHT
        if self._log_weight >= LOG_FOLD_WEIGHT:
            self._fold()

    def _fold(self) -> None:
        """Fold the log into the per-node counts, in record order.

        Whole entries of about :data:`_FOLD_STEP` ids go at a time, which
        caps the fold's temporary arrays.
        """
        log, trees = self._log, self._log_trees
        if not log:
            return
        self._log, self._log_trees, self._log_weight = [], [], 0
        lengths = np.fromiter(map(len, log), dtype=np.int64, count=len(log))
        if trees:
            lengths[trees] = [log[index][0].size for index in trees]
        ends = lengths.cumsum()
        start = 0
        while start < len(log):
            done = int(ends[start - 1]) if start else 0
            stop = max(
                int(np.searchsorted(ends, done + _FOLD_STEP, side="right")), start + 1
            )
            step_trees = trees[bisect_left(trees, start) : bisect_left(trees, stop)]
            self._fold_step(
                log[start:stop], [i - start for i in step_trees], lengths[start:stop]
            )
            start = stop

    def _fold_step(self, log: list, trees: list[int], lengths: np.ndarray) -> None:
        """Fold consecutive whole entries; ``trees`` indexes their trees."""
        ends = lengths.cumsum()
        starts = ends - lengths
        total = int(ends[-1])
        # A path sends from all but its last node and receives at all but
        # its first; a tree's halves take the roles its kind gives.
        sends = np.ones(total, dtype=bool)
        sends[ends - 1] = False
        lands = np.ones(total, dtype=bool)
        lands[starts] = False
        if not trees:
            flat = np.fromiter(chain.from_iterable(log), dtype=np.int64, count=total)
        else:
            from_paths = np.ones(total, dtype=bool)
            keep = [True] * len(log)
            for index in trees:
                keep[index] = False
                kind = log[index][1]
                start, end = int(starts[index]), int(ends[index])
                half = (start + end) // 2
                from_paths[start:end] = False
                sends[start:half] = lands[half:end] = bool(kind & _FORWARD)
                sends[half:end] = lands[start:half] = bool(kind & _REPLY)
            flat = np.empty(total, dtype=np.int64)
            flat[from_paths] = np.fromiter(
                chain.from_iterable(compress(log, keep)),
                dtype=np.int64,
                count=total - int(lengths[trees].sum()),
            )
            flat[~from_paths] = np.concatenate([log[index][0] for index in trees])
        size = int(flat.max()) + 1
        for side, mask, sender_side in (
            (self._per_node_tx, sends, True),
            (self._per_node_rx, lands, False),
        ):
            seq = flat[mask]
            fresh = side.add_batch(np.bincount(seq, minlength=size))
            if fresh.size:
                side.order.extend(
                    _first_seen(
                        fresh, seq, np.flatnonzero(mask), starts, log, trees, sender_side
                    )
                )

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
        return self._total + sum(child.total for child in self._scopes)

    def query_cost(self) -> int:
        """The paper's query-processing cost: forward + reply messages."""
        return self.count(MessageCategory.QUERY_FORWARD) + self.count(
            MessageCategory.QUERY_REPLY
        )

    def snapshot(self) -> dict[str, int]:
        """Immutable view of all counters, keyed by category value."""
        return {category.value: self.count(category) for category in MessageCategory}

    def per_node_transmissions(self) -> Mapping[int, int]:
        """Read-only view of transmissions by sending node.

        Nodes iterate in the order they first sent, as one ``record``
        per hop would add them.
        """
        self._fold()
        merged = Counter(self._per_node_tx.as_dict())
        for child in self._scopes:
            merged.update(child.per_node_transmissions())
        return dict(merged)

    def per_node_receptions(self) -> Mapping[int, int]:
        """Read-only view of receptions by receiving node."""
        self._fold()
        merged = Counter(self._per_node_rx.as_dict())
        for child in self._scopes:
            merged.update(child.per_node_receptions())
        return dict(merged)

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Zero every counter in this scope and all scopes below it."""
        self._counts.clear()
        self._total = 0
        self._log = []
        self._log_trees = []
        self._log_weight = 0
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
