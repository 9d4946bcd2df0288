"""Plan/result cache for the serving layer.

Entries are looked up by request identity ``(sink, query)`` and indexed
for invalidation by the plan's *resolved cell set* — the Theorem 3.2
output that the staged pipeline made first-class.  The soundness argument
is each system's resolve-covers-placement invariant: an event that could
change a query's answer is always stored in a cell the query's plan
lists (Pool places events only in cells Algorithm 2 resolves for any
matching query; DIM zones partition the value space; a DIFS event's leaf
is always among the query's leaves; flooding and external storage use
conservative whole-system sentinels).  So invalidating exactly the
entries whose cell set contains the insert's cell can never serve a
stale result — and never evicts an unaffected entry.

An invalidation clears only the *result*.  The plan (which cells, which
holders, which splitter trees) never reads the stored events, so it is
kept, with the system's ``layout_version`` it was planned under.  A
request that finds a kept plan but no live result re-executes that plan
while the system's version still matches, skipping ``plan_query``
(and so its ``resolve`` spans); the re-execution charges exactly the
messages a fresh plan would.  Kept plans wait in an insertion-ordered
table of at most :data:`KEPT_PLANS` entries; the oldest goes first.

The cache hooks a system's ``insert_listeners`` and, where the system
can lose stored events (Pool's ``handle_failures``), its
``loss_listeners``: a cell that lost events invalidates like an insert
into it.  Detach with :meth:`PlanResultCache.detach` (or the system's
``close()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.core.insertion import Placement
from repro.dcs import QueryResult
from repro.events.queries import RangeQuery
from repro.exec import QueryPlan

__all__ = ["CacheEntry", "PlanResultCache", "KEPT_PLANS"]

CacheKey = tuple[int, Hashable]

#: Most plans kept after their results were invalidated; the oldest is
#: dropped first.  The live entries are bounded by the request mix alone.
KEPT_PLANS = 256


def _native_cell(cell: Any) -> Hashable:
    """Normalize a listener's cell to the identity plans list.

    Pool's listeners report :class:`Placement` (the shape the
    continuous-query service consumes); Pool plans list the equivalent
    ``(pool, ho, vo)`` triple.  Every other system already reports its
    plan-native identity.
    """
    if isinstance(cell, Placement):
        return (cell.pool, cell.ho, cell.vo)
    return cell


@dataclass(slots=True)
class CacheEntry:
    """One cached plan with its folded result.

    ``version`` is the system's ``layout_version`` the plan was made
    under (``None``: never re-executed once its result is invalidated).
    ``cost`` is what the producing execution charged to the ledger — the
    messages a cache hit avoids re-charging (exact on a deterministic
    network: re-executing the same plan charges the same messages).
    ``complete`` tags whether the result answered every query-relevant
    cell: an incomplete entry (a :class:`~repro.dcs.PartialResult` folded
    under loss or faults) is **never** served as a plain hit — lookups
    skip it so the request revalidates by re-executing, and the fresh
    result then replaces the tainted entry.
    """

    plan: QueryPlan
    result: QueryResult
    cost: int
    complete: bool = True
    version: Hashable | None = None


class PlanResultCache:
    """Resolved-cell-set keyed cache over one system's staged pipeline.

    ``keep_stale`` (off by default) retains *complete* entries evicted by
    invalidation in a stale side table, so a tripped circuit breaker can
    serve a stale-but-complete answer instead of executing into a failing
    network.  Stale entries never satisfy a normal :meth:`lookup`; only
    :meth:`lookup_stale` reads them, and a fresh :meth:`store` for the
    same request supersedes them.
    """

    def __init__(self, *, keep_stale: bool = False) -> None:
        self._entries: dict[CacheKey, CacheEntry] = {}
        # Invalidated entries' plans with their versions, oldest first.
        self._kept: dict[CacheKey, tuple[QueryPlan, Hashable | None]] = {}
        # Inverted index: native cell -> keys of live entries whose plan
        # resolved that cell, in insertion order (a dict as an ordered set).
        self._by_cell: dict[Hashable, dict[CacheKey, None]] = {}
        # (listener list, listener) pairs hooked by attach().
        self._attached: list[tuple[list[Any], Any]] = []
        self.keep_stale = keep_stale
        self._stale: dict[CacheKey, CacheEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.incomplete_skips = 0
        self.stale_hits = 0

    # ------------------------------------------------------------------ #
    # Lookup / store                                                     #
    # ------------------------------------------------------------------ #

    def lookup(self, sink: int, query: RangeQuery) -> CacheEntry | None:
        """The live *complete* entry for ``(sink, query)``.

        An incomplete entry counts as a miss (and is tallied under
        ``incomplete_skips``): the caller re-executes, which revalidates
        the answer and overwrites the tainted entry.  Serving it as a
        hit would replay a lossy network's partial answer as
        authoritative forever — the cache-poisoning bug this guards
        against.
        """
        entry = self._entries.get((sink, query))
        if entry is not None and not entry.complete:
            self.incomplete_skips += 1
            entry = None
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def kept_plan(
        self, sink: int, query: RangeQuery, version: Hashable
    ) -> QueryPlan | None:
        """The kept plan of ``(sink, query)`` if made under ``version``.

        Read after :meth:`lookup` missed.  ``None`` when no plan was kept
        or the system's layout moved on since (the caller re-plans).
        """
        kept = self._kept.get((sink, query))
        if kept is None or version is None or kept[1] != version:
            return None
        return kept[0]

    def lookup_stale(self, sink: int, query: RangeQuery) -> CacheEntry | None:
        """A stale-but-complete entry for ``(sink, query)``, if retained.

        Only consulted while a circuit breaker is open; stale entries are
        by construction complete (incomplete ones are dropped outright at
        invalidation time).
        """
        entry = self._stale.get((sink, query))
        if entry is not None:
            self.stale_hits += 1
        return entry

    def store(
        self,
        plan: QueryPlan,
        result: QueryResult,
        cost: int,
        version: Hashable | None = None,
    ) -> None:
        """Cache a freshly folded result under its plan's identities.

        ``version`` is the system's ``layout_version`` when ``plan`` was
        made.  Completeness is taken from the result itself: a
        :class:`~repro.dcs.PartialResult` is stored *tagged incomplete*
        so it can never satisfy a plain lookup (see :meth:`lookup`).
        """
        key: CacheKey = (plan.sink, plan.query)
        existing = self._entries.get(key)
        if existing is not None:
            self._unindex(key, existing.plan)
        self._kept.pop(key, None)
        complete = not result.is_partial
        self._entries[key] = CacheEntry(
            plan=plan, result=result, cost=cost, complete=complete, version=version
        )
        if complete:
            # A fresh complete answer supersedes any stale copy.
            self._stale.pop(key, None)
        by_cell = self._by_cell
        for cell in plan.cells:
            anchored = by_cell.get(cell)
            if anchored is None:
                by_cell[cell] = {key: None}
            else:
                anchored[key] = None

    # ------------------------------------------------------------------ #
    # Invalidation                                                       #
    # ------------------------------------------------------------------ #

    def invalidate_cell(self, cell: Hashable) -> int:
        """Clear the result of every entry whose cell set contains ``cell``.

        Each entry's plan is kept (see :meth:`kept_plan`), in the order
        the entries were indexed under ``cell``.  Returns how many results
        were invalidated.
        """
        keys = self._by_cell.pop(_native_cell(cell), None)
        if not keys:
            return 0
        for key in keys:
            entry = self._entries.pop(key)
            self._unindex(key, entry.plan)
            if self.keep_stale and entry.complete:
                self._stale[key] = entry
            self._keep(key, entry)
        self.invalidations += len(keys)
        return len(keys)

    def invalidate_all(self) -> int:
        """Drop everything, plans included (topology changes, failure epochs)."""
        dropped = len(self._entries)
        if self.keep_stale:
            for key, entry in self._entries.items():
                if entry.complete:
                    self._stale[key] = entry
        self._entries.clear()
        self._kept.clear()
        self._by_cell.clear()
        self.invalidations += dropped
        return dropped

    def _keep(self, key: CacheKey, entry: CacheEntry) -> None:
        """Keep an invalidated entry's plan, dropping the oldest when full."""
        kept = self._kept
        if len(kept) >= KEPT_PLANS:
            del kept[next(iter(kept))]
        kept[key] = (entry.plan, entry.version)

    def _unindex(self, key: CacheKey, plan: QueryPlan) -> None:
        by_cell = self._by_cell
        for cell in plan.cells:
            anchored = by_cell.get(cell)
            if anchored is not None:
                anchored.pop(key, None)
                if not anchored:
                    del by_cell[cell]

    # ------------------------------------------------------------------ #
    # Insert-listener wiring                                             #
    # ------------------------------------------------------------------ #

    def attach(self, system: Any) -> None:
        """Hook the system's insert (and loss) listeners for invalidation."""

        def _on_insert(cell: Any, event: Any, holder: int) -> None:
            self.invalidate_cell(cell)

        system.insert_listeners.append(_on_insert)
        self._attached.append((system.insert_listeners, _on_insert))
        losses = getattr(system, "loss_listeners", None)
        if losses is not None:
            losses.append(self.invalidate_cell)
            self._attached.append((losses, self.invalidate_cell))

    def detach(self) -> None:
        """Unhook every listener registered by :meth:`attach`.  Idempotent."""
        for listeners, listener in self._attached:
            try:
                listeners.remove(listener)
            except ValueError:
                pass  # the system already tore its listener list down
        self._attached.clear()

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Live results (kept plans without a result do not count)."""
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 with no lookups)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def cells_indexed(self) -> int:
        """Number of distinct cells in the invalidation index."""
        return len(self._by_cell)

    def stale_entries(self) -> int:
        """Number of stale-but-complete entries retained for the breaker."""
        return len(self._stale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanResultCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )
