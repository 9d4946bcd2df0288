"""REP005 bad fixture: poking ledger counters from outside network/."""

from __future__ import annotations


def cook_the_books(stats, category, node: int) -> None:
    stats._counts[category] += 5  # expect: REP005
    stats._per_node_tx[node] = 0  # expect: REP005
    stats._per_node_rx.clear()  # expect: REP005


def launder_via_update(stats, other) -> None:
    stats._counts.update(other._counts)  # expect: REP005


def erase_history(stats, node: int) -> None:
    del stats._per_node_tx[node]  # expect: REP005
    stats._counts = {}  # expect: REP005
    stats._log.clear()  # expect: REP005
