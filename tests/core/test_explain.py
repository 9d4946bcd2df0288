"""Tests for the query-plan explainer."""

from __future__ import annotations

import pytest

from repro.core.system import PoolSystem
from repro.events.generators import generate_events
from repro.events.queries import RangeQuery
from repro.exceptions import DimensionMismatchError
from repro.network.network import Network
from repro.telemetry.spans import SpanRecorder

FIG4 = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
FIG5 = RangeQuery.partial(3, {2: (0.8, 0.84)})

#: ``explain`` text of the fixture world, as the per-cell resolver printed
#: it before resolving moved onto the Equation 1 tables.
FIG4_TEXT = """\
plan for RangeQuery(<[0.2, 0.3], [0.25, 0.35], [0.21, 0.24]>) at sink 0:
  P1 (pivot C(17,42)): R_H=[0.25, 0.3] R_V=[0.25, 0.3]
    splitter: node 0
    C(19,50) (HO=2, VO=8): node 190 (empty)
    C(19,51) (HO=2, VO=9): node 190 (empty)
    C(20,48) (HO=3, VO=6): node 245 (empty)
    C(20,49) (HO=3, VO=7): node 245 (empty)
  P2 (pivot C(30,2)): R_H=[0.25, 0.35] R_V=[0.21, 0.3]
    splitter: node 156
    C(32,9) (HO=2, VO=7): node 221 x1
    C(32,10) (HO=2, VO=8): node 53 (empty)
    C(32,11) (HO=2, VO=9): node 156 (empty)
    C(33,7) (HO=3, VO=5): node 221 (empty)
    C(33,8) (HO=3, VO=6): node 221 (empty)
    C(33,9) (HO=3, VO=7): node 221 x1
  P3 (pivot C(23,24)): R_H=[0.25, 0.24] R_V=[0.25, 0.24] -> pruned"""

FIG5_TEXT = """\
plan for RangeQuery(<*, *, [0.8, 0.84]>) at sink 0:
  P1 (pivot C(17,42)): R_H=[0.8, 1] R_V=[0.8, 1]
    splitter: node 0
    C(25,50) (HO=8, VO=8): node 130 x5
    C(25,51) (HO=8, VO=9): node 116 x1
    C(26,50) (HO=9, VO=8): node 130 x5
    C(26,51) (HO=9, VO=9): node 0 x3
  P2 (pivot C(30,2)): R_H=[0.8, 1] R_V=[0.8, 1]
    splitter: node 156
    C(38,10) (HO=8, VO=8): node 45 x4
    C(38,11) (HO=8, VO=9): node 202 x2
    C(39,10) (HO=9, VO=8): node 202 x5
    C(39,11) (HO=9, VO=9): node 202 x1
  P3 (pivot C(23,24)): R_H=[0.8, 0.84] R_V=[0, 0.84]
    splitter: node 195
    C(31,24) (HO=8, VO=0): node 187 (empty)
    C(31,25) (HO=8, VO=1): node 151 x2
    C(31,26) (HO=8, VO=2): node 151 x3
    C(31,27) (HO=8, VO=3): node 151 x1
    C(31,28) (HO=8, VO=4): node 151 x3
    C(31,29) (HO=8, VO=5): node 151 x4
    C(31,30) (HO=8, VO=6): node 283 x5
    C(31,31) (HO=8, VO=7): node 283 x4
    C(31,32) (HO=8, VO=8): node 107 x2
    C(31,33) (HO=8, VO=9): node 107 x3"""


@pytest.fixture
def pool(topo300):
    system = PoolSystem(Network(topo300), 3, seed=1)
    for event in generate_events(300, 3, seed=2, sources=list(topo300)):
        system.insert(event)
    return system


class TestExplain:
    def test_costs_nothing(self, pool):
        before = pool.network.stats.total
        pool.explain(0, FIG4)
        assert pool.network.stats.total == before

    def test_mentions_every_pool(self, pool):
        text = pool.explain(0, FIG4)
        for label in ("P1", "P2", "P3"):
            assert label in text

    def test_pruned_pool_marked(self, pool):
        text = pool.explain(0, FIG4)
        assert "pruned" in text  # P3 is empty for the Figure 4 query

    def test_lists_relevant_cells_and_splitters(self, pool):
        text = pool.explain(0, FIG5)
        assert "splitter: node" in text
        assert "HO=" in text and "VO=" in text

    def test_shows_holders_with_counts(self, pool):
        text = pool.explain(0, RangeQuery.partial(3, {0: (0.5, 1.0)}))
        assert " x" in text  # at least one populated segment "node N xK"

    def test_text_pinned(self, pool):
        assert pool.explain(0, FIG4) == FIG4_TEXT
        assert pool.explain(0, FIG5) == FIG5_TEXT

    def test_records_one_resolve_span_per_pool(self, topo300):
        """With telemetry attached, explain records what planning records."""
        recorder = SpanRecorder(label="pool")
        system = PoolSystem(Network(topo300, telemetry=recorder), 3, seed=1)
        for event in generate_events(300, 3, seed=2, sources=list(topo300)):
            system.insert(event)
        before = len(list(recorder.walk()))
        system.explain(0, FIG4)
        new = list(recorder.walk())[before:]
        assert [(span.name, span.attrs["pool"]) for span in new] == [
            ("resolve", 0),
            ("resolve", 1),
            ("resolve", 2),
        ]
        assert all(span.messages == 0 for span in new)

    def test_stable_for_fixed_inputs(self, pool):
        assert pool.explain(0, FIG4) == pool.explain(0, FIG4)

    def test_plan_matches_execution(self, pool):
        """Every holder named in the plan is visited by the execution."""
        query = RangeQuery.partial(3, {0: (0.6, 0.9)})
        text = pool.explain(0, query)
        result = pool.query(0, query)
        import re

        planned = {
            int(match)
            for match in re.findall(r"node (\d+)", text.split("splitter", 1)[-1])
        }
        assert set(result.visited_nodes) <= planned

    def test_dimension_mismatch(self, pool):
        with pytest.raises(DimensionMismatchError):
            pool.explain(0, RangeQuery.of((0.0, 1.0)))
