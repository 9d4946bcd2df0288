"""Tests for JSON persistence round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import (
    exact_match_queries,
    generate_events,
    partial_match_queries,
)
from repro.events.generators import QueryWorkload
from repro.exceptions import ValidationError
from repro.persistence import (
    events_from_dict,
    events_to_dict,
    load_json,
    queries_from_dict,
    queries_to_dict,
    result_from_dict,
    save_json,
    topology_from_dict,
    topology_to_dict,
)


class TestTopologyRoundTrip:
    def test_positions_and_range(self, topo300):
        restored = topology_from_dict(topology_to_dict(topo300))
        assert restored.radio_range == topo300.radio_range
        assert np.allclose(restored.positions, topo300.positions)
        assert restored.field == topo300.field

    def test_neighbor_tables_identical(self, topo300):
        restored = topology_from_dict(topology_to_dict(topo300))
        assert restored.neighbor_table == topo300.neighbor_table

    def test_failures_preserved(self, topo300):
        degraded = topo300.without([3, 5])
        restored = topology_from_dict(topology_to_dict(degraded))
        assert restored.excluded == frozenset({3, 5})
        assert not restored.is_alive(3)

    def test_schema_checked(self, topo300):
        payload = topology_to_dict(topo300)
        payload["schema"] = "topology/99"
        with pytest.raises(ValidationError):
            topology_from_dict(payload)


class TestWorkloadRoundTrips:
    def test_events(self):
        events = generate_events(50, 3, seed=1, sources=[1, 2, 3])
        restored = events_from_dict(events_to_dict(events))
        assert restored == events
        assert [e.source for e in restored] == [e.source for e in events]
        assert [e.seq for e in restored] == [e.seq for e in events]

    def test_queries(self):
        queries = exact_match_queries(20, 3, seed=2) + partial_match_queries(
            20, 3, unspecified=1, seed=3
        )
        restored = queries_from_dict(queries_to_dict(queries))
        assert restored == queries

    def test_events_schema_checked(self):
        with pytest.raises(ValidationError):
            events_from_dict({"schema": "nope", "events": []})

    def test_queries_schema_checked(self):
        with pytest.raises(ValidationError):
            queries_from_dict({"schema": "queries/2", "queries": []})


class TestResultRoundTrip:
    def test_experiment_result(self):
        config = ExperimentConfig(
            name="rt",
            title="round trip",
            network_sizes=(120,),
            query_workloads=(
                QueryWorkload(dimensions=3, range_sizes="exponential"),
            ),
            query_count=5,
            trials=1,
        )
        result = run_experiment(config, seed=0)
        restored = result_from_dict(result.as_dict())
        assert restored.name == result.name
        assert [r.as_dict() for r in restored.rows] == [
            r.as_dict() for r in result.rows
        ]


class TestFiles:
    def test_save_and_load(self, tmp_path, topo300):
        path = save_json(topology_to_dict(topo300), tmp_path / "topo.json")
        restored = topology_from_dict(load_json(path))
        assert restored.size == topo300.size

    def test_saved_file_is_stable(self, tmp_path, topo300):
        a = save_json(topology_to_dict(topo300), tmp_path / "a.json")
        b = save_json(topology_to_dict(topo300), tmp_path / "b.json")
        assert a.read_text() == b.read_text()
