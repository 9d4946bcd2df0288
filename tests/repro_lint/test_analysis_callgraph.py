"""Call-graph construction: symbols, edges, and protocol resolution.

The synthetic-project tests pin the resolution machinery (direct calls,
annotation-driven method calls, protocol fan-out, weak by-name
fallback); the real-tree tests pin the resolution the analysis rules
actually depend on — ``StagedQuerySystem`` methods fanning out to every
concrete system on *strong* edges, so ledger and taint summaries flow
through ``run_staged`` without guessing by name.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro_lint.analysis.callgraph import build_callgraph
from repro_lint.analysis.project import load_project

REPO_ROOT = Path(__file__).resolve().parents[2]


def _graph_for(tmp_path: Path, files: dict[str, str]):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return build_callgraph(load_project([tmp_path / "src"]))


class TestSyntheticResolution:
    def test_direct_and_annotated_method_calls(self, tmp_path: Path) -> None:
        graph = _graph_for(
            tmp_path,
            {
                "src/app/core.py": (
                    "class Store:\n"
                    "    def put(self, item):\n"
                    "        return item\n"
                    "\n"
                    "def helper():\n"
                    "    return 1\n"
                    "\n"
                    "def run(store: Store):\n"
                    "    helper()\n"
                    "    store.put(3)\n"
                ),
            },
        )
        callees = graph.callees_of("app.core.run", weak=False)
        assert "app.core.helper" in callees
        assert "app.core.Store.put" in callees

    def test_protocol_fans_out_to_implementations(
        self, tmp_path: Path
    ) -> None:
        graph = _graph_for(
            tmp_path,
            {
                "src/app/proto.py": (
                    "from typing import Protocol\n"
                    "\n"
                    "class Sink(Protocol):\n"
                    "    def emit(self, item): ...\n"
                ),
                "src/app/impls.py": (
                    "class FileSink:\n"
                    "    def emit(self, item):\n"
                    "        return item\n"
                    "\n"
                    "class NullSink:\n"
                    "    def emit(self, item):\n"
                    "        return None\n"
                ),
                "src/app/driver.py": (
                    "from app.proto import Sink\n"
                    "\n"
                    "def drive(sink: Sink):\n"
                    "    sink.emit(1)\n"
                ),
            },
        )
        assert sorted(graph.implementations("app.proto.Sink")) == [
            "app.impls.FileSink",
            "app.impls.NullSink",
        ]
        callees = graph.callees_of("app.driver.drive", weak=False)
        assert "app.impls.FileSink.emit" in callees
        assert "app.impls.NullSink.emit" in callees

    def test_base_imported_through_its_package_is_resolved(
        self, tmp_path: Path
    ) -> None:
        # The concrete class inherits the protocol's methods from a base
        # that its module imports through the package's re-export.
        graph = _graph_for(
            tmp_path,
            {
                "src/repro/exec/__init__.py": (
                    "from repro.exec.stages import SinkTreeSystem, StagedQuerySystem\n"
                ),
                "src/repro/exec/stages.py": (
                    "from typing import Protocol\n"
                    "\n"
                    "class StagedQuerySystem(Protocol):\n"
                    "    def plan_query(self, sink, query): ...\n"
                    "    def execute_plan(self, plan): ...\n"
                    "\n"
                    "class SinkTreeSystem:\n"
                    "    def execute_plan(self, plan):\n"
                    "        return plan\n"
                ),
                "src/repro/dim/index.py": (
                    "from repro.exec import SinkTreeSystem\n"
                    "\n"
                    "class DimIndex(SinkTreeSystem):\n"
                    "    def plan_query(self, sink, query):\n"
                    "        return query\n"
                ),
            },
        )
        assert graph.classes["repro.dim.index.DimIndex"].bases == [
            "repro.exec.stages.SinkTreeSystem"
        ]
        assert graph.implementations("repro.exec.stages.StagedQuerySystem") == [
            "repro.dim.index.DimIndex"
        ]
        assert graph.resolve_symbol("repro.dim.index", "SinkTreeSystem") == (
            "repro.exec.stages.SinkTreeSystem"
        )

    def test_constructor_assignment_types_the_receiver(
        self, tmp_path: Path
    ) -> None:
        graph = _graph_for(
            tmp_path,
            {
                "src/app/mod.py": (
                    "class Worker:\n"
                    "    def tick(self):\n"
                    "        return 0\n"
                    "\n"
                    "def loop():\n"
                    "    worker = Worker()\n"
                    "    worker.tick()\n"
                ),
            },
        )
        assert "app.mod.Worker.tick" in graph.callees_of(
            "app.mod.loop", weak=False
        )

    def test_by_name_fallback_is_weak(self, tmp_path: Path) -> None:
        graph = _graph_for(
            tmp_path,
            {
                "src/app/mod.py": (
                    "class Box:\n"
                    "    def open_lid(self):\n"
                    "        return 1\n"
                    "\n"
                    "def poke(thing):\n"
                    "    thing.open_lid()\n"
                ),
            },
        )
        assert "app.mod.Box.open_lid" in graph.callees_of("app.mod.poke")
        assert "app.mod.Box.open_lid" not in graph.callees_of(
            "app.mod.poke", weak=False
        )


class TestRealTree:
    @pytest.fixture(scope="class")
    def graph(self):
        return build_callgraph(load_project([REPO_ROOT / "src"]))

    def test_staged_query_protocol_implementations(self, graph) -> None:
        impls = set(graph.implementations("repro.exec.stages.StagedQuerySystem"))
        assert impls == {
            "repro.baselines.external.ExternalStorage",
            "repro.baselines.flooding.LocalStorageFlooding",
            "repro.core.system.PoolSystem",
            "repro.difs.index.DifsIndex",
            "repro.dim.index.DimIndex",
        }

    def test_run_staged_fans_out_on_strong_edges(self, graph) -> None:
        callees = graph.callees_of("repro.exec.stages.run_staged", weak=False)
        plan_impls = {c for c in callees if c.endswith(".plan_query")}
        # The protocol method itself plus every concrete system.
        assert "repro.exec.stages.StagedQuerySystem.plan_query" in plan_impls
        assert len(plan_impls) == 6

    def test_gpsr_route_reaches_forwarding_rules(self, graph) -> None:
        # The GPSR loop takes greedy hops inline and hands perimeter
        # slots to forward_one, which walks faces by the right-hand rule.
        entry = "repro.routing.gpsr.GPSRRouter.route"
        assert entry in graph.functions
        reached = graph.reachable_from([entry], weak=True)
        assert "repro.routing.gpsr.GPSRRouter.forward_one" in reached
        assert "repro.routing.gpsr.GPSRRouter._rhr_neighbor" in reached
