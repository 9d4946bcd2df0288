"""Construction counters for the deployment layer.

The benchmark harness promises that the expensive per-cell artifacts are
shared: the deployed topology is built exactly once per ``(size, trial)``
cell, and each of its planar rows at most once, no matter how many
systems and workloads run on the shared
:class:`~repro.network.deployment.Deployment`.  These
process-wide counters make that promise testable: the builders tick them,
and the test suite resets and reads them around a run.

This module has no dependencies so every layer can import it freely.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConstructionCounters", "CONSTRUCTION_COUNTERS"]


@dataclass(slots=True)
class ConstructionCounters:
    """How many times each expensive artifact has been built.

    Attributes
    ----------
    topology_deployments:
        Calls to :func:`~repro.network.topology.deploy_uniform` (one per
        experiment cell; ``Topology.without`` derivations do not count).
    planar_rows:
        Planar adjacency rows computed
        (:func:`~repro.routing.planarization.planar_row`); a router
        computes each of its rows at most once, on its first read.
    """

    topology_deployments: int = 0
    planar_rows: int = 0

    def reset(self) -> None:
        """Zero every counter (start of an instrumented test)."""
        self.topology_deployments = 0
        self.planar_rows = 0


#: The process-wide counter instance the builders tick.
CONSTRUCTION_COUNTERS = ConstructionCounters()
