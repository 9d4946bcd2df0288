"""Declarative experiment configurations.

An :class:`ExperimentConfig` captures everything needed to regenerate one
figure: the network-size sweep, the event workload, one or more query
workloads (the figure's x-axis categories when sizes are fixed), the
systems under test and the simulation parameters from Section 5.1 of the
paper (radio range 40 m, ~20 neighbors, α = 5 m, l = 10, three
3-dimensional events per node).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.events.generators import EventWorkload, QueryWorkload
from repro.exceptions import ConfigurationError
from repro.network.reliability import FaultPlan

__all__ = ["ExperimentConfig", "PAPER_NETWORK_SIZES"]

#: The paper's Figure 6 sweep: "from 300 to 3000" sensor nodes.
PAPER_NETWORK_SIZES: tuple[int, ...] = tuple(range(300, 3001, 300))


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything one experiment needs, immutable and replayable.

    Attributes
    ----------
    name, title:
        Registry key and human title (e.g. ``fig6a``).
    paper_claim:
        One-sentence statement of the *shape* the paper reports, recorded
        in EXPERIMENTS.md next to our measurement.
    network_sizes:
        Node counts to sweep.
    query_workloads:
        One per series/category on the figure's x-axis.
    systems:
        Registry names of the systems under test.
    """

    name: str
    title: str
    paper_claim: str = ""
    network_sizes: tuple[int, ...] = (900,)
    dimensions: int = 3
    events_per_node: int = 3
    event_workload: EventWorkload = field(
        default_factory=lambda: EventWorkload(dimensions=3)
    )
    query_workloads: tuple[QueryWorkload, ...] = ()
    query_count: int = 60
    trials: int = 3
    systems: tuple[str, ...] = ("pool", "dim")
    # Section 5.1 physical parameters.
    radio_range: float = 40.0
    target_degree: float = 20.0
    cell_size: float = 5.0
    side_length: int = 10
    # Pool options exercised by ablations.
    sharing_capacity: int | None = None
    route_via_splitter: bool = True
    # Lossy-link reliability knobs (0.0 / None = the seed's perfect links).
    loss_rate: float = 0.0
    retry_limit: int = 3
    fault_plan: FaultPlan | None = None
    # Flight recorder: capture a bounded per-hop event ring per system
    # (``obs.recorder.DEFAULT_CAPACITY`` events, exported into telemetry
    # records).  Off by default so captures stay byte-identical to runs
    # predating the recorder.
    flight_recorder: bool = False

    def __post_init__(self) -> None:
        if not self.network_sizes:
            raise ConfigurationError(f"{self.name}: no network sizes")
        if not self.query_workloads:
            raise ConfigurationError(f"{self.name}: no query workloads")
        if not self.systems:
            raise ConfigurationError(f"{self.name}: no systems under test")
        if self.query_count < 1 or self.trials < 1:
            raise ConfigurationError(
                f"{self.name}: query_count and trials must be >= 1"
            )
        if self.events_per_node < 0:
            raise ConfigurationError(f"{self.name}: events_per_node must be >= 0")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"{self.name}: loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if self.retry_limit < 0:
            raise ConfigurationError(
                f"{self.name}: retry_limit must be >= 0, got {self.retry_limit}"
            )

    def scaled(self, factor: float) -> "ExperimentConfig":
        """A cheaper variant for smoke tests and quick runs.

        Scales the network sweep, query count and trial count down by
        ``factor`` (at least one of each survives); used by the
        ``--scale`` CLI flag and the benchmark suite so CI stays fast
        while ``pool-bench`` regenerates the full figures.
        """
        if factor <= 0 or factor > 1:
            raise ConfigurationError(f"scale factor must be in (0, 1], got {factor}")
        sizes = tuple(
            sorted({max(100, int(size * factor)) for size in self.network_sizes})
        )
        return replace(
            self,
            network_sizes=sizes,
            query_count=max(5, int(self.query_count * factor)),
            trials=max(1, int(self.trials * factor)),
        )
