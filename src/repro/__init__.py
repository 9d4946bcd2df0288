"""Pool: data-centric storage for multi-dimensional range queries in WSNs.

A from-scratch reproduction of *Supporting Multi-Dimensional Range Query
for Sensor Networks* (Chung, Su & Lee, ICDCS 2007): the **Pool** storage
scheme, the **DIM** baseline it is evaluated against, and the full sensor-
network substrate both run on (uniform deployment, GPSR routing, GHT,
message accounting, discrete-event simulation).

Quickstart
----------
::

    from repro import (
        Network, PoolSystem, RangeQuery, deploy_uniform, generate_events,
    )

    topology = deploy_uniform(900, seed=7)
    network = Network(topology)
    pool = PoolSystem(network, dimensions=3, seed=7)

    for event in generate_events(2700, 3, seed=7, sources=list(topology)):
        pool.insert(event)

    query = RangeQuery.of((0.2, 0.3), (0.25, 0.35), (0.21, 0.24))
    result = pool.query(sink=0, query=query)
    print(result.match_count, "matches for", result.total_cost, "messages")

See ``examples/`` for richer scenarios and the ``pool-bench`` CLI for
the paper's Figure 6/7 reproductions.
"""

from repro.aggregates import AggregateKind, AggregateState
from repro.baselines import ExternalStorage, LocalStorageFlooding
from repro.core import (
    Cell,
    FailureReport,
    PoolLayout,
    PoolSystem,
    ReplicationPolicy,
    SharingPolicy,
)
from repro.core.continuous import ContinuousQueryService, Subscription
from repro.core.knn import KnnResult, nearest_neighbors
from repro.dcs import (
    AggregateResult,
    DataCentricStore,
    InsertReceipt,
    QueryResult,
)
from repro.difs import DifsIndex
from repro.dim import DimIndex
from repro.events import (
    Event,
    QueryKind,
    RangeQuery,
    exact_match_queries,
    generate_events,
    partial_match_queries,
)
from repro.exceptions import ReproError
from repro.ght import GeographicHashTable
from repro.network import (
    EnergyModel,
    MessageStats,
    Network,
    Simulator,
    Topology,
    deploy_grid,
    deploy_uniform,
)
from repro.routing import GPSRRouter

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core scheme
    "PoolSystem",
    "PoolLayout",
    "Cell",
    "SharingPolicy",
    "ReplicationPolicy",
    "FailureReport",
    # extensions (paper future work)
    "AggregateKind",
    "AggregateState",
    "AggregateResult",
    "ContinuousQueryService",
    "Subscription",
    "nearest_neighbors",
    "KnnResult",
    # baselines
    "DimIndex",
    "DifsIndex",
    "GeographicHashTable",
    "LocalStorageFlooding",
    "ExternalStorage",
    # events & queries
    "Event",
    "RangeQuery",
    "QueryKind",
    "generate_events",
    "exact_match_queries",
    "partial_match_queries",
    # substrate
    "Topology",
    "Network",
    "Simulator",
    "GPSRRouter",
    "MessageStats",
    "EnergyModel",
    "deploy_uniform",
    "deploy_grid",
    # protocol types
    "DataCentricStore",
    "InsertReceipt",
    "QueryResult",
    "ReproError",
]
