"""Geographic routing: GPSR and the forwarding-tree utilities built on it.

* :mod:`repro.routing.planarization` — Gabriel / relative-neighborhood
  subgraphs of the radio graph (GPSR's perimeter mode runs on these).
* :mod:`repro.routing.gpsr` — greedy perimeter stateless routing
  (Karp & Kung, MobiCom 2000), the substrate the paper assumes.
* :mod:`repro.routing.multicast` — merged-prefix unicast trees used for
  query dissemination and reply aggregation by both Pool and DIM.
"""

from repro.routing.gpsr import GPSRRouter, RouteResult
from repro.routing.multicast import MulticastTree, TreeBuilder

__all__ = [
    "GPSRRouter",
    "RouteResult",
    "MulticastTree",
    "TreeBuilder",
]
