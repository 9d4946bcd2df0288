#!/usr/bin/env python3
"""Protocol dynamics on the discrete-event simulator.

The benchmarks account for messages synchronously (GPSR paths are
deterministic), but the library also ships an event-driven kernel.  This
script runs it end to end:

1. nodes discover their neighbor tables purely via periodic beacons
   (the paper's Section 2 assumption, actually executed);
2. a sensor reading travels hop by hop to its Pool index node with
   per-hop latency, and we check the event-driven hop count equals the
   synchronous GPSR accounting.

Run:  python examples/event_driven_simulation.py
"""

from __future__ import annotations

from repro import Network, PoolSystem, deploy_uniform
from repro.events import Event
from repro.network.messages import MessageCategory
from repro.network.simulator import BeaconProtocol, Simulator


def main() -> None:
    topology = deploy_uniform(300, seed=5)
    simulator = Simulator(topology, hop_latency=0.02)

    # --- Phase 1: neighbor discovery by beaconing --------------------- #
    beacons = BeaconProtocol(simulator, interval=10.0)
    beacons.start()
    simulator.run(until=10.0)
    beacons.stop()
    discovered = [
        set(node.known_neighbors()) == set(topology.neighbors(node.node_id))
        for node in simulator.nodes
    ]
    beacon_msgs = simulator.stats.count(MessageCategory.BEACON)
    print(f"after one beacon interval: {sum(discovered)}/{topology.size} "
          f"nodes hold the exact ground-truth neighbor table "
          f"({beacon_msgs} beacon broadcasts)")

    # --- Phase 2: hop-by-hop event delivery --------------------------- #
    network = Network(topology)
    pool = PoolSystem(network, dimensions=3, seed=5)
    event = Event.of(0.82, 0.4, 0.1, source=3)
    receipt = pool.insert(event)  # synchronous accounting
    print(f"\nsynchronous insert: {receipt.hops} hops to node "
          f"{receipt.home_node} ({receipt.detail!r})")

    delivered: list[float] = []
    simulator.stats.reset()
    simulator.send(
        src=3,
        dst=receipt.home_node,
        category=MessageCategory.INSERT,
        payload=event,
        on_delivered=lambda msg: delivered.append(simulator.now),
    )
    simulator.run()
    sim_hops = simulator.stats.count(MessageCategory.INSERT)
    print(f"event-driven insert:  {sim_hops} hops, delivered at "
          f"t={delivered[0]:.2f}s (latency = hops x 0.02s)")
    assert sim_hops == receipt.hops, "both accountings must agree"

    # --- Phase 3: a node goes to sleep (workload sharing's low-power
    #     state) and the radio refuses to forward through it ----------- #
    path = network.router.path(3, receipt.home_node)
    if len(path) > 2:
        sleeper = path[1]
        simulator.nodes[sleeper].sleep()
        try:
            simulator.send(3, receipt.home_node, MessageCategory.INSERT)
            simulator.run()
        except Exception as exc:  # DeliveryError
            print(f"\nnode {sleeper} asleep mid-path -> {type(exc).__name__}: {exc}")
        simulator.nodes[sleeper].wake()

    print("\n(event-driven and synchronous accounting agree; see "
          "tests/network/test_arq_modes.py for the systematic check)")


if __name__ == "__main__":
    main()
