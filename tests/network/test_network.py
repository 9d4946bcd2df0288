"""Tests for the Network facade's primitives and accounting."""

from __future__ import annotations


from repro.network.messages import MessageCategory
from repro.network.network import Network
from repro.routing.multicast import graft


class TestUnicast:
    def test_records_hops(self, net300):
        path = net300.unicast(MessageCategory.INSERT, 0, 200)
        assert net300.stats.count(MessageCategory.INSERT) == len(path) - 1

    def test_self_unicast_is_free(self, net300):
        net300.unicast(MessageCategory.INSERT, 4, 4)
        assert net300.stats.total == 0

    def test_unicast_to_point(self, net300):
        point = net300.topology.field.center
        home, path = net300.unicast_to_point(MessageCategory.DHT, 0, point)
        assert home == net300.topology.closest_node(point)
        assert path[-1] == home
        assert net300.stats.count(MessageCategory.DHT) == len(path) - 1


class TestMulticast:
    def test_tree_cost_recorded(self, net300):
        delivery = net300.disseminate(
            MessageCategory.QUERY_FORWARD, graft(net300.router, 0, [50, 100, 150])
        )
        assert (
            net300.stats.count(MessageCategory.QUERY_FORWARD)
            == delivery.tree.forward_cost
        )

    def test_reply_up_tree(self, net300):
        tree = graft(net300.router, 0, [50, 100])
        delivery = net300.disseminate(MessageCategory.QUERY_FORWARD, tree)
        _, cost = net300.collect_up_tree(MessageCategory.QUERY_REPLY, delivery)
        assert cost == delivery.tree.reply_cost
        assert net300.stats.count(MessageCategory.QUERY_REPLY) == cost

    def test_empty_destinations(self, net300):
        tree = graft(net300.router, 0, [])
        delivery = net300.disseminate(MessageCategory.QUERY_FORWARD, tree)
        assert delivery.tree.forward_cost == 0
        assert net300.stats.total == 0


class TestAccountingLifecycle:
    def test_reset(self, net300):
        net300.unicast(MessageCategory.INSERT, 0, 250)
        net300.reset_stats()
        assert net300.stats.total == 0

    def test_independent_networks_share_topology_not_stats(self, topo300):
        a = Network(topo300)
        b = Network(topo300)
        a.unicast(MessageCategory.INSERT, 0, 200)
        assert b.stats.total == 0

    def test_remaining_energy_reflects_traffic(self, net300):
        path = net300.unicast(MessageCategory.INSERT, 0, 200)
        energy = net300.remaining_energy()
        initial = net300.energy_model.initial_energy
        assert energy[path[0]] < initial
        # Intermediate nodes both receive and transmit: drain the most.
        if len(path) > 2:
            assert energy[path[1]] < energy[path[0]]

    def test_size_and_position_passthrough(self, net300):
        assert net300.size == net300.topology.size
        assert net300.position(3) == net300.topology.position(3)
