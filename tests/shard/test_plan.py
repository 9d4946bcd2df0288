"""Tests for ShardPlan: tiling geometry, ownership, halo membership."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.geometry import Rect
from repro.network.topology import deploy_uniform
from repro.shard.plan import ShardPlan

FIELD = Rect(0.0, 0.0, 200.0, 100.0)


class TestGrid:
    def test_most_square_factorization(self):
        # 200x100 field, 4 shards: 2x2 gives 100x50 tiles (|w-h|=50),
        # 4x1 gives 50x100 (|w-h|=50), 1x4 gives 200x25 (175).  The tie
        # between 2x2 and 4x1 resolves toward the smaller tiles_x.
        plan = ShardPlan.grid(FIELD, 4, halo=40.0)
        assert (plan.tiles_x, plan.tiles_y) == (2, 2)

    def test_prime_counts_split_the_long_axis(self):
        plan = ShardPlan.grid(FIELD, 3, halo=40.0)
        assert (plan.tiles_x, plan.tiles_y) == (3, 1)

    def test_single_shard(self):
        plan = ShardPlan.grid(FIELD, 1, halo=40.0)
        assert plan.shards == 1
        assert plan.tile_rect(0) == FIELD

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.grid(FIELD, 0, halo=40.0)
        with pytest.raises(ConfigurationError):
            ShardPlan(FIELD, 2, 2, halo=-1.0)
        with pytest.raises(ConfigurationError):
            ShardPlan(FIELD, 0, 2, halo=1.0)

    def test_tile_rects_tile_the_field(self):
        plan = ShardPlan.grid(FIELD, 6, halo=10.0)
        area = sum(
            plan.tile_rect(s).width * plan.tile_rect(s).height
            for s in range(plan.shards)
        )
        assert area == pytest.approx(FIELD.width * FIELD.height)


class TestOwnership:
    def test_every_node_has_exactly_one_owner(self, topo300):
        plan = ShardPlan.grid(topo300.field, 4, halo=topo300.radio_range)
        owner = plan.owner_of_nodes(topo300.positions)
        assert owner.shape == (topo300.size,)
        assert ((0 <= owner) & (owner < plan.shards)).all()

    def test_owned_node_inside_its_tile(self, topo300):
        plan = ShardPlan.grid(topo300.field, 4, halo=topo300.radio_range)
        owner = plan.owner_of_nodes(topo300.positions)
        for node in range(topo300.size):
            rect = plan.tile_rect(int(owner[node]))
            x, y = topo300.positions[node]
            assert rect.x_min - 1e-9 <= x <= rect.x_max + 1e-9
            assert rect.y_min - 1e-9 <= y <= rect.y_max + 1e-9


class TestHalo:
    def test_members_include_owned(self, topo300):
        plan = ShardPlan.grid(topo300.field, 4, halo=topo300.radio_range)
        owner = plan.owner_of_nodes(topo300.positions)
        for shard in range(plan.shards):
            members = plan.member_mask(shard, topo300.positions)
            assert members[owner == shard].all()

    def test_halo_contains_every_neighbor_of_owned_nodes(self):
        """The geometric fact behind the equivalence guarantee."""
        topology = deploy_uniform(400, seed=11)
        plan = ShardPlan.grid(topology.field, 6, halo=topology.radio_range)
        owner = plan.owner_of_nodes(topology.positions)
        for shard in range(plan.shards):
            members = plan.member_mask(shard, topology.positions)
            for node in np.flatnonzero(owner == shard):
                for neighbor in topology.neighbors(int(node)):
                    assert members[neighbor], (
                        f"neighbor {neighbor} of owned node {node} missing "
                        f"from shard {shard}'s halo"
                    )

