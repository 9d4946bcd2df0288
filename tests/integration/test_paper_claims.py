"""Shape checks of the paper's evaluation claims at test-suite scale.

Full-scale reproductions are run by ``pool-bench`` and recorded in
EXPERIMENTS.md; these tests protect the *qualitative* claims (who wins,
in which direction costs move) against regressions, using small networks
so the suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_experiment
from repro.bench.workloads import ExperimentConfig
from repro.events.generators import QueryWorkload


def _config(name: str, *, sizes, workloads, queries=12, trials=2) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        title=name,
        network_sizes=tuple(sizes),
        query_workloads=tuple(workloads),
        query_count=queries,
        trials=trials,
    )


@pytest.fixture(scope="module")
def fig6_small():
    """A 3-point slice of the Figure 6(a) sweep."""
    return run_experiment(
        _config(
            "fig6a-small",
            sizes=(150, 450, 900),
            workloads=(QueryWorkload(dimensions=3, range_sizes="uniform"),),
        ),
        seed=0,
    )


@pytest.fixture(scope="module")
def fig7_small():
    return run_experiment(
        _config(
            "fig7-small",
            sizes=(450,),
            workloads=(
                QueryWorkload(dimensions=3, kind="partial", unspecified=1,
                              label="1-partial"),
                QueryWorkload(dimensions=3, kind="partial", unspecified=2,
                              label="2-partial"),
                QueryWorkload(dimensions=3, kind="partial", unspecified=(0,),
                              label="1@1"),
                QueryWorkload(dimensions=3, kind="partial", unspecified=(2,),
                              label="1@3"),
                QueryWorkload(dimensions=3, kind="partial", unspecified=(1,),
                              label="1@2"),
            ),
            queries=20,
        ),
        seed=0,
    )


class TestFigure6Claims:
    def test_pool_cheaper_than_dim_at_every_size(self, fig6_small):
        for (size, pool_cost), (_, dim_cost) in zip(
            fig6_small.series("pool"), fig6_small.series("dim")
        ):
            assert pool_cost < dim_cost, f"at n={size}"

    def test_dim_grows_with_network_size(self, fig6_small):
        costs = [cost for _, cost in fig6_small.series("dim")]
        assert costs[-1] > 1.5 * costs[0]

    def test_pool_is_less_size_sensitive_than_dim(self, fig6_small):
        pool = [cost for _, cost in fig6_small.series("pool")]
        dim = [cost for _, cost in fig6_small.series("dim")]
        pool_growth = pool[-1] / pool[0]
        dim_growth = dim[-1] / dim[0]
        assert pool_growth < dim_growth

    def test_exponential_panel_keeps_the_shape(self, fig6_small):
        """Figure 6(b): same ordering and growth as 6(a), below it at every size."""
        fig6b = run_experiment(
            _config(
                "fig6b-sizes",
                sizes=(150, 450, 900),
                workloads=(QueryWorkload(dimensions=3, range_sizes="exponential"),),
            ),
            seed=0,
        )
        pool = [cost for _, cost in fig6b.series("pool")]
        dim = [cost for _, cost in fig6b.series("dim")]
        for size, pool_cost, dim_cost in zip((150, 450, 900), pool, dim):
            assert pool_cost < dim_cost, f"at n={size}"
        assert dim[-1] > 1.3 * dim[0]
        assert pool[-1] / pool[0] < dim[-1] / dim[0]
        for system in ("pool", "dim"):
            for (size, uniform), (_, exponential) in zip(
                fig6_small.series(system), fig6b.series(system)
            ):
                assert exponential < uniform, f"{system} at n={size}"

    def test_exponential_much_cheaper_than_uniform(self):
        result = run_experiment(
            _config(
                "fig6b-small",
                sizes=(450,),
                workloads=(
                    QueryWorkload(dimensions=3, range_sizes="uniform",
                                  label="uniform"),
                    QueryWorkload(dimensions=3, range_sizes="exponential",
                                  label="exponential"),
                ),
            ),
            seed=0,
        )
        for system in ("pool", "dim"):
            uniform = result.cell(system, 450, "uniform").mean_cost
            exponential = result.cell(system, 450, "exponential").mean_cost
            assert exponential < uniform / 2, system


class TestFigure7Claims:
    def test_vaguer_queries_cost_more(self, fig7_small):
        for system in ("pool", "dim"):
            one = fig7_small.cell(system, 450, "1-partial").mean_cost
            two = fig7_small.cell(system, 450, "2-partial").mean_cost
            assert two > one, system

    def test_dim_gap_widens_with_vagueness(self, fig7_small):
        ratio_1 = (
            fig7_small.cell("dim", 450, "1-partial").mean_cost
            / fig7_small.cell("pool", 450, "1-partial").mean_cost
        )
        ratio_2 = (
            fig7_small.cell("dim", 450, "2-partial").mean_cost
            / fig7_small.cell("pool", 450, "2-partial").mean_cost
        )
        assert ratio_1 > 1.0
        assert ratio_2 > ratio_1

    def test_dim_sensitive_to_unspecified_dimension_pool_flat(self, fig7_small):
        dim_1at1 = fig7_small.cell("dim", 450, "1@1").mean_cost
        dim_1at3 = fig7_small.cell("dim", 450, "1@3").mean_cost
        pool_1at1 = fig7_small.cell("pool", 450, "1@1").mean_cost
        pool_1at3 = fig7_small.cell("pool", 450, "1@3").mean_cost
        # DIM: unspecified first dimension hurts most (k-d split order).
        assert dim_1at1 > dim_1at3
        # Pool: near-flat across the unspecified dimension.
        assert abs(pool_1at1 - pool_1at3) / max(pool_1at1, pool_1at3) < 0.35
        # And Pool beats DIM on both.
        assert pool_1at1 < dim_1at1
        assert pool_1at3 < dim_1at3

    def test_pool_flat_and_cheaper_at_every_unspecified_dimension(self, fig7_small):
        labels = ("1@1", "1@2", "1@3")
        pool = [fig7_small.cell("pool", 450, label).mean_cost for label in labels]
        dim = [fig7_small.cell("dim", 450, label).mean_cost for label in labels]
        assert (max(pool) - min(pool)) / max(pool) < 0.35
        for label, pool_cost, dim_cost in zip(labels, pool, dim):
            assert pool_cost < dim_cost, label

    def test_dim_costs_a_multiple_of_pool_on_one_partial(self, fig7_small):
        pool = fig7_small.cell("pool", 450, "1-partial").mean_cost
        dim = fig7_small.cell("dim", 450, "1-partial").mean_cost
        assert dim > 1.5 * pool


class TestOrderingAcrossSeeds:
    """Pool < DIM (Figures 6 and 7) must not hinge on seed 0's draws."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pool_cheaper_than_dim(self, seed):
        result = run_experiment(
            _config(
                f"fig6-fig7-seed{seed}",
                sizes=(150, 450),
                workloads=(
                    QueryWorkload(dimensions=3, range_sizes="uniform",
                                  label="exact"),
                    QueryWorkload(dimensions=3, kind="partial", unspecified=1,
                                  label="1-partial"),
                    QueryWorkload(dimensions=3, kind="partial", unspecified=2,
                                  label="2-partial"),
                ),
                trials=1,
            ),
            seed=seed,
        )
        for size in (150, 450):
            for label in ("exact", "1-partial", "2-partial"):
                pool = result.cell("pool", size, label).mean_cost
                dim = result.cell("dim", size, label).mean_cost
                assert pool < dim, f"n={size}, {label}"


class TestDesignAblations:
    """The design-choice ablations (``pool-bench abl-splitter``/``abl-l``)."""

    @pytest.fixture(scope="class")
    def ablations(self):
        config = ExperimentConfig(
            name="ablations-small",
            title="ablations-small",
            network_sizes=(300,),
            query_workloads=(
                QueryWorkload(dimensions=3, range_sizes="uniform", label="exact"),
            ),
            query_count=12,
            trials=2,
            systems=("pool", "pool-direct", "pool-l5", "pool-l20"),
        )
        return run_experiment(config, seed=0)

    def test_splitter_detour_is_a_small_constant(self, ablations):
        via = ablations.cell("pool", 300, "exact").mean_cost
        direct = ablations.cell("pool-direct", 300, "exact").mean_cost
        assert via < 1.5 * direct

    def test_finer_grid_costs_more(self, ablations):
        # Finer grids visit more cells per query.
        l20 = ablations.cell("pool-l20", 300, "exact").mean_cost
        l5 = ablations.cell("pool-l5", 300, "exact").mean_cost
        assert l20 > l5


class TestInsertionClaim:
    def test_insert_costs_conceptually_the_same(self, fig6_small):
        """Paper §5.2: both systems route one GPSR unicast per event."""
        for size in (150, 450, 900):
            workload = fig6_small.rows[0].workload
            pool_hops = fig6_small.cell("pool", size, workload).mean_insert_hops
            dim_hops = fig6_small.cell("dim", size, workload).mean_insert_hops
            assert pool_hops == pytest.approx(dim_hops, rel=0.6)
