"""Reproducible event and query workload generators (Section 5.1).

The paper's performance model:

* attribute values on each dimension uniformly distributed in ``[0, 1]``
  (we add skewed alternatives for the hotspot/ablation experiments);
* **exact-match** range queries whose per-dimension range *sizes* follow a
  distribution — the paper reports the *uniform* and *exponential* cases
  used by DIM's evaluation;
* **m-partial** queries: ``m`` randomly chosen dimensions are unspecified,
  the remaining dimensions get a random range of width drawn from
  ``[0, 0.25]``;
* **1@n-partial** queries: exactly dimension ``n`` is unspecified.

All generators take an explicit seed / generator so experiments replay
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from repro.events.event import Event
from repro.events.queries import RangeQuery
from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_generator

__all__ = [
    "EventDistribution",
    "EventWorkload",
    "QueryWorkload",
    "RangeSizeDistribution",
    "generate_events",
    "exact_match_queries",
    "partial_match_queries",
]

EventDistribution = Literal["uniform", "gaussian", "zipf", "corner"]
RangeSizeDistribution = Literal["uniform", "exponential", "fixed"]


# --------------------------------------------------------------------- #
# Events                                                                #
# --------------------------------------------------------------------- #


def _uniform_values(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    return rng.random((n, k))


def _gaussian_values(
    rng: np.random.Generator, n: int, k: int, center: float, spread: float
) -> np.ndarray:
    values = rng.normal(loc=center, scale=spread, size=(n, k))
    return np.clip(values, 0.0, 1.0)


def _zipf_values(rng: np.random.Generator, n: int, k: int, alpha: float) -> np.ndarray:
    """Heavy-tailed values concentrated near 0 (power-law mass on low values)."""
    raw = rng.pareto(alpha, size=(n, k))
    return np.clip(raw / (1.0 + raw), 0.0, 1.0)


def _corner_values(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Pathological hotspot workload: all mass in the top corner cell region."""
    return 0.9 + 0.1 * rng.random((n, k))


def generate_events(
    count: int,
    dimensions: int,
    *,
    distribution: EventDistribution = "uniform",
    seed: SeedLike = None,
    sources: Sequence[int] | None = None,
    gaussian_center: float = 0.7,
    gaussian_spread: float = 0.08,
    zipf_alpha: float = 2.5,
) -> list[Event]:
    """Generate ``count`` events of ``dimensions`` attributes.

    Parameters
    ----------
    count, dimensions:
        Workload size and event dimensionality ``k``.
    distribution:
        ``"uniform"`` reproduces the paper's setting.  ``"gaussian"`` and
        ``"zipf"`` are the skewed workloads for the hotspot experiments;
        ``"corner"`` is a worst-case hotspot stress.
    sources:
        Optional node ids to stamp round-robin as ``Event.source`` (the
        detecting sensor).  ``None`` leaves sources unset.
    seed:
        Anything accepted by :func:`repro.rng.ensure_generator`.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    if dimensions < 1:
        raise ConfigurationError(f"dimensions must be >= 1, got {dimensions}")
    rng = ensure_generator(seed)
    if distribution == "uniform":
        values = _uniform_values(rng, count, dimensions)
    elif distribution == "gaussian":
        values = _gaussian_values(
            rng, count, dimensions, gaussian_center, gaussian_spread
        )
    elif distribution == "zipf":
        values = _zipf_values(rng, count, dimensions, zipf_alpha)
    elif distribution == "corner":
        values = _corner_values(rng, count, dimensions)
    else:  # pragma: no cover - guarded by Literal, kept for runtime safety
        raise ConfigurationError(f"unknown event distribution {distribution!r}")
    events: list[Event] = []
    # ``tolist`` yields the float64 values as Python floats in one call.
    for i, row in enumerate(values.tolist()):
        source = sources[i % len(sources)] if sources else None
        events.append(Event(row, source=source, seq=i))
    return events


@dataclass(slots=True)
class EventWorkload:
    """A named, reproducible event workload.

    Wraps :func:`generate_events` with its parameters so experiment
    definitions can be described declaratively and re-materialized with
    different counts/seeds (e.g. "3 events per sensor node").
    """

    dimensions: int
    distribution: EventDistribution = "uniform"
    gaussian_center: float = 0.7
    gaussian_spread: float = 0.08
    zipf_alpha: float = 2.5

    def generate(
        self,
        count: int,
        *,
        seed: SeedLike = None,
        sources: Sequence[int] | None = None,
    ) -> list[Event]:
        return generate_events(
            count,
            self.dimensions,
            distribution=self.distribution,
            seed=seed,
            sources=sources,
            gaussian_center=self.gaussian_center,
            gaussian_spread=self.gaussian_spread,
            zipf_alpha=self.zipf_alpha,
        )


# --------------------------------------------------------------------- #
# Queries                                                               #
# --------------------------------------------------------------------- #


def _range_widths(
    rng: np.random.Generator,
    count: int,
    dimensions: int,
    distribution: RangeSizeDistribution,
    exponential_mean: float,
    fixed_width: float,
) -> np.ndarray:
    """Per-dimension query range widths, clipped to [0, 1]."""
    if distribution == "uniform":
        return rng.random((count, dimensions))
    if distribution == "exponential":
        return np.clip(
            rng.exponential(scale=exponential_mean, size=(count, dimensions)),
            0.0,
            1.0,
        )
    if distribution == "fixed":
        return np.full((count, dimensions), float(fixed_width))
    raise ConfigurationError(f"unknown range size distribution {distribution!r}")


def _place_range(rng: np.random.Generator, width: float) -> tuple[float, float]:
    """Place a range of ``width`` uniformly at random inside [0, 1]."""
    width = min(max(width, 0.0), 1.0)
    lo = float(rng.random() * (1.0 - width))
    return (lo, lo + width)


def exact_match_queries(
    count: int,
    dimensions: int,
    *,
    range_sizes: RangeSizeDistribution = "uniform",
    exponential_mean: float = 0.1,
    fixed_width: float = 0.2,
    seed: SeedLike = None,
) -> list[RangeQuery]:
    """Exact-match range queries with random per-dimension range sizes.

    Range *sizes* follow ``range_sizes`` (the Figure 6 axis); range
    *placement* is uniform in the unit interval, following DIM's query
    model which the paper adopts for fairness.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    rng = ensure_generator(seed)
    widths = _range_widths(
        rng, count, dimensions, range_sizes, exponential_mean, fixed_width
    )
    queries: list[RangeQuery] = []
    for row in widths:
        bounds = tuple(_place_range(rng, float(w)) for w in row)
        queries.append(RangeQuery(bounds))
    return queries


def partial_match_queries(
    count: int,
    dimensions: int,
    *,
    unspecified: int | Sequence[int],
    specified_max_width: float = 0.25,
    seed: SeedLike = None,
) -> list[RangeQuery]:
    """Partial-match range queries (the Figure 7 workloads).

    Parameters
    ----------
    unspecified:
        Either an integer ``m`` — each query independently picks ``m``
        random dimensions to leave unspecified (the paper's *m-partial*
        model) — or an explicit sequence of dimension indices, e.g.
        ``[0]`` for *1@1-partial* queries (paper's dimensions are 1-based;
        ours are 0-based, so 1@n-partial means ``unspecified=[n - 1]``).
    specified_max_width:
        Specified dimensions receive a range whose width is drawn uniformly
        from ``[0, specified_max_width]`` (paper: "selected randomly from
        [0, 0.25]").
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    rng = ensure_generator(seed)
    fixed_dims: tuple[int, ...] | None
    if isinstance(unspecified, int):
        if not 0 <= unspecified < dimensions:
            raise ConfigurationError(
                f"m={unspecified} unspecified dimensions is invalid for "
                f"k={dimensions} (need 0 <= m < k)"
            )
        fixed_dims = None
        m = unspecified
    else:
        fixed_dims = tuple(unspecified)
        for dim in fixed_dims:
            if not 0 <= dim < dimensions:
                raise ConfigurationError(
                    f"unspecified dimension {dim} outside 0..{dimensions - 1}"
                )
        m = len(fixed_dims)
        if m >= dimensions:
            raise ConfigurationError(
                "at least one dimension must stay specified in a partial query"
            )
    queries: list[RangeQuery] = []
    for _ in range(count):
        if fixed_dims is None:
            dont_care = set(
                int(d) for d in rng.choice(dimensions, size=m, replace=False)
            )
        else:
            dont_care = set(fixed_dims)
        specified: dict[int, tuple[float, float]] = {}
        for dim in range(dimensions):
            if dim in dont_care:
                continue
            width = float(rng.random()) * specified_max_width
            specified[dim] = _place_range(rng, width)
        queries.append(RangeQuery.partial(dimensions, specified))
    return queries


@dataclass(slots=True)
class QueryWorkload:
    """A declarative, reproducible query workload.

    ``kind`` selects the generator; the remaining fields parameterize it.
    This is what benchmark experiment definitions store.
    """

    dimensions: int
    kind: Literal["exact", "partial"] = "exact"
    range_sizes: RangeSizeDistribution = "uniform"
    exponential_mean: float = 0.1
    fixed_width: float = 0.2
    unspecified: int | tuple[int, ...] = 1
    specified_max_width: float = 0.25
    label: str = field(default="")

    def generate(self, count: int, *, seed: SeedLike = None) -> list[RangeQuery]:
        if self.kind == "exact":
            return exact_match_queries(
                count,
                self.dimensions,
                range_sizes=self.range_sizes,
                exponential_mean=self.exponential_mean,
                fixed_width=self.fixed_width,
                seed=seed,
            )
        if self.kind == "partial":
            return partial_match_queries(
                count,
                self.dimensions,
                unspecified=self.unspecified,
                specified_max_width=self.specified_max_width,
                seed=seed,
            )
        raise ConfigurationError(f"unknown query workload kind {self.kind!r}")

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        if self.label:
            return self.label
        if self.kind == "exact":
            return f"exact-match, {self.range_sizes} range sizes"
        if isinstance(self.unspecified, int):
            return f"{self.unspecified}-partial match"
        dims = ",".join(str(d + 1) for d in self.unspecified)
        return f"1@{dims}-partial match"


def make_matcher(query: RangeQuery) -> Callable[[Event], bool]:
    """A fast closure form of :meth:`RangeQuery.matches` for tight loops."""
    bounds = query.bounds

    def matcher(event: Event) -> bool:
        values = event.values
        for (lo, hi), v in zip(bounds, values):
            if v < lo or v > hi:
                return False
        return True

    return matcher
