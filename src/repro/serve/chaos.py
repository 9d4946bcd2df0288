"""Deterministic chaos scenarios for the serving layer.

A *chaos scenario* is a :class:`~repro.network.reliability.FaultPlan`
generated from a seed: node deaths and link-degradation windows placed at
derived-RNG transmission ticks, so the same ``(seed, spec)`` pair always
produces the same mid-run faults — byte-identical serve runs under chaos
are the whole point (``tests/integration/test_determinism.py`` runs a
chaos scenario twice and compares the artifacts byte for byte).

Placement draws come from ``derive(seed, "serve-chaos")``, a stream
disjoint from topology, workload and loss streams, so enabling chaos
never perturbs what the run would otherwise do — it only adds faults on
top.  Sink nodes are passed via ``protect`` and are never killed: a dead
sink would fail the *schedule*, not the network, and that is not the
degradation mode the serve bench studies.

``python -m repro.serve.chaos`` writes a generated plan as ``--fault-plan``
JSON so ad-hoc runs and CI can share one scenario file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.exceptions import ConfigurationError
from repro.network.reliability import FaultPlan, LinkDegradation, NodeDeath
from repro.rng import SeedLike, derive

__all__ = ["ChaosSpec", "generate_fault_plan"]


@dataclass(frozen=True, slots=True)
class ChaosSpec:
    """Shape of a generated chaos scenario.

    Parameters
    ----------
    deaths:
        Number of :class:`NodeDeath` events.  Each kills
        ``nodes_per_death`` distinct nodes (a node dies at most once per
        scenario) at a tick drawn uniformly from ``[1, horizon_ticks)``.
    degradations:
        Number of :class:`LinkDegradation` windows, each ``window_ticks``
        long with ``extra_loss`` added to every link, starting at a
        uniformly drawn tick.
    horizon_ticks:
        Transmission-tick horizon faults are placed within.  Ticks count
        one-hop transmission attempts (the reliability layer's monotone
        clock), so the horizon should roughly match the run's expected
        traffic volume — the serve bench's default covers its default
        schedule with room to spare.
    nodes_per_death:
        Nodes killed per death event.
    extra_loss:
        Additive loss probability inside a degradation window.
    window_ticks:
        Length of each degradation window in ticks.
    """

    deaths: int = 0
    degradations: int = 0
    horizon_ticks: int = 2000
    nodes_per_death: int = 2
    extra_loss: float = 0.35
    window_ticks: int = 300

    def __post_init__(self) -> None:
        if self.deaths < 0 or self.degradations < 0:
            raise ConfigurationError(
                f"deaths/degradations must be >= 0, got "
                f"{self.deaths}/{self.degradations}"
            )
        if self.horizon_ticks < 2:
            raise ConfigurationError(
                f"horizon_ticks must be >= 2, got {self.horizon_ticks}"
            )
        if self.nodes_per_death < 1:
            raise ConfigurationError(
                f"nodes_per_death must be >= 1, got {self.nodes_per_death}"
            )
        if not 0.0 < self.extra_loss <= 1.0:
            raise ConfigurationError(
                f"extra_loss must be in (0, 1], got {self.extra_loss}"
            )
        if not 0 < self.window_ticks <= self.horizon_ticks:
            raise ConfigurationError(
                f"window_ticks must be in (0, horizon], got {self.window_ticks}"
            )

    def as_dict(self) -> dict[str, Any]:
        return {
            "deaths": self.deaths,
            "degradations": self.degradations,
            "horizon_ticks": self.horizon_ticks,
            "nodes_per_death": self.nodes_per_death,
            "extra_loss": self.extra_loss,
            "window_ticks": self.window_ticks,
        }


def generate_fault_plan(
    spec: ChaosSpec,
    *,
    nodes: Sequence[int],
    seed: SeedLike = None,
    protect: Iterable[int] = (),
) -> FaultPlan:
    """Generate the scenario's :class:`FaultPlan` from a derived stream.

    ``nodes`` is the deployment's node-id population; ``protect`` (sinks,
    typically) is excluded from deaths.  A pure function of
    ``(spec, nodes, seed, protect)``.
    """
    rng = derive(seed, "serve-chaos")
    eligible = sorted(set(nodes) - set(protect))
    deaths: list[NodeDeath] = []
    for _ in range(spec.deaths):
        if not eligible:
            break
        at = int(rng.integers(1, spec.horizon_ticks))
        count = min(spec.nodes_per_death, len(eligible))
        picked_idx = rng.choice(len(eligible), size=count, replace=False)
        picked = sorted(eligible[int(i)] for i in picked_idx)
        eligible = [n for n in eligible if n not in set(picked)]
        deaths.append(NodeDeath(at=at, nodes=tuple(picked)))
    degradations: list[LinkDegradation] = []
    for _ in range(spec.degradations):
        start_max = max(1, spec.horizon_ticks - spec.window_ticks)
        start = int(rng.integers(0, start_max))
        degradations.append(
            LinkDegradation(
                start=start,
                until=start + spec.window_ticks,
                extra_loss=spec.extra_loss,
            )
        )
    return FaultPlan(
        deaths=tuple(sorted(deaths, key=lambda d: (d.at, d.nodes))),
        degradations=tuple(
            sorted(degradations, key=lambda d: (d.start, d.until))
        ),
    )


def _main(argv: Sequence[str] | None = None) -> int:
    """Write a generated scenario as ``--fault-plan`` JSON."""
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.chaos",
        description="Generate a deterministic serve-chaos fault plan.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--nodes", type=int, required=True,
        help="deployment size; node ids are 0..N-1",
    )
    parser.add_argument("--deaths", type=int, default=2)
    parser.add_argument("--degradations", type=int, default=1)
    parser.add_argument("--horizon-ticks", type=int, default=2000)
    parser.add_argument("--nodes-per-death", type=int, default=2)
    parser.add_argument("--extra-loss", type=float, default=0.35)
    parser.add_argument("--window-ticks", type=int, default=300)
    parser.add_argument(
        "--protect", type=int, nargs="*", default=[],
        help="node ids never killed (the serve sinks)",
    )
    parser.add_argument(
        "--out", default="-",
        help="output path for the fault-plan JSON ('-' = stdout)",
    )
    args = parser.parse_args(argv)
    spec = ChaosSpec(
        deaths=args.deaths,
        degradations=args.degradations,
        horizon_ticks=args.horizon_ticks,
        nodes_per_death=args.nodes_per_death,
        extra_loss=args.extra_loss,
        window_ticks=args.window_ticks,
    )
    plan = generate_fault_plan(
        spec,
        nodes=range(args.nodes),
        seed=args.seed,
        protect=args.protect,
    )
    text = json.dumps(plan.as_dict(), indent=1, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
