"""``pool-bench`` — regenerate the paper's figures from the command line.

Examples
--------
::

    pool-bench list                     # show every experiment
    pool-bench fig6a                    # full-scale Figure 6(a)
    pool-bench fig7a --scale 0.3        # quick pass at 30% workload
    pool-bench all --json results.json  # every figure + ablations
    pool-bench abl-hotspot              # skew/hotspot table
    pool-bench abl-routing              # GPSR validation table

    pool-bench fig7a --telemetry out.jsonl   # capture telemetry (JSONL)
    pool-bench report out.jsonl              # render hotspot/energy/spans
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.bench.ablations import run_hotspot_ablation, run_routing_ablation
from repro.bench.experiments import EXPERIMENTS, get_experiment
from repro.bench.harness import run_experiment
from repro.bench.reporting import (
    err_flagged_lines,
    render_err_sidecar,
    render_result,
    render_telemetry,
    result_from_export,
    to_json,
)
from repro.bench.serve_bench import SERVE_SYSTEMS, run_chaos_baseline, run_serve
from repro.exceptions import ConfigurationError, ValidationError
from repro.network.reliability import FaultPlan
from repro.serve import (
    ARRIVAL_PATTERNS,
    SHED_POLICIES,
    render_robustness_table,
    render_serve_table,
)
from repro.serve.admission import SHED_DROP_TAIL
from repro.telemetry.export import read_telemetry_jsonl, write_telemetry_jsonl

__all__ = ["main", "build_parser"]

_SPECIAL = ("abl-hotspot", "abl-routing", "serve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pool-bench",
        description=(
            "Reproduce the evaluation figures of 'Supporting "
            "Multi-Dimensional Range Query for Sensor Networks' (ICDCS 2007)"
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name (see 'pool-bench list'), 'all' for every "
            "registry experiment, 'report' to render a telemetry JSONL "
            "export, or one of: " + ", ".join(_SPECIAL)
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "for 'report': telemetry JSONL or results JSON export to "
            "render; a sibling .err stderr capture is surfaced too"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor in (0, 1]; 1.0 = paper scale",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="override trial count"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the (size, trial) grid; results are "
            "identical to --jobs 1 for the same seed"
        ),
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write results as JSON"
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "capture per-(size, trial, system) telemetry — spans, hotspot "
            "and energy views — and write it as JSONL (schema telemetry/2); "
            "byte-identical for any --jobs value at the same seed"
        ),
    )
    parser.add_argument(
        "--flight-recorder",
        action="store_true",
        help=(
            "record a bounded per-hop event ring (hop taken, greedy/"
            "perimeter mode, retransmits, losses) keyed by packet id and "
            "export it in the telemetry records; requires --telemetry; "
            "replay one packet with 'python -m repro.obs.route'"
        ),
    )
    parser.add_argument(
        "--percentiles",
        action="store_true",
        help=(
            "for 'report' on a telemetry export: append the per-(system, "
            "size) p50/p95/p99 query latency and message-cost table"
        ),
    )
    parser.add_argument(
        "--loss-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "per-link Bernoulli loss probability in [0, 1); 0.0 (default) "
            "runs the seed's perfect-link accounting"
        ),
    )
    parser.add_argument(
        "--retry-limit",
        type=int,
        default=3,
        metavar="N",
        help="ARQ retransmissions allowed per hop before a delivery fails",
    )
    parser.add_argument(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help=(
            "JSON fault-injection plan (node deaths, link degradation "
            "windows, message drop rules) applied during the run"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress lines"
    )
    serve = parser.add_argument_group(
        "serve options (the 'serve' experiment: online serving layer "
        "with plan caching and batch coalescing)"
    )
    serve.add_argument(
        "--size",
        type=int,
        default=150,
        help="network size for the serve deployment",
    )
    serve.add_argument(
        "--systems",
        metavar="A,B,...",
        default=",".join(SERVE_SYSTEMS),
        help="comma-separated systems to serve against",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=60.0,
        help="schedule length in simulated seconds",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=2.0,
        help="mean request arrival rate (requests per simulated second)",
    )
    serve.add_argument(
        "--pattern",
        choices=ARRIVAL_PATTERNS,
        default="poisson",
        help="arrival process for the scheduled workload",
    )
    serve.add_argument(
        "--repeat-fraction",
        type=float,
        default=0.75,
        help="probability a request re-asks a hot-pool query",
    )
    serve.add_argument(
        "--unique-queries",
        type=int,
        default=8,
        help="size of the hot query pool",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.2,
        help=(
            "admission window in simulated seconds for the cached "
            "configuration (requests inside one window may coalesce)"
        ),
    )
    serve.add_argument(
        "--slo",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="latency SLO target the report scores attainment against",
    )
    serve.add_argument(
        "--slo-report",
        metavar="PATH",
        default=None,
        help="write the serve run's deterministic SLO report as JSON",
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bounded admission-queue capacity with a server-occupancy "
            "model; a full queue sheds by --shed-policy (default: "
            "unbounded legacy synchronous serving)"
        ),
    )
    serve.add_argument(
        "--shed-policy",
        choices=SHED_POLICIES,
        default=SHED_DROP_TAIL,
        help="which request a full admission queue sheds",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-request completion deadline in simulated seconds; "
            "expired queued requests are timed out without executing"
        ),
    )
    serve.add_argument(
        "--retry-budget",
        type=int,
        default=0,
        metavar="N",
        help=(
            "total partial-result re-executions one service run may "
            "spend (0 disables retries)"
        ),
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help=(
            "consecutive partial/failed executions that trip the circuit "
            "breaker (default: no breaker)"
        ),
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="simulated seconds a tripped breaker stays open",
    )
    serve.add_argument(
        "--chaos-deaths",
        type=int,
        default=0,
        metavar="N",
        help=(
            "generate N deterministic mid-run node-death events "
            "(serve sinks are never killed)"
        ),
    )
    serve.add_argument(
        "--chaos-degradations",
        type=int,
        default=0,
        metavar="N",
        help="generate N deterministic link-degradation windows",
    )
    serve.add_argument(
        "--chaos-baseline",
        metavar="PATH",
        default=None,
        help=(
            "run the fixed-overload serve-chaos baseline (Pool under "
            "every shed policy) and write it as JSON, skipping the "
            "normal serve run"
        ),
    )
    return parser


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _render_report_target(
    target: str, *, percentiles: bool = False
) -> tuple[str, int]:
    """Render ``pool-bench report TARGET``; returns ``(text, flagged)``.

    ``TARGET`` is either a telemetry JSONL export (``--telemetry``) or a
    results JSON export (``--json``), picked by extension.  Either way, a
    sibling ``.err`` sidecar — the captured stderr of the run that
    produced the export, e.g. ``results/fig6a.err`` next to
    ``results/fig6a.json`` — is appended so crashed cells are visible in
    the report instead of silently missing from the tables.  ``flagged``
    counts the sidecar lines that look like failures; the caller turns a
    non-zero count into a non-zero exit status.
    """
    path = Path(target)
    parts: list[str]
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, list):
            raise ValidationError(
                "results export must be a JSON list of experiment objects"
            )
        parts = [render_result(result_from_export(entry)) for entry in payload]
    else:
        header, records = read_telemetry_jsonl(target)
        parts = [render_telemetry(header, records, percentiles=percentiles)]
    flagged = 0
    sidecar = path.with_suffix(".err")
    if sidecar.is_file():
        text = sidecar.read_text(encoding="utf-8")
        flagged = len(err_flagged_lines(text))
        parts.append(render_err_sidecar(str(sidecar), text))
    return "\n\n".join(parts), flagged


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        print("available experiments:")
        for name, config in sorted(EXPERIMENTS.items()):
            print(f"  {name:12s} {config.title}")
        for name in _SPECIAL:
            print(f"  {name:12s} (special ablation runner)")
        return 0

    if args.experiment == "report":
        if not args.target:
            print(
                "report requires a telemetry JSONL or results JSON path",
                file=sys.stderr,
            )
            return 2
        try:
            rendered, flagged = _render_report_target(
                args.target, percentiles=args.percentiles
            )
        except (OSError, ValidationError, ValueError, KeyError) as error:
            print(f"cannot read {args.target}: {error}", file=sys.stderr)
            return 1
        print(rendered)
        if flagged:
            # A rendered report over a crashed run must not exit green:
            # CI pipelines that chain `pool-bench ... 2>results/x.err &&
            # pool-bench report results/x.json` rely on this status.
            print(
                f"report: {flagged} failure-flagged stderr line"
                f"{'' if flagged == 1 else 's'} in the .err sidecar",
                file=sys.stderr,
            )
            return 3
        return 0

    if args.experiment == "abl-hotspot":
        print(run_hotspot_ablation(seed=args.seed).render())
        return 0
    if args.experiment == "abl-routing":
        print(run_routing_ablation(seed=args.seed).render())
        return 0

    if args.experiment == "serve":
        if args.chaos_baseline:
            try:
                baseline = run_chaos_baseline(
                    seed=args.seed,
                    progress=None if args.quiet else _progress,
                )
            except (ConfigurationError, ValidationError, ValueError) as error:
                print(f"serve: {error}", file=sys.stderr)
                return 2
            with open(args.chaos_baseline, "w", encoding="utf-8") as handle:
                json.dump(baseline, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(
                f"serve-chaos baseline written to {args.chaos_baseline}",
                file=sys.stderr,
            )
            return 0
        serve_fault_plan = None
        if args.fault_plan is not None:
            try:
                serve_fault_plan = FaultPlan.load(args.fault_plan)
            except (OSError, ValidationError, ValueError) as error:
                print(f"cannot read {args.fault_plan}: {error}", file=sys.stderr)
                return 1
        try:
            outcome = run_serve(
                seed=args.seed,
                size=args.size,
                systems=tuple(
                    name for name in args.systems.split(",") if name
                ),
                duration=args.duration,
                rate=args.rate,
                pattern=args.pattern,
                repeat_fraction=args.repeat_fraction,
                unique_queries=args.unique_queries,
                batch_window=args.batch_window,
                slo_target_s=args.slo,
                loss_rate=args.loss_rate,
                retry_limit=args.retry_limit,
                fault_plan=serve_fault_plan,
                chaos_deaths=args.chaos_deaths,
                chaos_degradations=args.chaos_degradations,
                queue_capacity=args.queue_capacity,
                shed_policy=args.shed_policy,
                deadline_s=args.deadline,
                retry_budget=args.retry_budget,
                breaker_threshold=args.breaker_threshold,
                breaker_cooldown_s=args.breaker_cooldown,
                telemetry=args.telemetry is not None,
                progress=None if args.quiet else _progress,
            )
        except (ConfigurationError, ValidationError, ValueError) as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        print(
            f"serve: {outcome.requests} requests over "
            f"{outcome.duration:.0f}s simulated ({outcome.pattern}), "
            f"n={outcome.size}, seed={outcome.seed}\n"
        )
        print(render_serve_table([(row.cached, row.control) for row in outcome.rows]))
        if outcome.robust:
            # Extra outcome table only on robust runs, so default runs
            # keep their exact historical stdout.
            print()
            print(
                render_robustness_table([row.cached for row in outcome.rows])
            )
        if args.slo_report:
            with open(args.slo_report, "w", encoding="utf-8") as handle:
                json.dump(outcome.as_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"SLO report written to {args.slo_report}", file=sys.stderr)
        if args.telemetry:
            write_telemetry_jsonl(
                args.telemetry, outcome.telemetry, seed=args.seed, mode="serve"
            )
            print(f"telemetry written to {args.telemetry}", file=sys.stderr)
        return 0

    if args.experiment == "all":
        names = sorted(EXPERIMENTS)
    else:
        names = [args.experiment]

    if args.flight_recorder and args.telemetry is None:
        print(
            "--flight-recorder requires --telemetry (the ring is exported "
            "inside the telemetry records)",
            file=sys.stderr,
        )
        return 2

    fault_plan = None
    if args.fault_plan is not None:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValidationError, ValueError) as error:
            print(f"cannot read {args.fault_plan}: {error}", file=sys.stderr)
            return 1

    results: list[ExperimentResult] = []
    telemetry_records: list[dict[str, Any]] = []
    for name in names:
        config = get_experiment(name)
        if args.scale != 1.0:
            config = config.scaled(args.scale)
        if args.trials is not None:
            config = replace(config, trials=args.trials)
        if args.loss_rate or args.retry_limit != 3 or fault_plan is not None:
            config = replace(
                config,
                loss_rate=args.loss_rate,
                retry_limit=args.retry_limit,
                fault_plan=fault_plan,
            )
        if args.flight_recorder:
            config = replace(config, flight_recorder=True)
        started = perf_counter()
        result = run_experiment(
            config,
            seed=args.seed,
            jobs=args.jobs,
            progress=None if args.quiet else _progress,
            telemetry=args.telemetry is not None,
        )
        elapsed = perf_counter() - started
        print(render_result(result))
        print(f"({name} finished in {elapsed:.1f}s)\n")
        results.append(result)
        telemetry_records.extend(result.telemetry)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(to_json(results))
        print(f"JSON written to {args.json}", file=sys.stderr)
    if args.telemetry:
        write_telemetry_jsonl(args.telemetry, telemetry_records, seed=args.seed)
        print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
