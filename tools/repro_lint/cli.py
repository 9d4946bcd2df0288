"""Command-line front end: ``python -m repro_lint [paths ...]``.

Two modes share one executable:

* default — the per-file REP00x rules over every discovered file;
* ``--analyze`` — the whole-program REP10x rules (call graph + dataflow)
  over the same paths, with per-rule baseline files, an AST/call-graph
  cache and optional ``--sarif`` export.

Exit codes: ``0`` clean, ``1`` violations found (or a stale baseline
entry), ``2`` a file could not be linted (or the command line / config is
invalid).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from repro_lint.checker import LintProblem, Violation, check_file
from repro_lint.config import Config, load_config
from repro_lint.rules import ALL_RULES, RULE_SUMMARIES

__all__ = ["main", "build_parser", "discover_files"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro_lint",
        description=(
            "AST-based invariant checks for the Pool reproduction "
            "(determinism, ordering, accounting)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help=(
            "pyproject.toml with a [tool.repro-lint] table "
            "(default: ./pyproject.toml if present)"
        ),
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="print a per-rule violation count after the report",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "run the whole-program REP101-REP103 rules (call graph + "
            "dataflow) instead of the per-file rules"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="with --analyze: also write the findings as SARIF 2.1.0",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help=(
            "with --analyze: rewrite the per-rule baseline files from the "
            "current findings instead of failing on them"
        ),
    )
    parser.add_argument(
        "--baseline-dir",
        metavar="DIR",
        default=None,
        help=(
            "with --analyze: directory holding the per-rule REPxxx.txt "
            "baseline files (default: the committed tools/repro_lint/"
            "baselines)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="with --analyze: skip the parsed-AST/call-graph pickle cache",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=".repro_lint_cache",
        help=(
            "with --analyze: where the source-digest-keyed analysis cache "
            "lives (default: .repro_lint_cache)"
        ),
    )
    return parser


def discover_files(paths: Sequence[str]) -> list[Path]:
    """Every ``.py`` file under ``paths``, in a deterministic order."""
    found: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found.append(path)
        elif path.is_dir():
            found.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if not (_SKIP_DIRS & set(candidate.parts))
            )
        else:
            raise LintProblem(raw, "no such file or directory")
    return found


def _parse_select(
    raw: str | None, known: frozenset[str]
) -> frozenset[str] | None:
    if raw is None:
        return None
    codes = frozenset(part.strip().upper() for part in raw.split(",") if part.strip())
    unknown = codes - known
    if unknown:
        raise LintProblem(
            "--select", f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _analyze_main(args: argparse.Namespace) -> int:
    from repro_lint.analysis.engine import default_baseline_dir, run_analysis
    from repro_lint.analysis.rules import (
        ANALYSIS_RULES,
        ANALYSIS_RULE_SUMMARIES,
    )
    from repro_lint.analysis.sarif import write_sarif

    try:
        config: Config = load_config(args.config)
        select = _parse_select(args.select, frozenset(ANALYSIS_RULES))
    except (LintProblem, FileNotFoundError, ValueError) as error:
        print(f"repro_lint: {error}", file=sys.stderr)
        return 2

    baseline_dir = (
        Path(args.baseline_dir)
        if args.baseline_dir is not None
        else default_baseline_dir()
    )
    result = run_analysis(
        list(args.paths),
        config,
        select=select,
        cache_dir=None if args.no_cache else args.cache_dir,
        baseline_dir=baseline_dir,
        update_baseline=args.update_baseline,
    )
    for path, message in sorted(result.broken.items()):
        print(f"repro_lint: {path}: {message}", file=sys.stderr)
    for violation in result.violations:
        print(violation.render())
    for stale in result.stale:
        print(
            f"repro_lint: stale baseline entry (fix landed? run "
            f"--update-baseline): {stale}",
            file=sys.stderr,
        )
    if args.sarif is not None:
        write_sarif(args.sarif, result.all_findings, ANALYSIS_RULE_SUMMARIES)
    if args.update_baseline:
        print(
            f"baseline updated: {result.suppressed} finding(s) recorded in "
            f"{baseline_dir}"
        )
    if args.statistics:
        counts = Counter(v.code for v in result.all_findings)
        new_counts = Counter(v.code for v in result.violations)
        for code in sorted(ANALYSIS_RULES):
            print(
                f"{code:8s} {counts.get(code, 0):5d}  "
                f"({new_counts.get(code, 0)} new)  "
                f"{ANALYSIS_RULE_SUMMARIES[code]}"
            )
        print(
            f"total    {len(result.all_findings):5d}  in {result.files} "
            f"modules ({result.suppressed} baselined, "
            f"{len(result.stale)} stale)"
        )
    if result.broken:
        return 2
    if args.update_baseline:
        return 0
    return 0 if result.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        from repro_lint.analysis.rules import (
            ANALYSIS_RULES,
            ANALYSIS_RULE_SUMMARIES,
        )

        for code, rule in ALL_RULES.items():
            doc = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{code}  {RULE_SUMMARIES[code]}")
            print(f"        {doc}")
        for code, analysis_rule in ANALYSIS_RULES.items():
            doc = (analysis_rule.__doc__ or "").strip().splitlines()[0]
            print(f"{code}  {ANALYSIS_RULE_SUMMARIES[code]} (--analyze)")
            print(f"        {doc}")
        return 0
    if args.analyze:
        return _analyze_main(args)

    try:
        config: Config = load_config(args.config)
        select = _parse_select(args.select, frozenset(ALL_RULES))
        files = discover_files(args.paths)
    except (LintProblem, FileNotFoundError, ValueError) as error:
        print(f"repro_lint: {error}", file=sys.stderr)
        return 2

    violations: list[Violation] = []
    broken = False
    for path in files:
        try:
            violations.extend(check_file(path, config, select=select))
        except LintProblem as error:
            print(f"repro_lint: {error}", file=sys.stderr)
            broken = True

    for violation in violations:
        print(violation.render())
    if args.statistics:
        counts = Counter(violation.code for violation in violations)
        for code in sorted(ALL_RULES):
            print(f"{code:8s} {counts.get(code, 0):5d}  {RULE_SUMMARIES[code]}")
        print(f"total    {len(violations):5d}  in {len(files)} files")
    if broken:
        return 2
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
