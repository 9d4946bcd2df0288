"""Whole-program fixture corpus: every ``# expect: REPxxx`` line fires.

Each directory under ``tools/repro_lint/fixtures/analysis`` is a
self-contained mini-project with its own ``src/`` tree, analyzed in
isolation exactly like the real repository.  ``*_bad`` cases must
produce precisely the annotated findings (right file, right line, right
code — nothing more, nothing missing); ``*_good`` cases exercise the
same shapes written correctly and must stay silent.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro_lint.analysis.engine import run_analysis

FIXTURES = (
    Path(__file__).resolve().parents[2]
    / "tools"
    / "repro_lint"
    / "fixtures"
    / "analysis"
)
_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>REP\d{3}(?:\s+REP\d{3})*)")

CASES = sorted(p.name for p in FIXTURES.iterdir() if p.is_dir())


def _expected(case: Path) -> set[tuple[str, int, str]]:
    marks: set[tuple[str, int, str]] = set()
    for source in sorted(case.rglob("*.py")):
        rel = source.relative_to(case).as_posix()
        for lineno, line in enumerate(
            source.read_text().splitlines(), start=1
        ):
            match = _EXPECT_RE.search(line)
            if match:
                for code in match.group("codes").split():
                    marks.add((rel, lineno, code))
    return marks


def _found(case: Path) -> set[tuple[str, int, str]]:
    result = run_analysis([case / "src"], baseline_dir=None)
    assert not result.broken, result.broken
    return {
        (
            Path(v.path).resolve().relative_to(case.resolve()).as_posix(),
            v.line,
            v.code,
        )
        for v in result.violations
    }


@pytest.mark.parametrize("name", CASES)
def test_case_matches_annotations(name: str) -> None:
    case = FIXTURES / name
    expected = _expected(case)
    if name.endswith("_good"):
        assert not expected, f"good case {name} must carry no expect marks"
    else:
        assert expected, f"bad case {name} carries no expect marks"
    found = _found(case)
    missing = expected - found
    extra = found - expected
    assert not missing and not extra, (
        f"{name}: missing={sorted(missing)} extra={sorted(extra)}"
    )


def test_corpus_covers_every_analysis_rule() -> None:
    covered = {
        code
        for name in CASES
        if name.endswith("_bad")
        for (_, _, code) in _expected(FIXTURES / name)
    }
    assert covered == {"REP101", "REP102", "REP103"}
