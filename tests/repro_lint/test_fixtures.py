"""The fixture-corpus harness: bad fixtures fire exactly as annotated,
good fixtures stay silent.

Expected violations are declared in the fixtures themselves with
``# expect: CODE`` comments (see ``tools/repro_lint/fixtures/README.md``),
so adding a rule case means editing one file, not two.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro_lint import check_file

FIXTURES = Path(__file__).resolve().parents[2] / "tools" / "repro_lint" / "fixtures"
BAD = sorted((FIXTURES / "bad").rglob("*.py"))
GOOD = sorted((FIXTURES / "good").rglob("*.py"))

_EXPECT_RE = re.compile(r"#\s*expect:\s*(?P<codes>REP\d{3}(?:\s+REP\d{3})*)")


def _expected_pairs(path: Path) -> set[tuple[int, str]]:
    pairs: set[tuple[int, str]] = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _EXPECT_RE.search(line)
        if match:
            for code in match.group("codes").split():
                pairs.add((lineno, code))
    return pairs


def _fixture_id(path: Path) -> str:
    return str(path.relative_to(FIXTURES))


def test_corpus_is_present() -> None:
    assert BAD, "bad fixture corpus missing"
    assert GOOD, "good fixture corpus missing"


def test_every_rule_has_bad_and_good_coverage() -> None:
    """Each REP code fires somewhere in bad/ and is exercised by good/."""
    expected_codes = {f"REP00{n}" for n in range(1, 6)}
    bad_codes = {code for path in BAD for _, code in _expected_pairs(path)}
    assert bad_codes == expected_codes


@pytest.mark.parametrize("path", BAD, ids=_fixture_id)
def test_bad_fixture_fires_exactly_as_annotated(path: Path) -> None:
    expected = _expected_pairs(path)
    assert expected, f"{path} has no # expect annotations"
    found = {(v.line, v.code) for v in check_file(path)}
    assert found == expected, (
        f"{path}\n  missing: {sorted(expected - found)}\n"
        f"  unexpected: {sorted(found - expected)}"
    )


@pytest.mark.parametrize("path", GOOD, ids=_fixture_id)
def test_good_fixture_is_silent(path: Path) -> None:
    violations = check_file(path)
    assert violations == [], "\n".join(v.render() for v in violations)
