"""``--analyze`` CLI behaviour: exit codes, baselines, SARIF, cache.

Every test builds a throwaway mini-project and points ``--baseline-dir``
at a temp directory so the committed baselines are never touched.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro_lint.analysis.baseline import fingerprint, load_baselines
from repro_lint.cli import main
from repro_lint.rules import Violation

UNCHARGED = (
    "def leak(net, router, category):\n"
    "    path = router.path(0, 9)\n"
    "    return len(path)\n"
)
CLEAN = (
    "def ship(net, router, category):\n"
    "    path = router.path(0, 9)\n"
    "    net.stats.record_path(category, path)\n"
)


def _project(tmp_path: Path, source: str) -> Path:
    root = tmp_path / "proj"
    (root / "src" / "app").mkdir(parents=True)
    (root / "src" / "app" / "flows.py").write_text(source)
    return root


def _analyze_args(root: Path, baselines: Path, *extra: str) -> list[str]:
    return [
        "--analyze",
        "--no-cache",
        "--baseline-dir",
        str(baselines),
        *extra,
        str(root / "src"),
    ]


class TestExitCodes:
    def test_clean_project_exits_zero(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, CLEAN)
        assert main(_analyze_args(root, tmp_path / "bl")) == 0
        assert capsys.readouterr().out == ""

    def test_finding_exits_one(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        assert main(_analyze_args(root, tmp_path / "bl")) == 1
        out = capsys.readouterr().out
        assert "REP101" in out
        assert "flows.py:2" in out

    def test_broken_module_exits_two(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, "def half(:\n")
        assert main(_analyze_args(root, tmp_path / "bl")) == 2
        assert "flows.py" in capsys.readouterr().err


class TestBaselines:
    def test_update_baseline_then_clean(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        baselines = tmp_path / "bl"
        assert main(_analyze_args(root, baselines, "--update-baseline")) == 0
        assert "baseline updated: 1 finding(s)" in capsys.readouterr().out
        # The recorded finding no longer fails the run.
        assert main(_analyze_args(root, baselines)) == 0

    def test_stale_entry_fails(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        baselines = tmp_path / "bl"
        assert main(_analyze_args(root, baselines, "--update-baseline")) == 0
        # The violation gets fixed but the baseline entry lingers.
        (root / "src" / "app" / "flows.py").write_text(CLEAN)
        assert main(_analyze_args(root, baselines)) == 1
        assert "stale baseline entry" in capsys.readouterr().err

    def test_fingerprint_is_line_stable(self) -> None:
        before = Violation("src/a.py", 10, 0, "REP102", "collides with src/b.py:7")
        after = Violation("src/a.py", 22, 4, "REP102", "collides with src/b.py:9")
        assert fingerprint(before) == fingerprint(after)

    def test_round_trip(self, tmp_path: Path) -> None:
        root = _project(tmp_path, UNCHARGED)
        baselines = tmp_path / "bl"
        main(_analyze_args(root, baselines, "--update-baseline"))
        loaded = load_baselines(baselines, ["REP101", "REP102"])
        assert sum(loaded["REP101"].values()) == 1
        assert sum(loaded["REP102"].values()) == 0


class TestSarif:
    def test_sarif_contains_all_findings(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        sarif_path = tmp_path / "out.sarif"
        main(_analyze_args(root, tmp_path / "bl", "--sarif", str(sarif_path)))
        document = json.loads(sarif_path.read_text())
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        results = run["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "REP101"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_sarif_includes_baselined_findings(self, tmp_path: Path) -> None:
        # SARIF is the full picture for code-scanning; baselines only
        # gate the exit code.
        root = _project(tmp_path, UNCHARGED)
        baselines = tmp_path / "bl"
        main(_analyze_args(root, baselines, "--update-baseline"))
        sarif_path = tmp_path / "out.sarif"
        assert (
            main(_analyze_args(root, baselines, "--sarif", str(sarif_path)))
            == 0
        )
        document = json.loads(sarif_path.read_text())
        assert len(document["runs"][0]["results"]) == 1


class TestCacheAndListing:
    def test_cache_round_trip_same_findings(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        cache = tmp_path / "cache"
        args = [
            "--analyze",
            "--cache-dir",
            str(cache),
            "--baseline-dir",
            str(tmp_path / "bl"),
            str(root / "src"),
        ]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert any(cache.iterdir())
        assert main(args) == 1  # second run served from the pickle cache
        assert capsys.readouterr().out == first

    def test_list_rules_mentions_analysis_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP101", "REP102", "REP103"):
            assert code in out
        assert "--analyze" in out

    def test_unknown_select_exits_two(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, CLEAN)
        args = _analyze_args(root, tmp_path / "bl", "--select", "REP999")
        assert main(args) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_select_restricts_analysis_rules(self, tmp_path: Path, capsys) -> None:
        root = _project(tmp_path, UNCHARGED)
        args = _analyze_args(root, tmp_path / "bl", "--select", "REP103")
        assert main(args) == 0
        assert capsys.readouterr().out == ""


class TestPragmas:
    def test_ignore_pragma_suppresses_analysis_finding(
        self, tmp_path: Path, capsys
    ) -> None:
        root = _project(
            tmp_path,
            "def leak(net, router, category):\n"
            "    path = router.path(0, 9)  # repro-lint: ignore[REP101]\n"
            "    return len(path)\n",
        )
        assert main(_analyze_args(root, tmp_path / "bl")) == 0

    def test_pragma_anywhere_in_statement_span_counts(
        self, tmp_path: Path, capsys
    ) -> None:
        # The finding anchors on the first line of a wrapped statement;
        # the pragma sits on its closing line.  Statement-span matching
        # must connect the two (regression: ignores used to be
        # line-exact only).
        root = _project(
            tmp_path,
            "def leak(net, router, category):\n"
            "    path = router.path(\n"
            "        0, 9\n"
            "    )  # repro-lint: ignore[REP101]\n"
            "    return len(path)\n",
        )
        assert main(_analyze_args(root, tmp_path / "bl")) == 0
