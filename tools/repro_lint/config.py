"""Rule scoping and allowlists, overridable from ``[tool.repro-lint]``.

Paths are matched as POSIX fragments, so the same configuration works for
relative and absolute invocations:

* an entry ending in ``/`` is a directory fragment — it matches any file whose
  path contains that fragment (``src/repro/routing/`` matches
  ``/ci/src/repro/routing/gpsr.py``);
* any other entry is a file suffix match on whole path components
  (``src/repro/rng.py`` matches ``./src/repro/rng.py`` but not
  ``src/repro/rng.pyx`` or ``other_rng.py``).
"""

from __future__ import annotations

import sys
import tomllib
from dataclasses import dataclass, fields
from pathlib import Path, PurePath


def path_matches(path: str | PurePath, patterns: tuple[str, ...]) -> bool:
    """Whether ``path`` matches any configured path fragment."""
    posix = PurePath(path).as_posix()
    anchored = "/" + posix
    for pattern in patterns:
        if pattern.endswith("/"):
            if anchored.startswith("/" + pattern) or "/" + pattern in anchored:
                return True
        elif anchored.endswith("/" + pattern):
            return True
    return False


@dataclass(frozen=True)
class Config:
    """Where each rule applies and where it is explicitly waived."""

    #: REP001 — the only modules allowed to construct raw generators.  The
    #: rng module itself (by definition) and its direct test file, which must
    #: build raw generators to test the pass-through behaviour.
    rep001_allow: tuple[str, ...] = (
        "src/repro/rng.py",
        "tests/test_rng.py",
    )
    #: REP002 — call sites allowed to read the wall clock.  Empty by default:
    #: elapsed-time measurement should use ``time.perf_counter`` (allowed
    #: everywhere); absolute timestamps belong in function parameters.
    rep002_allow: tuple[str, ...] = ()
    #: REP003 — packages whose iteration order feeds message emission or
    #: export order (the jobs-1-vs-N byte-equality surface).
    rep003_paths: tuple[str, ...] = (
        "src/repro/core/",
        "src/repro/exec/",
        "src/repro/routing/",
        "src/repro/network/",
        "src/repro/obs/",
        "src/repro/serve/",
        "src/repro/telemetry/",
    )
    #: REP004 — geometric predicate modules where float ``==`` is a hazard.
    rep004_paths: tuple[str, ...] = (
        "src/repro/geometry.py",
        "src/repro/routing/",
        "src/repro/dim/zones.py",
    )
    #: REP005 — the accounting layer that owns ledger internals.
    rep005_allow: tuple[str, ...] = ("src/repro/network/",)

    # ---- whole-program (--analyze) rule families ---------------------- #

    #: REP101 — where ledger-conservation findings are reported.  The
    #: ``src/`` fragment also matches the analysis fixtures' mini-project
    #: ``src/`` trees; test code computes paths without charging them all
    #: the time, so it stays out of scope.
    rep101_paths: tuple[str, ...] = ("src/",)
    #: REP101 — the accounting layer itself, which legitimately charges
    #: hop-by-hop and inspects raw paths for telemetry.
    rep101_allow: tuple[str, ...] = ("src/repro/network/",)
    #: REP102 — where derive() stream-key collisions are reported (test
    #: code deliberately re-derives production streams to pin them).
    rep102_paths: tuple[str, ...] = ("src/",)
    #: REP103 — where wall-clock-taint flows into the serve layer are
    #: reported.
    rep103_paths: tuple[str, ...] = ("src/",)

    def merged_with(self, overrides: dict[str, object]) -> "Config":
        """A copy with ``overrides`` (pyproject table entries) applied."""
        known = {f.name for f in fields(self)}
        cleaned: dict[str, tuple[str, ...]] = {}
        for raw_key, value in overrides.items():
            key = raw_key.replace("-", "_")
            if key not in known:
                raise ValueError(f"unknown [tool.repro-lint] key: {raw_key!r}")
            if not isinstance(value, list) or not all(
                isinstance(item, str) for item in value
            ):
                raise ValueError(
                    f"[tool.repro-lint] {raw_key!r} must be a list of strings"
                )
            cleaned[key] = tuple(value)
        return Config(**{**self.__dict__, **cleaned})


def load_config(pyproject: str | Path | None = None) -> Config:
    """The default config merged with ``[tool.repro-lint]`` if present.

    With ``pyproject=None`` the file is looked up in the current working
    directory; a missing file simply yields the defaults.
    """
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    config = Config()
    if not path.is_file():
        if pyproject is not None:
            raise FileNotFoundError(f"config file not found: {path}")
        return config
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("repro-lint", {})
    if table:
        try:
            config = config.merged_with(table)
        except ValueError as error:
            print(f"{path}: {error}", file=sys.stderr)
            raise
    return config
