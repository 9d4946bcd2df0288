"""Measurement primitives for the repository benchmark.

Nothing here knows a workload.  It holds the client-side accumulators
(per-operation latencies, summed call time, ledger deltas), the
speed-calibrated meter, the nearest-rank percentile, the span tracer
that wraps public methods of the objects a workload builds, and the
answer checks.
"""

from __future__ import annotations

import math
import resource
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable

__all__ = [
    "CheckFailed",
    "Meter",
    "Totals",
    "Tracer",
    "brute_force",
    "check_answer",
    "percentile",
    "peak_rss_mb",
    "speed_probe",
]

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p99 needs 1000 samples.
MIN_BEYOND = 10


class CheckFailed(Exception):
    """An answer, ledger or determinism check did not hold."""


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile; refuses when too few samples lie beyond."""
    n = len(samples)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A chunk of timed work this long (seconds) is rescaled as one unit.
CHUNK_S = 0.03

#: Seconds :func:`speed_probe` takes at the reference speed.  Calibrated
#: times read as wall-clock seconds on a machine that runs the probe in
#: exactly this long.
REFERENCE_PROBE_S = 0.0006


class _Probe:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def dist2(self, other: "_Probe") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy


def speed_probe(rounds: int = 1_500) -> float:
    """Seconds for a fixed pure-Python kernel: the machine's current speed.

    The kernel mixes what the program under test spends its time on:
    slotted attribute reads, method calls, float arithmetic, tuple keys
    and dict updates.
    """
    started = perf_counter()
    points = [_Probe(float(i % 97), float(i % 89)) for i in range(256)]
    table: dict[tuple[int, int], float] = {}
    for i in range(rounds):
        d = points[i & 255].dist2(points[(i * 7) & 255])
        key = (i % 61, i % 67)
        table[key] = table.get(key, 0.0) + d
    sorted(table.values())
    return perf_counter() - started


@dataclass
class Totals:
    """End-to-end accumulators over every round of one run.

    Times are calibrated (see :class:`Meter`): latency lists hold one
    entry per call in microseconds, ``insert_s``/``query_s`` the summed
    call time.  Message counts come from ledger deltas.
    """

    setup_s: list[float] = field(default_factory=list)
    insert_us: list[float] = field(default_factory=list)
    insert_s: float = 0.0
    insert_msgs: int = 0
    query_us: list[float] = field(default_factory=list)
    query_s: float = 0.0
    query_msgs: int = 0
    batch_us: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Calibration factor of every chunk (reference / measured speed).
    factors: list[float] = field(default_factory=list)
    #: Per round: (insert messages, inserts, query messages, queries).
    #: Rounds replay identical inputs, so every entry must be equal.
    round_ledgers: list[tuple[int, int, int, int]] = field(default_factory=list)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics as ``name -> (value, unit)``."""
        inserts = len(self.insert_us)
        queries = len(self.query_us)
        setups = sorted(self.setup_s)
        return {
            "setup_s": (setups[len(setups) // 2], "s"),
            "insert_per_s": (inserts / self.insert_s, "1/s"),
            "insert_us_p50": (percentile(self.insert_us, 0.50), "us"),
            "insert_us_p99": (percentile(self.insert_us, 0.99), "us"),
            "query_per_s": (queries / self.query_s, "1/s"),
            "query_us_p50": (percentile(self.query_us, 0.50), "us"),
            "query_us_p99": (percentile(self.query_us, 0.99), "us"),
            "msgs_per_insert": (self.insert_msgs / inserts, "count"),
            "msgs_per_query": (self.query_msgs / queries, "count"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def close_round(self, ledger: tuple[int, int, int, int]) -> None:
        """Record one round's ledger and insist it repeats round 0's."""
        if self.round_ledgers and ledger != self.round_ledgers[0]:
            raise CheckFailed(
                f"round {len(self.round_ledgers)} ledger {ledger} differs "
                f"from round 0 {self.round_ledgers[0]} on identical inputs"
            )
        self.round_ledgers.append(ledger)


class Meter:
    """Calibrated timing of one round's closed loop.

    On a shared two-core host the probe's time flips by up to 2x every
    few tens of milliseconds and drifts by as much again over minutes,
    and 12-second runs of the same work differed by 17% (quartile
    spread) in raw throughput; no amount of repetition averages that
    away.  So every :data:`CHUNK_S` of recorded work the meter runs
    :func:`speed_probe`, untimed, and rescales the chunk's samples by
    ``REFERENCE_PROBE_S / mean(probe before, probe after)``.  Fitting
    chunk time against probe time gave exponents of 0.89-1.05, so the
    probe slows down with the host as the program does.  Work the
    program does faster shows as faster; the host slowing down does not.

    Set-up is timed the same way: from the meter's creation to
    :meth:`setup_done`, every stretch of wall time between two probes is
    rescaled by their mean, and probe time itself is left out.
    """

    def __init__(self, totals: Totals) -> None:
        self.totals = totals
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._setup_s: float | None = 0.0
        self._last = speed_probe()
        self._stretch_started = perf_counter()
        self._open()

    def _probe(self) -> float:
        """Probe; returns the factor for the stretch since the last probe."""
        started = perf_counter()
        probe = speed_probe()
        factor = 2.0 * REFERENCE_PROBE_S / (self._last + probe)
        if self._setup_s is not None:
            self._setup_s += (started - self._stretch_started) * factor
        self._last = probe
        self._stretch_started = perf_counter()
        return factor

    def _open(self) -> None:
        totals = self.totals
        self._marks = (len(totals.insert_us), len(totals.query_us), len(totals.batch_us))
        self._insert_s = 0.0
        self._query_s = 0.0
        self._started = perf_counter()

    def lap(self) -> None:
        """Split set-up with a probe, so each stretch is rescaled on its own."""
        if perf_counter() - self._stretch_started >= CHUNK_S / 2:
            self._probe()

    def setup_done(self) -> None:
        """End set-up, which began when the meter was created."""
        self.flush()
        self._probe()
        assert self._setup_s is not None
        self.totals.setup_s.append(self._setup_s)
        self._setup_s = None
        self._open()

    def insert(self, started: float, ended: float) -> None:
        """One insert call that ran from ``started`` to ``ended``."""
        seconds = ended - started
        self.totals.insert_us.append(seconds * 1e6)
        self._insert_s += seconds
        if ended - self._started >= CHUNK_S:
            self.flush()

    def query(self, started: float, ended: float, requests: int = 1) -> None:
        """One query, or one service call answering ``requests`` requests."""
        seconds = ended - started
        self.totals.query_us.extend([seconds * 1e6] * requests)
        self._query_s += seconds
        if ended - self._started >= CHUNK_S:
            self.flush()

    def batch(self, started: float, ended: float) -> None:
        """One service call's duration as a batch sample."""
        self.totals.batch_us.append((ended - started) * 1e6)

    def flush(self) -> None:
        """Close the current chunk: probe, rescale, reopen."""
        raw = self._insert_s + self._query_s
        if raw == 0.0:
            self._open()
            return
        factor = self._probe()
        totals = self.totals
        lists = (totals.insert_us, totals.query_us, totals.batch_us)
        for samples, mark in zip(lists, self._marks):
            for i in range(mark, len(samples)):
                samples[i] *= factor
        totals.insert_s += self._insert_s * factor
        totals.query_s += self._query_s * factor
        totals.factors.append(factor)
        self.raw_s += raw
        self.scaled_s += raw * factor
        self._open()


class Tracer:
    """Self-time spans around public methods, keyed by the current context.

    :meth:`wrap` returns a stand-in for a bound method; installing it as
    an instance attribute makes every caller that looks the method up on
    the instance (the program's own internal calls included) go through
    it.  A span's self time is its duration minus the time of spans
    opened inside it.  ``context`` is set by the workload (``(phase,
    system)``), so one shared router splits its time by the system whose
    phase is running.
    """

    def __init__(self) -> None:
        self.context: tuple[str, str] = ("setup", "-")
        self.self_s: Counter[tuple[str, str, str]] = Counter()
        self.inclusive_s: Counter[tuple[str, str, str]] = Counter()
        self.calls: Counter[tuple[str, str, str]] = Counter()
        self.amount: Counter[tuple[str, str, str]] = Counter()
        self._children: list[float] = []

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        measure: Callable[[Any], float] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as ``layer``; ``measure(result)`` adds to ``amount``."""
        children = self._children

        def traced(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                nested = children.pop()
                if children:
                    children[-1] += elapsed
                key = (*self.context, layer)
                self.inclusive_s[key] += elapsed
                self.self_s[key] += elapsed - nested
                self.calls[key] += 1
            if measure is not None:
                self.amount[key] += measure(result)
            return result

        return traced

    def total_self(self, phase: str) -> float:
        """Sum of every layer's self time within ``phase``."""
        return sum(v for (p, _, _), v in self.self_s.items() if p == phase)


def brute_force(events: Iterable[Any], query: Any) -> Counter[tuple[float, ...]]:
    """The multiset of event values ``query`` matches, by linear scan."""
    return Counter(event.values for event in events if query.matches(event))


def check_answer(
    label: str, result: Any, expected: Counter[tuple[float, ...]]
) -> None:
    """Fail unless ``result`` returned exactly the ``expected`` events."""
    if result.is_partial:
        raise CheckFailed(f"{label}: partial answer on a lossless network")
    got = Counter(event.values for event in result.events)
    if got != expected:
        missing = sum((expected - got).values())
        extra = sum((got - expected).values())
        raise CheckFailed(
            f"{label}: answer differs from brute force "
            f"({missing} missing, {extra} unexpected events)"
        )
