"""Query-lifecycle spans.

A :class:`Span` is one phase of one operation — the sink-to-splitter leg
of a query, a Pool's cell fan-out, the aggregated reply climb — carrying
the phase name, the owning system's label, the messages charged while it
was open, the node ids it touched and its wall-clock window.  Spans
nest: a :class:`SpanRecorder` keeps an open-span stack, so instrumented
layers (``core/system.py``, ``core/resolve.py``, ``network/network.py``,
``core/protocol.py``, ``serve/service.py``) produce one tree per
operation without threading parent handles around.

A span's ``messages`` is read off the ledger it was opened with (the
change in ``ledger.total`` while it was open), never kept by hand, so it
includes retransmissions and ACKs and always covers its children.
Leaves recorded with :meth:`SpanRecorder.record` are instants and carry 0.

Telemetry is opt-in: a facade without a recorder attached
(``Network.telemetry is None``) never allocates a span.  Instrumented
operations open their spans through :func:`open_span`, which hands back
one shared, stateless no-op span when there is no recorder, so every
operation has a single body that runs the same with telemetry on or off.

Determinism: everything a span carries except its wall-clock window is a
pure function of the seed, so :meth:`Span.as_dict` excludes timings by
default — the form the serial-vs-parallel equivalence guarantees cover
(mirroring ``ResultRow.as_dict(include_timings=False)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.radio import MessageStats

__all__ = ["Span", "SpanRecorder", "open_span"]


@dataclass(slots=True)
class Span:
    """One phase of one operation, possibly with nested children."""

    name: str
    phase: str
    system: str | None = None
    messages: int = 0
    nodes: set[int] = field(default_factory=set)
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    started_at: float = 0.0
    ended_at: float = 0.0

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        if self.ended_at <= self.started_at:
            return 0.0
        return self.ended_at - self.started_at

    def add_nodes(self, nodes: Iterable[int]) -> None:
        """Mark node ids as touched by this span."""
        self.nodes.update(nodes)

    def annotate(self, **attrs: Any) -> None:
        """Set (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self, *, include_timings: bool = False) -> dict[str, Any]:
        """JSON-ready view (sorted node list, nested children).

        ``include_timings=True`` adds the wall-clock duration; the
        default form is seed-deterministic and what the JSONL export
        writes.
        """
        payload: dict[str, Any] = {
            "name": self.name,
            "phase": self.phase,
            "system": self.system,
            "messages": self.messages,
            "nodes": sorted(self.nodes),
        }
        if self.attrs:
            payload["attrs"] = dict(sorted(self.attrs.items()))
        if self.children:
            payload["children"] = [
                child.as_dict(include_timings=include_timings)
                for child in self.children
            ]
        if include_timings:
            payload["seconds"] = round(self.seconds, 6)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, phase={self.phase!r}, "
            f"messages={self.messages}, children={len(self.children)})"
        )


class SpanRecorder:
    """Collects span trees for one system (or one facade).

    Parameters
    ----------
    label:
        Default ``system`` stamp for spans recorded here — the harness
        passes the system-under-test's registry name (``"pool"``,
        ``"dim"``, ...), so merged exports attribute every span.
    clock:
        Monotonic time source; injectable for tests.
    """

    __slots__ = ("label", "roots", "_stack", "_clock")

    def __init__(
        self,
        label: str | None = None,
        *,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.label = label
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock

    # ------------------------------------------------------------------ #
    # Recording                                                          #
    # ------------------------------------------------------------------ #

    @contextmanager
    def span(
        self,
        name: str,
        *,
        ledger: "MessageStats",
        phase: str,
        system: str | None = None,
        **attrs: Any,
    ) -> Iterator[Span]:
        """Open a nested span charged with what ``ledger`` records inside it."""
        before = ledger.total
        opened = Span(
            name=name,
            phase=phase,
            system=system if system is not None else self.label,
            attrs=dict(attrs),
            started_at=self._clock(),
        )
        if self._stack:
            self._stack[-1].children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)
        try:
            yield opened
        finally:
            opened.messages = ledger.total - before
            opened.ended_at = self._clock()
            self._stack.pop()

    def record(
        self,
        name: str,
        *,
        phase: str,
        nodes: Iterable[int] = (),
        system: str | None = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-finished leaf span under the current parent.

        For instrumentation points that know their outcome upfront (the
        sink-side resolve step, a shed request) and have no interior
        structure to nest.  A leaf is an instant, so it charges no
        messages.
        """
        now = self._clock()
        leaf = Span(
            name=name,
            phase=phase,
            system=system if system is not None else self.label,
            nodes=set(nodes),
            attrs=dict(attrs),
            started_at=now,
            ended_at=now,
        )
        if self._stack:
            self._stack[-1].children.append(leaf)
        else:
            self.roots.append(leaf)
        return leaf

    # ------------------------------------------------------------------ #
    # Inspection                                                         #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())

    def walk(self) -> Iterator[Span]:
        """Every recorded span, depth-first over all roots."""
        for root in self.roots:
            yield from root.walk()

    def summary(self) -> list[dict[str, Any]]:
        """Aggregate per (system, phase, name): count, messages, nodes.

        ``nodes`` is the size of the union of the node sets — how much of
        the field that phase touched overall.
        """
        buckets: dict[tuple[str, str, str], dict[str, Any]] = {}
        unions: dict[tuple[str, str, str], set[int]] = {}
        for span in self.walk():
            key = (span.system or "", span.phase, span.name)
            bucket = buckets.setdefault(
                key,
                {
                    "system": span.system,
                    "phase": span.phase,
                    "name": span.name,
                    "count": 0,
                    "messages": 0,
                },
            )
            bucket["count"] += 1
            bucket["messages"] += span.messages
            unions.setdefault(key, set()).update(span.nodes)
        out: list[dict[str, Any]] = []
        for key in sorted(buckets):
            bucket = buckets[key]
            bucket["nodes"] = len(unions[key])
            out.append(bucket)
        return out

    def as_dicts(self, *, include_timings: bool = False) -> list[dict[str, Any]]:
        """Every root span tree in JSON-ready form."""
        return [
            root.as_dict(include_timings=include_timings) for root in self.roots
        ]

    def clear(self) -> None:
        """Drop every recorded span (open-span stack must be empty)."""
        self.roots.clear()
        self._stack.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanRecorder(label={self.label!r}, roots={len(self.roots)})"


class _NoopSpan:
    """The span :func:`open_span` yields without a recorder.

    Stateless and shared: every method discards its arguments, and the
    context-manager protocol returns the same object, so a disabled
    operation allocates no span.  Deliberately not a :class:`Span` or
    :class:`SpanRecorder` subclass — with telemetry off the real span API
    is never touched.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def add_nodes(self, nodes: Iterable[int]) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def open_span(
    recorder: SpanRecorder | None, name: str, *, ledger: "MessageStats", phase: str, **attrs: Any
) -> ContextManager[Span] | _NoopSpan:
    """``recorder.span(name, ledger=..., ...)``, or the shared no-op span.

    Lets an instrumented operation keep one body: it always writes
    ``with open_span(tel, ..., ledger=stats) as span:``, and with
    telemetry off the ledger is never read and the span's methods cost a
    call each.
    """
    if recorder is None:
        return _NOOP_SPAN
    return recorder.span(name, ledger=ledger, phase=phase, **attrs)
