"""The online query service: scheduled workloads over a staged system.

:class:`QueryService` replays a :class:`~repro.serve.schedule.ServeSchedule`
against any :class:`~repro.exec.StagedQuerySystem`, exploiting the staged
pipeline in the two ways it was built for:

* **Plan/result caching** — a repeated ``(sink, query)`` is answered from
  the :class:`~repro.serve.cache.PlanResultCache` without planning or
  charging a single message; insert listeners invalidate exactly the
  results whose resolved cell set the new event touched, and the next
  request re-executes the kept plan while the system's
  ``layout_version`` still matches, without planning again.
* **Batch coalescing** — requests admitted in the same batch window whose
  plans carry equal ``share_key``\\ s share ONE execution: the group
  leader disseminates, every member folds its own result from the shared
  :class:`~repro.exec.Execution`.  Folding is per-member and reads the
  stores at fold time, so members get exactly the result they would have
  gotten alone.

The overload/fault layer (:mod:`repro.serve.admission`) composes on top:

* **Bounded admission** — with an :class:`AdmissionPolicy` the service
  switches to an event loop with a *server occupancy* model: one batch
  executes at a time, requests arriving while the server is busy queue
  up, a full queue sheds by policy, and queued requests whose deadline
  passes are timed out without executing.  ``admission=None`` keeps the
  legacy synchronous loop and its byte-identical output.
* **Partial-result retries** — with a :class:`RetryPolicy`, executions
  that fold to a :class:`~repro.dcs.PartialResult` are re-executed
  against a budget: only the unreachable legs when the system offers a
  ``plan_retry`` hook, the whole plan otherwise.  Retries are charged
  honestly on the ledger and their backoff waits extend the request's
  latency.
* **Circuit breaking** — with a :class:`BreakerPolicy`, ``threshold``
  consecutive partial/failed executions open the breaker; while open,
  requests are answered from stale-but-complete cache entries
  (``OUTCOME_STALE``) or shed, never executed into the failing network.

All timing is simulated (:class:`~repro.serve.clock.SimClock`); message
savings are measured off the real ledger (differences of its total), never
estimated.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable

from repro.dcs import PartialResult, QueryResult, resolve_result
from repro.exceptions import DimensionMismatchError
from repro.exec import (
    Execution,
    QueryPlan,
    StagedQuerySystem,
    check_query_dimensions,
)
from repro.serve.admission import (
    AdmissionPolicy,
    AdmissionQueue,
    BreakerPolicy,
    CircuitBreaker,
    RetryPolicy,
)
from repro.serve.cache import PlanResultCache
from repro.serve.clock import SimClock
from repro.serve.report import (
    OUTCOME_CACHE,
    OUTCOME_COALESCED,
    OUTCOME_EXECUTED,
    OUTCOME_PARTIAL,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    OUTCOME_STALE,
    OUTCOME_TIMEOUT,
    ServedQuery,
    ServeReport,
)
from repro.serve.schedule import ServeRequest, ServeSchedule
from repro.telemetry.spans import open_span

__all__ = ["QueryService", "merge_partial_results"]


def merge_partial_results(base: QueryResult, patch: QueryResult) -> QueryResult:
    """Combine a partial result with a retry pass over its missing cells.

    ``patch`` is the fold of a restricted retry plan (the system's
    ``plan_retry`` output) covering exactly ``base``'s unreachable cells.
    Pool's fold collects events from *answered holders* even inside
    unanswered cells, so a retried cell's patch can re-deliver events the
    base already carries.  The merge keeps every base event and drops from
    the patch only those re-deliveries: the same stored ``Event`` objects,
    matched by identity and counted with multiplicity.  ``Event`` equality
    ignores the source, so two sensors' identical readings both stay.
    Costs add (both executions were charged on the ledger); completeness
    is re-derived from the merged answered count, so a fully successful
    patch restores a plain :class:`~repro.dcs.QueryResult`.
    """
    if not isinstance(base, PartialResult):
        return base
    held = Counter(map(id, base.events))
    events = list(base.events)
    for event in patch.events:
        if held[id(event)]:
            held[id(event)] -= 1
        else:
            events.append(event)
    visited = tuple(dict.fromkeys([*base.visited_nodes, *patch.visited_nodes]))
    if isinstance(patch, PartialResult):
        answered = min(
            base.answered_cells + patch.answered_cells, base.attempted_cells
        )
        unreachable_cells = patch.unreachable_cells
        unreachable_nodes = patch.unreachable_nodes
    else:
        answered = base.attempted_cells
        unreachable_cells = ()
        unreachable_nodes = ()
    return resolve_result(
        events=events,
        forward_cost=base.forward_cost + patch.forward_cost,
        reply_cost=base.reply_cost + patch.reply_cost,
        visited_nodes=visited,
        detail=base.detail,
        depth_hops=max(base.depth_hops, patch.depth_hops),
        attempted_cells=base.attempted_cells,
        answered_cells=answered,
        unreachable_cells=unreachable_cells,
        unreachable_nodes=unreachable_nodes,
    )


class QueryService:
    """Serve scheduled queries over one staged system.

    Parameters
    ----------
    system:
        Any :class:`~repro.exec.StagedQuerySystem` (Pool, DIM, DIFS,
        flooding, external).
    name:
        Label for reports; defaults to the system class name, lowered.
    clock:
        Simulated clock; a fresh zero-start :class:`SimClock` by default.
    cache:
        Plan/result cache.  ``None`` disables caching (the control
        configuration).  The service attaches the cache's invalidation
        listener to the system and detaches it in :meth:`close`.
    batch_window:
        Admission window in simulated seconds.  Requests arriving within
        ``window`` of the batch's first request are served together and
        may coalesce; ``0.0`` serves strictly one request at a time
        (no coalescing — the control configuration).
    hop_latency:
        Simulated per-hop one-way latency in seconds; a served request's
        radio round trip is ``2 * depth_hops * hop_latency``.
    slo_target_s:
        Latency target the report scores attainment against.
    admission:
        Bounded-queue/deadline policy.  ``None`` (the default) keeps the
        legacy synchronous loop, byte-identical to the pre-admission
        service.
    retry:
        Partial-result retry budget.  ``None`` disables retries.
    breaker:
        Circuit-breaker policy.  ``None`` disables the breaker.  With a
        breaker and a cache, the cache is switched to ``keep_stale`` so
        invalidated-but-complete entries can answer while the breaker is
        open.

    The service is a context manager; ``with QueryService(...) as svc:``
    guarantees :meth:`close` (cache listener detach) even when a run
    raises.
    """

    def __init__(
        self,
        system: StagedQuerySystem,
        *,
        name: str | None = None,
        clock: SimClock | None = None,
        cache: PlanResultCache | None = None,
        batch_window: float = 0.0,
        hop_latency: float = 0.01,
        slo_target_s: float = 0.5,
        admission: AdmissionPolicy | None = None,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
    ) -> None:
        if batch_window < 0.0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if hop_latency < 0.0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        self.system = system
        self.name = name if name is not None else type(system).__name__.lower()
        self.clock = clock if clock is not None else SimClock()
        self.cache = cache
        self.batch_window = batch_window
        self.hop_latency = hop_latency
        self.slo_target_s = slo_target_s
        self.admission = admission
        self.retry = retry
        self.breaker = CircuitBreaker(breaker) if breaker is not None else None
        self._retry_tokens = retry.budget if retry is not None else 0
        self._closed = False
        if cache is not None:
            if breaker is not None:
                cache.keep_stale = True
            cache.attach(system)

    def close(self) -> None:
        """Detach the cache's insert listener from the system.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.cache is not None:
            self.cache.detach()

    def __enter__(self) -> QueryService:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def retry_tokens(self) -> int:
        """Remaining re-executions in the retry budget."""
        return self._retry_tokens

    def _policy_dict(self) -> dict[str, Any] | None:
        if self.admission is None and self.retry is None and self.breaker is None:
            return None
        policy: dict[str, Any] = {}
        if self.admission is not None:
            policy.update(self.admission.as_dict())
        if self.retry is not None:
            policy.update(self.retry.as_dict())
        if self.breaker is not None:
            policy.update(self.breaker.policy.as_dict())
        return policy

    # ------------------------------------------------------------------ #
    # Serving                                                            #
    # ------------------------------------------------------------------ #

    def run(self, schedule: ServeSchedule) -> ServeReport:
        """Replay the schedule; returns the run's accounting report."""
        report = ServeReport(
            system=self.name,
            duration=schedule.duration,
            slo_target_s=self.slo_target_s,
            policy=self._policy_dict(),
        )
        stats = self.system.network.stats
        run_start = stats.total
        if self.admission is None:
            self._run_synchronous(schedule.requests, report)
        else:
            self._run_admitted(schedule.requests, report)
        report.messages_total = stats.total - run_start
        if self.breaker is not None:
            report.breaker_trips = self.breaker.trips
        return report

    def _run_synchronous(
        self, requests: tuple[ServeRequest, ...], report: ServeReport
    ) -> None:
        """The legacy loop: an infinitely parallel server.

        Every batch is served the instant its admission window closes,
        regardless of how long earlier batches "took" — the pre-admission
        semantics, preserved verbatim so default runs stay byte-identical.
        """
        i = 0
        while i < len(requests):
            batch = [requests[i]]
            i += 1
            close = batch[0].time
            if self.batch_window > 0.0:
                close = batch[0].time + self.batch_window
                while i < len(requests) and requests[i].time <= close:
                    batch.append(requests[i])
                    i += 1
            # The batch is served when its admission window closes.
            self.clock.advance_to(close)
            self._serve_batch(batch, report)

    def _run_admitted(
        self, requests: tuple[ServeRequest, ...], report: ServeReport
    ) -> None:
        """Event loop with server occupancy and bounded admission.

        One batch occupies the server at a time.  The loop interleaves two
        event sources in time order: request arrivals (offered to the
        queue, which may shed) and service-start instants (the later of
        the server freeing up and the queue head's arrival).  Queued
        requests whose deadline passes before service starts are timed
        out without executing; requests that complete past their deadline
        keep their honestly charged messages but report a timeout.
        """
        assert self.admission is not None
        queue = AdmissionQueue(self.admission)
        self._queue = queue
        free_at = self.clock.now
        tel = self.system.network.telemetry
        i = 0
        while i < len(requests) or len(queue):
            next_arrival = requests[i].time if i < len(requests) else None
            head = queue.head
            start = max(free_at, head.time) if head is not None else None
            if start is not None and (next_arrival is None or start <= next_arrival):
                # Serve the queue before admitting later arrivals.
                self.clock.advance_to(start)
                for timed_out in queue.expired(start):
                    self._finish(
                        timed_out,
                        report,
                        outcome=OUTCOME_TIMEOUT,
                        messages=0,
                        saved=0,
                        depth_hops=0,
                        matches=0,
                    )
                batch = queue.pop_batch(self.batch_window)
                if batch:
                    done_at = self._serve_batch(batch, report)
                    free_at = max(free_at, done_at)
                continue
            request = requests[i]
            i += 1
            self.clock.advance_to(request.time)
            victim = queue.offer(request)
            if victim is not None:
                if tel is not None:
                    tel.record(
                        "serve-shed",
                        phase="serve",
                        request=victim.request_id,
                        sink=victim.sink,
                        depth=len(queue),
                        policy=queue.policy.shed_policy,
                    )
                self._finish(
                    victim,
                    report,
                    outcome=OUTCOME_SHED,
                    messages=0,
                    saved=0,
                    depth_hops=0,
                    matches=0,
                )

    def _serve_batch(
        self, batch: list[ServeRequest], report: ServeReport
    ) -> float:
        """Serve one admitted batch inside a ``serve-batch`` span.

        Returns the batch's completion time: the max ``served_at`` across
        the batch, at least the batch's start time.  It drives the
        admitted loop's server occupancy; the legacy loop ignores it.
        """
        system = self.system
        network = system.network
        cache = self.cache
        with open_span(
            network.telemetry, "serve-batch", ledger=network.stats, phase="serve", size=len(batch)
        ):
            done_at = self.clock.now
            # Nothing in a batch changes the layout, so one read serves it.
            version = system.layout_version
            # Cache lookups come before planning: a hit skips resolving
            # entirely (no resolve telemetry, zero messages).
            groups: dict[Hashable, list[tuple[ServeRequest, QueryPlan]]] = {}
            for request in batch:
                try:
                    check_query_dimensions(self.system.dimensions, request.query)
                except DimensionMismatchError:
                    # A malformed request is the client's fault, never the
                    # service's: reject it and keep serving the rest.
                    self._finish(
                        request,
                        report,
                        outcome=OUTCOME_REJECTED,
                        messages=0,
                        saved=0,
                        depth_hops=0,
                        matches=0,
                    )
                    continue
                if cache is not None:
                    entry = cache.lookup(request.sink, request.query)
                    if entry is not None:
                        # The folded result already sits at this sink; no
                        # radio round trip, latency is pure queue wait.
                        self._finish(
                            request,
                            report,
                            outcome=OUTCOME_CACHE,
                            messages=0,
                            saved=entry.cost,
                            depth_hops=0,
                            matches=entry.result.match_count,
                        )
                        continue
                if self.breaker is not None and self.breaker.is_open(self.clock.now):
                    self._serve_while_open(request, report)
                    continue
                plan = (
                    cache.kept_plan(request.sink, request.query, version)
                    if cache is not None
                    else None
                )
                if plan is None:
                    plan = system.plan_query(request.sink, request.query)
                groups.setdefault(plan.share_key, []).append((request, plan))
            for members in groups.values():
                done_at = max(
                    done_at, self._execute_group(members, report, version)
                )
            return done_at

    def _serve_while_open(
        self, request: ServeRequest, report: ServeReport
    ) -> None:
        """Answer without executing: stale-but-complete cache entry or shed."""
        stale = (
            self.cache.lookup_stale(request.sink, request.query)
            if self.cache is not None
            else None
        )
        if stale is not None:
            self._finish(
                request,
                report,
                outcome=OUTCOME_STALE,
                messages=0,
                saved=stale.cost,
                depth_hops=0,
                matches=stale.result.match_count,
            )
        else:
            self._finish(
                request,
                report,
                outcome=OUTCOME_SHED,
                messages=0,
                saved=0,
                depth_hops=0,
                matches=0,
            )

    def _execute_group(
        self,
        members: list[tuple[ServeRequest, QueryPlan]],
        report: ServeReport,
        version: Hashable,
    ) -> float:
        """Execute one share-key group once; fold, retry and cache per member.

        ``version`` is the system's ``layout_version`` the members' plans
        were made (or kept) under.
        """
        stats = self.system.network.stats
        _, leader_plan = members[0]
        before = stats.total
        execution = self.system.execute_plan(leader_plan)
        charged = stats.total - before
        done_at = self.clock.now
        group_failed = False
        for position, (request, plan) in enumerate(members):
            result = self.system.fold_replies(plan, execution)
            retries = 0
            extra_cost = 0
            backoff_wait = 0.0
            while (
                result.is_partial
                and self.retry is not None
                and self._retry_tokens > 0
                and retries < self.retry.max_attempts
            ):
                self._retry_tokens -= 1
                retries += 1
                backoff_wait += self.retry.backoff(retries)
                result, cost = self._retry_partial(plan, result)
                extra_cost += cost
            if self.cache is not None:
                self.cache.store(
                    plan, result, cost=charged + extra_cost, version=version
                )
            complete = not result.is_partial
            if complete:
                outcome = OUTCOME_EXECUTED if position == 0 else OUTCOME_COALESCED
            else:
                outcome = OUTCOME_PARTIAL
                group_failed = True
            served_at = self._finish(
                request,
                report,
                outcome=outcome,
                messages=(charged if position == 0 else 0) + extra_cost,
                saved=0 if position == 0 else charged,
                depth_hops=result.depth_hops,
                matches=result.match_count,
                completeness=result.completeness,
                retries=retries,
                extra_latency=backoff_wait,
            )
            done_at = max(done_at, served_at)
        if self.breaker is not None:
            if group_failed:
                tripped = self.breaker.record_failure(self.clock.now)
                if tripped:
                    tel = self.system.network.telemetry
                    if tel is not None:
                        tel.record(
                            "breaker-trip",
                            phase="serve",
                            open_until=round(self.breaker.open_until, 6),
                            trips=self.breaker.trips,
                        )
            else:
                self.breaker.record_success()
        return done_at

    def _retry_partial(
        self, plan: QueryPlan, result: QueryResult
    ) -> tuple[QueryResult, int]:
        """One budgeted re-execution pass; returns (result, charged).

        Systems exposing ``plan_retry`` (Pool, DIM) get a restricted plan
        covering only the unreachable cells — the cheap path.  Everything
        else re-executes the full plan and keeps whichever result is more
        complete (re-execution draws fresh per-transmission loss, so it
        can genuinely do better).
        """
        stats = self.system.network.stats
        before = stats.total
        plan_retry = getattr(self.system, "plan_retry", None)
        if plan_retry is not None:
            subplan = plan_retry(plan, result)
            if subplan is not None:
                execution: Execution = self.system.execute_plan(subplan)
                patch = self.system.fold_replies(subplan, execution)
                merged = merge_partial_results(result, patch)
                return merged, stats.total - before
        execution = self.system.execute_plan(plan)
        again = self.system.fold_replies(plan, execution)
        cost = stats.total - before
        best = again if again.completeness >= result.completeness else result
        return best, cost

    def _finish(
        self,
        request: ServeRequest,
        report: ServeReport,
        *,
        outcome: str,
        messages: int,
        saved: int,
        depth_hops: int,
        matches: int,
        completeness: float = 1.0,
        retries: int = 0,
        extra_latency: float = 0.0,
    ) -> float:
        round_trip = 2.0 * depth_hops * self.hop_latency
        served_at = self.clock.now + round_trip + extra_latency
        if outcome not in (OUTCOME_SHED, OUTCOME_REJECTED, OUTCOME_TIMEOUT):
            # Deadline-at-completion: a late answer is a timeout, but its
            # ledger charges stand — the network really spent them.
            deadline = (
                request.deadline_s
                if request.deadline_s is not None
                else (self.admission.deadline_s if self.admission else None)
            )
            if deadline is not None and served_at - request.time > deadline:
                outcome = OUTCOME_TIMEOUT
        served = ServedQuery(
            request_id=request.request_id,
            sink=request.sink,
            submitted_at=request.time,
            served_at=served_at,
            outcome=outcome,
            messages=messages,
            saved_messages=saved,
            depth_hops=depth_hops,
            matches=matches,
            latency_s=served_at - request.time,
            completeness=completeness,
            retries=retries,
        )
        report.served.append(served)
        tel = self.system.network.telemetry
        if tel is not None:
            attrs: dict[str, Any] = {}
            # Only non-default attrs are attached, keeping lossless
            # telemetry byte-identical to the pre-admission layer.
            if completeness < 1.0:
                attrs["completeness"] = round(completeness, 6)
            if retries:
                attrs["retries"] = retries
            tel.record(
                "serve-request",
                phase="serve",
                request=request.request_id,
                sink=request.sink,
                outcome=outcome,
                saved=saved,
                matches=matches,
                **attrs,
            )
        return served_at
