"""The ranking service façade: one front door for ranking traffic.

:class:`RankingService` is the first layer of the library that owns
*requests* rather than solves.  It wires the serving pieces together —
:class:`~repro.serving.planner.QueryPlanner` (strategy choice),
:class:`~repro.serving.coalescer.MicrobatchCoalescer` (pooled batched
solves) and :class:`~repro.serving.cache.ResultCache` (delta-aware
result reuse) — over the cached-operator compute core built in the
earlier layers:

* :meth:`RankingService.rank` answers one request; :meth:`rank_many`
  answers a burst, coalescing the pooled ones into shared batched
  blocks; :meth:`submit` exposes the underlying ticket interface for
  callers that interleave submission and consumption.  Every planned
  strategy runs through one ``{strategy: handler}`` table; the
  dispatcher owns the ``solve`` span, the latency record and the cache
  commit of fresh answers.
* :meth:`RankingService.apply_delta` is the **one mutation door** for a
  served graph: it applies the :class:`~repro.graph.delta.GraphDelta`
  through the graph's CSR splice and, for localized
  deltas, captures each cached answer's baseline residual against the
  still-cached pre-delta operator so the cache can *correct* entries by
  residual push on next access instead of evicting them.
* :meth:`RankingService.stats` reports the serving health: plan mix,
  cache hit rate and corrections, microbatch occupancy, delta counts,
  and per-strategy observed latencies.

Every answer the service returns — cached, coalesced, pushed or
incrementally corrected — carries the same solver-tolerance certificate
as a cold solve of the same request (see ``docs/serving.md`` for the
exact contract).

Thread safety
-------------
The service is safe to drive from many threads (the
:class:`~repro.serving.front.ServingFront` worker pool does exactly
that).  The concurrency model is a **readers/writer barrier** over the
graph plus small per-component locks:

* every solve path — :meth:`submit`, :meth:`rank`, ticket resolution
  — holds the shared (read) side of a
  :class:`~repro.serving.sync.ReadWriteLock`, because solves read
  operator bundles that the delta path patches *in place*;
* :meth:`apply_delta` holds the exclusive (write) side: it waits for
  in-flight solves to drain and blocks new ones while the graph, the
  operator caches and the result cache move to the next version
  together.  Draining outstanding microbatches from inside the write
  hold re-enters the read side, which is a no-op for the writer thread.

Lock ordering (outermost first): RW barrier → service bookkeeping lock
→ leaf locks (cache, coalescer, graph matrix cache).  The coalescer's
condition variable is never held while acquiring the bookkeeping lock,
and vice versa — service code calls into the coalescer only outside its
own bookkeeping lock.
"""

from __future__ import annotations

import pickle
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.results import NodeScores
from repro.errors import ConvergenceError, ParameterError, ReproError
from repro.graph.base import BaseGraph, Node
from repro.graph.delta import GraphDelta
from repro.graph.persist import (
    DeltaLog,
    load_snapshot,
    save_snapshot,
    snapshot_id,
)
from repro.linalg.incremental import incremental_update
from repro.linalg.push import forward_push
from repro.serving.cache import CacheEntry, ResultCache
from repro.serving.coalescer import CoalescerTicket, MicrobatchCoalescer
from repro.serving.planner import (
    CanonicalQuery,
    QueryPlan,
    QueryPlanner,
    RankRequest,
    canonical_query,
    dense_teleport,
)
from repro.serving.sync import ReadWriteLock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    Tracer,
    activate_span,
    active_span,
    annotate,
    child_span,
)

__all__ = ["RankingService", "ServedResult", "ServingTicket"]


def coerce_request(request, kwargs) -> RankRequest:
    """The :class:`RankRequest` named by a ``(request, **kwargs)`` call."""
    if request is None:
        return RankRequest(**kwargs)
    if kwargs:
        raise ParameterError(
            "pass either a RankRequest or keyword fields, not both"
        )
    if not isinstance(request, RankRequest):
        raise ParameterError(
            f"expected a RankRequest, got {type(request).__name__}"
        )
    return request


def _unconverged(result, tol: float) -> ConvergenceError:
    """The error for a solver ``result`` that missed ``tol``."""
    return ConvergenceError(
        f"{result.method} did not reach tol={tol} within "
        f"{result.iterations} iterations",
        iterations=result.iterations,
        residual=result.final_residual,
    )


@dataclass(frozen=True, eq=False)
class _PendingCorrection:
    """Correction token: the factors an entry was certified on.

    ``factors`` is the pre-delta transition as
    :class:`~repro.linalg.operator.Factors` — the cached, immutable
    adjacency ``M`` plus the O(n) vectors ``r`` and ``c`` (or, for a
    key that does not factor, its materialised bundle) — and ``nodes``
    the union of the delta endpoints since certification.  Capturing
    them builds nothing: the factors are memoised per graph version.
    At correction time they give the old system's residual as
    ``full − delta``, with ``delta`` computed on the rows the deltas
    changed (:func:`~repro.linalg.incremental.delta_residual`) — however
    many localized deltas the entry was chained across since.  Its
    memory is one retained adjacency per transition group — released
    as entries are corrected or evicted.

    The token's *identity* also guards the correction commit: the cache
    stores a corrected answer only when the entry is still pending on
    this very token (see :meth:`ResultCache.resolve_pending`), so a
    delta landing between solve and commit can never be papered over.
    """

    factors: object
    #: Delta endpoints summed over every delta since certification; a
    #: chain past ``localized_fraction`` of the nodes is evicted.
    touched: int
    #: The union of those endpoints: the nodes whose adjacency rows
    #: changed.
    nodes: np.ndarray


@dataclass(frozen=True)
class ServedResult:
    """One served answer: scores plus the plan that produced them."""

    scores: NodeScores
    plan: QueryPlan
    request: RankRequest

    @property
    def topk(self) -> list[tuple[Node, float]] | None:
        """The request's top-``k`` slice of the certified vector."""
        if self.request.top_k is None:
            return None
        return self.scores.top(self.request.top_k)


class ServingTicket:
    """Deferred handle for a submitted request.

    Cached / pushed / incrementally-corrected requests resolve at
    submission time; coalesced (``"batch"``) requests resolve when their
    microbatch flushes — reading :meth:`result` flushes on demand, so a
    ticket can always be consumed immediately.

    Thread-safe: any number of threads may read :meth:`result`
    concurrently (e.g. a client thread racing the mutation path's
    pre-delta drain).  Resolution is idempotent — the coalescer hands
    every resolver the same solved column — and exactly one computed
    answer is committed; later readers observe it.
    """

    __slots__ = ("plan", "request", "_result", "_resolver", "_cond")

    def __init__(
        self,
        request: RankRequest,
        plan: QueryPlan,
        *,
        result: ServedResult | None = None,
        resolver=None,
    ) -> None:
        self.request = request
        self.plan = plan
        self._result = result
        self._resolver = resolver
        self._cond = threading.Condition()

    @property
    def done(self) -> bool:
        with self._cond:
            return self._result is not None

    def _set_resolver(self, resolver) -> None:
        with self._cond:
            self._resolver = resolver
            self._cond.notify_all()

    def result(self) -> ServedResult:
        """The served answer (resolving the pending microbatch if needed)."""
        with self._cond:
            # A shared (deduplicated) ticket can be handed out in the
            # narrow window before its submitter attaches the resolver;
            # wait for one rather than failing.
            while self._result is None and self._resolver is None:
                self._cond.wait()
            if self._result is not None:
                return self._result
            resolver = self._resolver
        value = resolver()
        with self._cond:
            if self._result is None:
                self._result = value
                self._resolver = None
            return self._result


class RankingService:
    """Serve ranking queries over one graph with planning, batching, caching.

    The service builds its own :class:`~repro.serving.planner.QueryPlanner`,
    :class:`~repro.serving.cache.ResultCache` and
    :class:`~repro.serving.coalescer.MicrobatchCoalescer` from the scalar
    options below; every transition uses the fixed theta clamp of
    :func:`~repro.methods.stochastic.d2pr_transition`.

    Parameters
    ----------
    graph:
        The served graph.  Mutations must flow through
        :meth:`apply_delta`; a mutation behind the service's back is
        detected by the mutation counter and simply evicts affected
        cache entries (never serves stale answers).
    window:
        Microbatch flush threshold (see
        :class:`~repro.serving.coalescer.MicrobatchCoalescer`).
    cache_capacity:
        Result-cache LRU bound.
    localized_fraction:
        A delta naming at most this fraction of the nodes is treated as
        localized: cached entries are corrected by residual push instead
        of evicted.  Larger deltas evict (a correction whose support is
        a sizeable fraction of the graph contracts no faster than the
        warm re-solve it would fall back to).
    max_iter:
        Iteration budget forwarded to every solver.  A fresh or
        incremental answer that exhausts it raises
        :class:`~repro.errors.ConvergenceError` and is never cached; the
        solvers themselves only report ``converged=False``.
    sharding:
        Serve global (uniform-teleport) rankings through block-partitioned
        operators (:func:`~repro.methods.sharded_operator_for`) and the
        sharded block-relaxation solver.  Personalised queries plan
        exactly as unsharded (``"push"`` or ``"batch"``) and never build
        a sharded operator.  Graphs below
        :data:`~repro.shard.operator.DEFAULT_SIZE_FLOOR` nodes serve
        exactly as with ``sharding=False``.
    n_shards:
        Shard count (contiguous blocked ranges).
    shard_method:
        Accepted for existing callers; ``"blocked"`` is the only
        partitioning.
    delta_log:
        Optional :class:`~repro.graph.persist.DeltaLog` the service tees
        every applied delta into (after the graph commit), enabling
        :meth:`warm_start` recovery of mutations a checkpoint has not
        absorbed.  :meth:`checkpoint` arms one automatically.
    tracer / tracing / trace_capacity:
        Request tracing: pass a :class:`~repro.telemetry.trace.Tracer`,
        or ``tracing=True`` for a private one that traces every request
        and keeps the last ``trace_capacity`` traces.

    The service is a context manager (``with RankingService(g) as
    svc:``); see :meth:`close`.
    """

    def __init__(
        self,
        graph: BaseGraph,
        *,
        window: int = 16,
        cache_capacity: int = 128,
        localized_fraction: float = 0.05,
        max_iter: int = 1000,
        sharding: bool = False,
        n_shards: int = 8,
        shard_method: str = "blocked",
        delta_log: DeltaLog | None = None,
        compact_threshold: float | None = None,
        telemetry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        tracing: bool = False,
        trace_capacity: int = 256,
    ) -> None:
        graph.require_nonempty()
        if not 0.0 <= localized_fraction <= 1.0:
            raise ParameterError(
                f"localized_fraction must be in [0, 1], "
                f"got {localized_fraction}"
            )
        if compact_threshold is not None and not (
            np.isfinite(compact_threshold) and compact_threshold > 0.0
        ):
            raise ParameterError(
                f"compact_threshold must be positive, "
                f"got {compact_threshold}"
            )
        if n_shards < 1:
            raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
        if shard_method != "blocked":
            raise ParameterError(
                f"shard_method must be 'blocked', got {shard_method!r}"
            )
        self._graph = graph
        # One telemetry registry per serving stack: every component
        # below registers its families here, so a single snapshot /
        # Prometheus export covers the whole request path.
        self._telemetry = (
            telemetry if telemetry is not None else MetricsRegistry()
        )
        if tracer is not None:
            self._tracer: Tracer | None = tracer
        elif tracing:
            self._tracer = Tracer(
                capacity=trace_capacity, metrics=self._telemetry
            )
        else:
            self._tracer = None
        self._planner = QueryPlanner()
        self._cache = ResultCache(
            capacity=cache_capacity, metrics=self._telemetry
        )
        self._coalescer = MicrobatchCoalescer(
            graph, window=window, max_iter=max_iter, metrics=self._telemetry
        )
        self._localized_fraction = localized_fraction
        self._max_iter = max_iter
        self._sharding = bool(sharding)
        self._n_shards = int(n_shards)
        # Optional write-ahead tee: every delta committed through
        # apply_delta is appended here after the graph commit, so a
        # later warm_start(checkpoint) can replay exactly the mutations
        # the checkpoint has not yet absorbed.  checkpoint() arms one
        # automatically; passing it here re-arms an existing log.
        self._delta_log = delta_log
        # Log-compaction policy: once a checkpoint exists, apply_delta
        # auto-checkpoints (truncating the log) whenever the log grows
        # past compact_threshold × the snapshot's byte size.
        self._compact_threshold = (
            float(compact_threshold) if compact_threshold is not None
            else None
        )
        self._checkpoint_path: Path | None = None
        self._snapshot_bytes: int | None = None
        # Readers/writer barrier: solves share, apply_delta excludes
        # (a delta swaps the edge store and the graph cache).
        self._rw = ReadWriteLock()
        # Bookkeeping lock (leaf relative to the RW barrier): counters,
        # the inflight-dedup table, outstanding tickets.
        self._lock = threading.RLock()
        # Service counters live in the telemetry registry; each
        # increment is atomic under the counter family's own leaf lock
        # (no bare dict mutations — see docs/serving.md § Concurrency).
        self._m_requests = self._telemetry.counter(
            "serving_requests_total", "Requests submitted to the service"
        )
        self._m_plans = self._telemetry.counter(
            "serving_plans_total",
            "Planned requests by chosen strategy",
            labels=("strategy",),
        )
        self._m_deltas = self._telemetry.counter(
            "serving_deltas_total",
            "Graph deltas through apply_delta, by disposition",
            labels=("kind",),
        )
        self._m_shard = self._telemetry.counter(
            "serving_shard_events_total",
            "Sharded global solves",
            labels=("event",),
        )
        self._m_latency = self._telemetry.histogram(
            "serving_latency_seconds",
            "Observed serving latency per plan strategy",
            labels=("strategy",),
        )
        # strategy -> handler(query, plan, entry); the keys are exactly
        # planner.STRATEGIES.  See _answer for the shared solve span,
        # latency record and commit.
        self._strategies = {
            "cached": self._solve_cached,
            "incremental": self._solve_incremental,
            "spectral": self._solve_spectral,
            "push": self._solve_push,
            "sharded": self._solve_sharded,
            "batch": self._solve_batch,
        }
        self._outstanding: list[ServingTicket] = []
        # digest -> (tol, ticket) of not-yet-resolved batch submissions,
        # so identical queries in one burst share a single column.
        self._inflight: dict[str, tuple[float, ServingTicket]] = {}
        # Set by warm_start(): {"replayed": ..., "seeded": ...,
        # "pending": ...}.
        self._warm_started: dict | None = None

    @property
    def graph(self) -> BaseGraph:
        """The served graph (mutate only through :meth:`apply_delta`)."""
        return self._graph

    @property
    def coalescer(self) -> MicrobatchCoalescer:
        """The microbatch coalescer batch-planned requests pool through."""
        return self._coalescer

    @property
    def telemetry(self) -> MetricsRegistry:
        """The metrics registry every serving component records into."""
        return self._telemetry

    @property
    def tracer(self) -> Tracer | None:
        """The request tracer, or ``None`` when tracing is off."""
        return self._tracer

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def plan(self, request: RankRequest | None = None, **kwargs) -> QueryPlan:
        """Dry-run planning: explain how a request *would* be served.

        Consults the cache without counting a lookup or touching LRU
        order, and executes nothing.  A cached, pending, spectral or
        wide-seed request builds nothing either, nor does any
        personalised request; only a global ranking that could become
        ``"sharded"`` builds (and caches) the group's sharded operator,
        which that decision reads.
        """
        request = coerce_request(request, kwargs)
        with self._rw.read():
            query = canonical_query(self._graph, request)
            state = self._cache.peek(
                query.digest,
                mutation=self._graph.mutation_count,
                tol=request.tol,
            )
            return self._planner.plan(
                self._graph,
                query,
                cache_state=None if state == "miss" else state,
                shard_state=lambda: self._sharded(query.group_key),
            )

    def submit(
        self, request: RankRequest | None = None, **kwargs
    ) -> ServingTicket:
        """Plan and dispatch one request, returning its ticket.

        ``"batch"``-planned requests are filed with the microbatch
        coalescer and resolve when their window flushes (or on first
        :meth:`ServingTicket.result` read); every other strategy
        resolves immediately.  Observed latencies are recorded per
        strategy in the ``serving_latency_seconds`` histogram.

        With tracing configured (``tracing=True`` / an injected
        :class:`~repro.telemetry.trace.Tracer`) and this request
        sampled, the whole submission runs under a ``rank`` trace whose
        spans cover planning, the solve and the cache commit; a caller
        that already holds an active span (the serving front) keeps it —
        the service then adds its spans to the caller's trace instead of
        starting its own.
        """
        request = coerce_request(request, kwargs)
        trace = None
        if self._tracer is not None and active_span() is None:
            trace = self._tracer.start("rank", method=request.method)
        if trace is None:
            return self._submit_inner(request, None)
        with trace.activate():
            try:
                ticket = self._submit_inner(request, trace)
            except BaseException as exc:
                trace.root.annotate(error=type(exc).__name__)
                trace.finish()
                raise
        if ticket.done:
            # Synchronous strategies completed inside the activation;
            # batch tickets carry the trace and finish at resolution.
            trace.finish()
        return ticket

    def _submit_inner(
        self, request: RankRequest, trace
    ) -> ServingTicket:
        with self._rw.read():
            with child_span("plan") as span:
                query = canonical_query(self._graph, request)
                state, entry = self._cache.lookup(
                    query.digest,
                    mutation=self._graph.mutation_count,
                    tol=request.tol,
                )
                plan = self._planner.plan(
                    self._graph,
                    query,
                    cache_state=None if state == "miss" else state,
                    shard_state=lambda: self._sharded(query.group_key),
                )
                if span is not None:
                    span.annotate(
                        strategy=plan.strategy,
                        reason=plan.reason,
                        cache_state=state,
                    )
            self._m_requests.inc()
            self._m_plans.inc(strategy=plan.strategy)
            if plan.strategy == "batch":
                # The one deferred strategy: the column waits in the
                # coalescer for window-mates and is answered on read.
                return self._defer(query, plan, trace)
            scores = self._answer(query, plan, entry)
            return ServingTicket(
                request, plan, result=ServedResult(scores, plan, request)
            )

    def _answer(self, query: CanonicalQuery, plan: QueryPlan, entry):
        """Run ``plan``'s strategy from the table and commit its answer.

        The strategy runs under the ``solve`` span and its latency
        (cache commit included) lands in ``serving_latency_seconds``.
        A fresh solver result is wrapped and committed here; a
        coalescer column is certified at the graph version its flush
        solved it at (the flush may precede this read, and a mutation
        in between must not let pre-mutation scores pass as
        post-mutation answers), anything else at the current version.
        A fresh result that did not converge is never committed: it
        raises :class:`~repro.errors.ConvergenceError`, so a repeat
        re-solves instead of hitting an uncertified entry.
        """
        start = perf_counter()
        with child_span("solve", strategy=plan.strategy):
            answer = self._strategies[plan.strategy](query, plan, entry)
        if not isinstance(answer, NodeScores):
            if not answer.converged:
                raise _unconverged(answer, query.request.tol)
            answer = NodeScores(self._graph, answer.scores, answer)
            self._commit(
                query,
                answer,
                mutation=(
                    entry.mutation
                    if isinstance(entry, CoalescerTicket)
                    else self._graph.mutation_count
                ),
            )
        self._m_latency.observe(
            perf_counter() - start, strategy=plan.strategy
        )
        return answer

    def rank(
        self, request: RankRequest | None = None, **kwargs
    ) -> ServedResult:
        """Answer one request synchronously."""
        return self.submit(request, **kwargs).result()

    def rank_many(
        self, requests: Sequence[RankRequest]
    ) -> list[ServedResult]:
        """Answer a burst of requests, coalescing the pooled ones.

        All requests are submitted before any result is read, so
        ``"batch"``-planned requests against one pool fill shared
        microbatch windows (the coalescer auto-flushes full windows and
        the final reads drain partial ones).  The submissions run as a
        coalescer :meth:`~repro.serving.coalescer.MicrobatchCoalescer.
        burst`: a window may take a short tail of the burst's columns
        rather than leave them to a second, narrow block.
        """
        with self._coalescer.burst():
            tickets = [self.submit(request) for request in requests]
        return [ticket.result() for ticket in tickets]

    # ------------------------------------------------------------------
    # strategy execution
    # ------------------------------------------------------------------
    def _bundle(self, group_key: tuple):
        from repro.methods import operator_for  # local: avoids cycle

        return operator_for(self._graph, group_key)

    def _factors(self, group_key: tuple):
        """``group_key``'s memoised transition factors (builds no bundle
        for a factorable key)."""
        from repro.methods import family_method  # local: avoids cycle

        return family_method(group_key).factors(self._graph, group_key)

    def _sharded(self, group_key: tuple):
        """The block-partitioned operator for ``group_key``, or ``None``.

        ``None`` when sharding is off, the graph sits below the size
        floor or the method cannot shard — the planner then never
        chooses ``"sharded"``, so the service degrades to exactly the
        unsharded behaviour.  The operator is built on first use and
        memoised on the graph's mutation-aware cache (via
        :func:`~repro.methods.sharded_operator_for`), whose lock keeps
        concurrent first requests from building it twice; a delta drops
        it.  The planner calls this lazily, so a cached answer never
        builds one.
        """
        if not self._sharding:
            return None
        from repro.methods import family_method, sharded_operator_for
        from repro.shard.operator import DEFAULT_SIZE_FLOOR

        if (
            self._graph.number_of_nodes < DEFAULT_SIZE_FLOOR
            or not family_method(group_key).supports_sharding
        ):
            return None
        return sharded_operator_for(
            self._graph, group_key, n_shards=self._n_shards
        )

    @staticmethod
    def _sparse_pair(
        query: CanonicalQuery,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The cache-resident form of a query's teleport (O(seeds))."""
        if query.seed_idx is None:
            return None
        return (query.seed_idx, query.seed_weights)

    def _dense_teleport(
        self, pair: tuple[np.ndarray, np.ndarray] | None
    ) -> np.ndarray | None:
        if pair is None:
            return None
        return dense_teleport(self._graph.number_of_nodes, pair[0], pair[1])

    def _commit(self, query: CanonicalQuery, scores: NodeScores, *, mutation):
        """Store a fresh answer under a ``cache.commit`` span."""
        request = query.request
        with child_span("cache.commit") as span:
            entry = self._cache.store(
                query.digest,
                scores=scores,
                tol=request.tol,
                mutation=mutation,
                request=request,
                teleport=self._sparse_pair(query),
            )
            if span is not None:
                span.annotate(outcome="stored")
        return entry

    # Each strategy below takes ``(query, plan, entry)`` — ``entry`` is
    # the cache entry for cached/incremental, the coalescer column (or
    # the deduplicated ticket it shares) for batch, else ``None`` — and
    # returns either final ``NodeScores`` or a fresh solver result.

    def _solve_cached(self, query, plan, entry: CacheEntry) -> NodeScores:
        annotate(cache="hit")
        return entry.scores

    def _solve_spectral(self, query: CanonicalQuery, plan, entry):
        """Direct solve for non-batchable (adjacency power-method) methods.

        The answer is cached like any other: the method's recorded
        residual history is its certificate (eigen-residual for
        eigenvector/HITS, successive-L1 for Katz), and because spectral
        methods declare ``supports_incremental=False`` the entry is
        evicted — never residual-corrected — when a delta lands.
        """
        from repro.methods import resolve  # local: avoids cycle

        request = query.request
        return resolve(request.method).solve(
            self._graph,
            query.group_key,
            alpha=request.alpha,
            teleport=query.dense_teleport(),
            tol=request.tol,
            max_iter=self._max_iter,
        )

    def _solve_push(self, query: CanonicalQuery, plan, entry):
        request = query.request
        return forward_push(
            None,
            (query.seed_idx, query.seed_weights),
            alpha=request.alpha,
            tol=request.tol,
            max_iter=self._max_iter,
            dangling=request.dangling,
            operator=self._factors(query.group_key),
        )

    def _solve_sharded(self, query: CanonicalQuery, plan, entry):
        """Serve a global ranking through the sharded block solver."""
        from repro.shard.solver import sharded_solve

        request = query.request
        result = sharded_solve(
            alpha=request.alpha,
            teleport=self._dense_teleport(self._sparse_pair(query)),
            dangling=request.dangling,
            tol=request.tol,
            max_iter=self._max_iter,
            operator=self._bundle(query.group_key),
            sharded=self._sharded(query.group_key),
        )
        self._m_shard.inc(event="sharded_solves")
        return result

    def _solve_incremental(
        self, query: CanonicalQuery, plan, entry: CacheEntry
    ) -> NodeScores:
        request = entry.request
        teleport = self._dense_teleport(entry.teleport)
        # The baseline residual — the previous solve's own truncation
        # dust, frozen by the incremental solver — is derived here from
        # the pre-delta factors captured at delta time and the nodes
        # the deltas touched: one SpMV plus the changed rows.
        pending = entry.pending
        before = nodes = None
        if isinstance(pending, _PendingCorrection):
            before, nodes = pending.factors, pending.nodes
        result = incremental_update(
            None,
            entry.scores.values,
            alpha=request.alpha,
            teleport=teleport,
            dangling=request.dangling,
            tol=entry.tol,
            max_iter=self._max_iter,
            operator=self._factors(request.group_key),
            before=before,
            touched=nodes,
        )
        if not result.converged:
            # An uncertified correction never lands: drop the pending
            # entry so the next request re-plans a fresh solve.
            self._cache.evict(query.digest)
            raise _unconverged(result, entry.tol)
        scores = NodeScores(self._graph, result.scores, result)
        # Token-identity commit: stores only if the entry is still
        # pending on *this* correction token.  The RW barrier already
        # excludes a delta landing mid-correction, so in-service use
        # always resolves cleanly; the token guard is what makes
        # standalone/concurrent cache use safe, and on "stale" the
        # computed answer is still returned (it was solved against the
        # current graph under the read hold) — only caching is skipped.
        with child_span("cache.commit") as span:
            outcome, _resolved = self._cache.resolve_pending(
                query.digest,
                scores=scores,
                tol=entry.tol,
                mutation=self._graph.mutation_count,
                token=pending,
            )
            if span is not None:
                span.annotate(outcome=outcome)
        return scores

    def _solve_batch(self, query, plan, column):
        """Read a coalesced column, flushing its window on demand."""
        if isinstance(column, ServingTicket):
            # Deduplicated: an identical query filed earlier in the
            # burst owns the column and commits its answer.
            annotate(deduplicated=True)
            return column.result().scores
        result = column.result()
        annotate(**{
            key: value
            for key, value in (column.meta or {}).items()
            if value is not None
        })
        return result

    def _defer(
        self, query: CanonicalQuery, plan: QueryPlan, trace
    ) -> ServingTicket:
        """File a batch column with the coalescer; answer it on read.

        An identical query already filed in this burst at an equal or
        stricter tol is shared instead: the new ticket reads that
        ticket's answer rather than solving a redundant column.
        """
        request = query.request
        ticket = ServingTicket(request, plan)
        # The batch resolves on another thread (or later on this one);
        # capture the submitting request's span so the resolver can
        # re-enter it there, and the owned trace so it can finish it.
        parent = active_span()
        with self._lock:
            inflight = self._inflight.get(query.digest)
            shared = inflight is not None and inflight[0] <= request.tol
            if shared:
                column = inflight[1]
            else:
                # Reserve the dedup slot before filing the column
                # (outside this lock), so a concurrent identical
                # submission shares this ticket instead of filing a
                # duplicate.
                self._inflight[query.digest] = (request.tol, ticket)
                self._outstanding.append(ticket)
        if not shared:
            column = self._coalescer.submit(
                query.group_key,
                teleport=query.dense_teleport(),
                alpha=request.alpha,
                tol=request.tol,
            )

        def resolve() -> ServedResult:
            try:
                with self._rw.read(), activate_span(parent):
                    scores = self._answer(query, plan, column)
            finally:
                # Released whether or not the column converged: a failed
                # answer must neither be shared nor block the drain.
                with self._lock:
                    # Identity-guarded: a later submission at a stricter
                    # tol may have replaced this digest's inflight entry
                    # with its own still-unresolved ticket, which must
                    # keep deduping.
                    current = self._inflight.get(query.digest)
                    if current is not None and current[1] is ticket:
                        del self._inflight[query.digest]
                    if ticket in self._outstanding:
                        self._outstanding.remove(ticket)
                if trace is not None:
                    trace.finish()
            return ServedResult(scores, plan, request)

        ticket._set_resolver(resolve)
        return ticket

    def _drain(self) -> None:
        """Resolve every outstanding coalesced ticket (pre-delta barrier)."""
        while True:
            with self._lock:
                outstanding = list(self._outstanding)
            if not outstanding:
                break
            for ticket in outstanding:
                try:
                    ticket.result()
                except ConvergenceError:
                    # Nothing was cached; the submitter reads the error
                    # from its own ticket.
                    pass
        self._coalescer.flush()
        with self._lock:
            self._inflight.clear()

    # ------------------------------------------------------------------
    # streaming mutations
    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> dict:
        """Apply a :class:`~repro.graph.delta.GraphDelta` through the service.

        The serving-layer mutation door: the exclusive side of the
        readers/writer barrier is taken (in-flight solves finish, new
        ones wait), outstanding microbatches are drained (their answers
        belong to the pre-delta graph and are cached as such), then, for
        a **localized** delta (touching at most ``localized_fraction``
        of the nodes), each live cached answer captures its group's
        pre-delta factors and the delta's endpoints *before* the delta
        lands.  The factors are memoised per graph version (the cached
        adjacency plus two O(n) vectors), so the capture builds no
        transition.  The next request for that answer corrects it by
        residual push at a fraction of a cold solve: one full residual
        on the new factors plus the rows the delta changed.  An entry
        still pending from an earlier delta is chained: it keeps the
        factors it was certified on under a fresh token, with the
        union of the touched nodes, so one correction covers every
        delta since.  It is evicted instead when its transition group
        captured live entries at this delta (one retained adjacency per
        group) or when the endpoints touched since certification exceed
        ``localized_fraction`` of the nodes.  De-localised deltas and
        node inserts/deletes evict the cache (classic semantics).  The
        delta itself goes through
        :meth:`~repro.graph.base.BaseGraph.apply_delta`, which splices
        the graph's CSR edge store and drops every derived entry.

        Raises exactly what ``graph.apply_delta`` raises (frozen graph,
        missing edges, bad indices); on any failure the graph and every
        cached answer are unchanged.  The frozen-graph check runs before
        outstanding microbatches are drained; a delta rejected by deeper
        validation (e.g. deleting a missing edge) may still have drained
        them first — the drained answers are valid pre-delta results and
        are cached as such, so no stale data can be served either way.
        Returns the graph-level delta stats.
        """
        if not isinstance(delta, GraphDelta):
            raise ParameterError(
                f"apply_delta expects a GraphDelta, got {type(delta).__name__}"
            )
        if delta.size == 0:
            return self._graph.apply_delta(delta)
        with self._rw.write():
            self._graph._check_mutable()  # fail before paying the drain
            self._drain()
            graph = self._graph
            budget = max(1.0, self._localized_fraction * graph.number_of_nodes)
            endpoints = delta.endpoints()
            touched = int(endpoints.size)
            # Node inserts/deletes renumber (or resize) the score index
            # space, so no cached vector can be residual-corrected across
            # them — always take the evicting path.
            localized = not delta.has_node_ops and touched <= budget

            prepared: list[tuple[str, _PendingCorrection]] = []
            stale: list[str] = []
            if localized:
                from repro.methods import resolve  # local: avoids cycle

                mutation = graph.mutation_count
                captured: dict[tuple, object] = {}
                for digest, entry in self._cache.live_entries():
                    if entry.mutation != mutation:
                        stale.append(digest)
                        continue
                    # Residual correction assumes the stochastic fixed
                    # point; methods without it (spectral family) are
                    # evicted and re-solved on next access instead.
                    if not resolve(
                        entry.request.method
                    ).supports_incremental:
                        stale.append(digest)
                        continue
                    # Retain the group's memoised pre-delta factors
                    # (built once per graph version, shared by the
                    # group's entries; no transition is built); the
                    # baseline residual is derived from them when the
                    # entry is next requested.
                    group = entry.request.group_key
                    if group not in captured:
                        captured[group] = self._factors(group)
                    token = _PendingCorrection(
                        captured[group], touched, endpoints
                    )
                    prepared.append((digest, token))
                # An entry still pending from an earlier delta chains:
                # a fresh token keeps the factors it was certified on
                # and the union of the touched nodes, from which the
                # exact old-system baseline still follows, so one
                # correction covers the composite delta.  It is evicted
                # when its group captured newer factors above (one
                # retained adjacency per group) or when the chain has
                # touched more than a localized delta may.
                for digest, entry in self._cache.pending_entries():
                    token = entry.pending
                    if (
                        entry.mutation != mutation
                        or not isinstance(token, _PendingCorrection)
                        or entry.request.group_key in captured
                        or token.touched + touched > budget
                    ):
                        stale.append(digest)
                        continue
                    chained = _PendingCorrection(
                        token.factors,
                        token.touched + touched,
                        np.union1d(token.nodes, endpoints),
                    )
                    prepared.append((digest, chained))

            # Raises → nothing committed (and nothing logged: the graph
            # commit precedes the log tee inside apply_graph_delta).
            stats = graph.apply_delta(delta, log=self._delta_log)
            self._m_deltas.inc(kind="applied")
            self._m_deltas.inc(
                kind="localized" if localized else "evicting"
            )
            if localized:
                mutation = graph.mutation_count
                for digest in stale:
                    self._cache.evict(digest)
                for digest, token in prepared:
                    self._cache.mark_pending(
                        digest, token, mutation=mutation
                    )
            else:
                self._cache.evict_all()
            # Log-compaction policy: still inside the write hold, so the
            # snapshot sees exactly the post-delta graph and no request
            # can slip between the delta and the truncation.
            due, _why = self._compaction_due()
            if due:
                self._checkpoint_locked(self._checkpoint_path)
                self._m_deltas.inc(kind="compactions")
            return stats

    # ------------------------------------------------------------------
    # persistence: checkpoint + warm restart
    # ------------------------------------------------------------------
    _CHECKPOINT_FORMAT = "repro-service-checkpoint"
    _CHECKPOINT_VERSION = 1

    def checkpoint(
        self, path: str | Path | None = None, *, auto: bool = False
    ) -> dict:
        """Persist the served graph and warm-start state under ``path``.

        Under the exclusive side of the readers/writer barrier (in-flight
        solves finish, outstanding microbatches drain), writes:

        * ``path/graph/`` — the graph snapshot
          (:func:`~repro.graph.persist.save_snapshot`);
        * ``path/service.pkl`` — the warm-start state: every certified
          current-version cache entry (digest, raw score vector, tol,
          request, sparse teleport), which :meth:`warm_start` re-seeds
          so a restart answers them without building any operator;
        * ``path/deltas.log`` — an **armed, empty**
          :class:`~repro.graph.persist.DeltaLog`: the snapshot has
          absorbed everything logged so far (the log is truncated), and
          every delta applied after this checkpoint is teed into it, so
          a warm restart replays exactly the un-checkpointed tail.  A
          service constructed with its own ``delta_log`` keeps (and
          truncates) that log; its path is recorded in the state file.

        ``path`` may be omitted after the first checkpoint — the last
        checkpoint directory is reused.  With ``auto=True`` the
        checkpoint is **conditional**: it only runs when the armed
        delta log has grown past ``compact_threshold`` × the last
        snapshot's byte size (the log-compaction policy — the same
        check :meth:`apply_delta` performs automatically after every
        delta when ``compact_threshold`` is set), and the returned dict
        says whether it ran (``"compacted"``) and why not otherwise.

        Returns a summary dict (nodes, edges, cached entries, log path).
        """
        if path is None:
            path = self._checkpoint_path
            if path is None:
                raise ParameterError(
                    "no previous checkpoint to reuse; pass checkpoint(path)"
                )
        path = Path(path)
        with self._rw.write():
            if auto:
                due, why = self._compaction_due()
                if not due:
                    return {"compacted": False, "reason": why}
            summary = self._checkpoint_locked(path)
        if auto:
            summary["compacted"] = True
            self._m_deltas.inc(kind="compactions")
        return summary

    def _compaction_due(self) -> tuple[bool, str]:
        """Whether the armed log has outgrown the compaction threshold.

        Caller holds the write (or is otherwise exclusive); reads the
        log's on-disk payload size against ``compact_threshold`` × the
        last snapshot's byte size.
        """
        if self._compact_threshold is None:
            return False, "no compact_threshold configured"
        if self._delta_log is None:
            return False, "no delta log armed"
        if self._snapshot_bytes is None or self._checkpoint_path is None:
            return False, "no checkpoint written yet"
        log_bytes = self._delta_log.size
        budget = self._compact_threshold * self._snapshot_bytes
        if log_bytes <= budget:
            return False, (
                f"log {log_bytes}B within budget {budget:.0f}B "
                f"({self._compact_threshold:g} of snapshot "
                f"{self._snapshot_bytes}B)"
            )
        return True, (
            f"log {log_bytes}B exceeds budget {budget:.0f}B"
        )

    def _checkpoint_locked(self, path: Path) -> dict:
        """Checkpoint body; caller holds the exclusive (write) side."""
        self._drain()
        path.mkdir(parents=True, exist_ok=True)
        snapshot = save_snapshot(self._graph, path / "graph")
        mutation = self._graph.mutation_count
        entries: list[tuple[str, dict]] = []
        for digest, entry in self._cache.live_entries():
            if entry.mutation != mutation:
                continue
            entries.append(
                (
                    digest,
                    {
                        "values": np.array(
                            entry.scores.values, dtype=np.float64
                        ),
                        "tol": float(entry.tol),
                        "request": entry.request,
                        "teleport": entry.teleport,
                    },
                )
            )
        if self._delta_log is None:
            self._delta_log = DeltaLog(path / "deltas.log")
        self._delta_log.truncate()
        state = {
            "format": self._CHECKPOINT_FORMAT,
            "version": self._CHECKPOINT_VERSION,
            # The entries below were certified on exactly this snapshot;
            # warm_start seeds them only while its id is still on disk.
            "snapshot_id": snapshot_id(snapshot),
            "nodes": self._graph.number_of_nodes,
            "edges": self._graph.number_of_edges,
            "log_path": str(self._delta_log.path),
            "entries": entries,
        }
        tmp = path / "service.pkl.tmp"
        with open(tmp, "wb") as handle:
            pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
        tmp.replace(path / "service.pkl")
        # Remember the directory and snapshot footprint so the
        # compaction policy (and path-less re-checkpoints) can
        # compare the armed log against what a fresh snapshot costs.
        self._checkpoint_path = path
        self._snapshot_bytes = sum(
            f.stat().st_size
            for f in (path / "graph").iterdir()
            if f.is_file()
        )
        return {
            "path": str(path),
            "nodes": state["nodes"],
            "edges": state["edges"],
            "entries": len(entries),
            "log": state["log_path"],
            "snapshot_bytes": self._snapshot_bytes,
        }

    @classmethod
    def warm_start(
        cls,
        path: str | Path,
        *,
        backend=None,
        **options,
    ) -> "RankingService":
        """Restore a service from a :meth:`checkpoint` directory.

        Loads the graph snapshot (``backend`` picks the storage backend,
        e.g. ``"mmap"`` for a zero-copy memory-mapped restore) and
        constructs the service (``options`` are the normal constructor
        options — service configuration is not persisted).  When the
        snapshot on disk is the one the state file names (same
        ``snapshot_id``), the checkpointed cache entries are re-seeded:
        the restored graph is bit-identical to the one the answers were
        certified on.  A snapshot rewritten by a checkpoint that crashed
        before its state file landed, or a state file without an id,
        seeds nothing; correctness never depends on seeding.

        Then the deltas the checkpoint's log accumulated are replayed
        through :meth:`apply_delta`, exactly as the live service applied
        them: a localized edge-only tail leaves the seeded answers
        pending one chained incremental correction, node ops and
        de-localised deltas evict them.  The log is armed only
        afterwards, so replayed records are not appended again and no
        compaction fires.  A request that must solve builds its bundle
        (and, with ``sharding=True``, its block-partitioned operator) on
        first use, as in a fresh service.  The list of groups an older
        checkpoint's state file carries is ignored.

        The restored service keeps the checkpoint's delta log armed, so
        the checkpoint → mutate → warm-start cycle composes.
        """
        if "delta_log" in options:
            raise ParameterError(
                "warm_start re-arms the checkpoint's own delta log; "
                "delta_log cannot be overridden here"
            )
        path = Path(path)
        state_path = path / "service.pkl"
        try:
            with open(state_path, "rb") as handle:
                state = pickle.load(handle)
        except FileNotFoundError:
            raise ReproError(
                f"{path} is not a service checkpoint (no service.pkl)"
            ) from None
        if (
            not isinstance(state, dict)
            or state.get("format") != cls._CHECKPOINT_FORMAT
        ):
            raise ReproError(f"{state_path} is not a service checkpoint")
        graph = load_snapshot(path / "graph", backend=backend)
        service = cls(graph, **options)
        seeded = 0
        certified_on = state.get("snapshot_id")
        if certified_on is not None and certified_on == snapshot_id(
            path / "graph"
        ):
            mutation = graph.mutation_count
            for digest, record in state.get("entries", ()):
                service._cache.store(
                    digest,
                    scores=NodeScores(graph, record["values"]),
                    tol=record["tol"],
                    mutation=mutation,
                    request=record["request"],
                    teleport=record["teleport"],
                )
                seeded += 1
        log = None
        replayed = 0
        log_path = state.get("log_path")
        if log_path and Path(log_path).exists():
            log = DeltaLog(log_path)
            replayed = int(log.replay(service)["records"])
        # Arm the log and the compaction baseline: the restored service
        # tees its own deltas and keeps auto-compacting against the
        # checkpoint it was started from.
        service._delta_log = log
        service._checkpoint_path = path
        service._snapshot_bytes = sum(
            f.stat().st_size
            for f in (path / "graph").iterdir()
            if f.is_file()
        )
        service._warm_started = {
            "replayed": replayed,
            "seeded": seeded,
            "pending": service._cache.stats()["pending"],
        }
        return service

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving health: plan mix, cache, batching, deltas, latencies.

        A backwards-compatible **view over the telemetry registry** —
        every number here is also published (under its ``serving_*`` /
        ``cache_*`` / ``coalescer_*`` family name) by
        ``service.telemetry.snapshot()`` and the Prometheus/JSON
        exporters.
        """
        cache = self._cache.stats()
        plan_mix = {
            dict(labels)["strategy"]: int(value)
            for labels, value in self._m_plans.values().items()
        }
        deltas = {
            "applied": 0,
            "localized": 0,
            "evicting": 0,
            "compactions": 0,
        }
        for labels, value in self._m_deltas.values().items():
            deltas[dict(labels)["kind"]] = int(value)
        shard_stats = {
            # Always 0; kept only because existing readers index them.
            "shard_push_local": 0,
            "shard_push_fallback": 0,
            "sharded_solves": 0,
        }
        for labels, value in self._m_shard.values().items():
            shard_stats[dict(labels)["event"]] = int(value)
        return {
            "requests": int(self._m_requests.value()),
            "plan_mix": plan_mix,
            "cache": cache,
            "hit_rate": cache["hit_rate"],
            "coalescer": self._coalescer.stats(),
            "deltas": deltas,
            "latency": {
                dict(labels)["strategy"]: summary
                for labels, summary in self._m_latency.summaries().items()
            },
            "sharding": {
                "enabled": self._sharding,
                **shard_stats,
            },
            "warm_start": self._warm_started,
        }

    def degree_rank(
        self, request: RankRequest | None = None, *, tail_fraction: float = 0.25
    ):
        """Serve ``request`` and profile its degree↔rank coupling.

        Stats-style analytics companion to :meth:`rank`: the request is
        answered through the normal planned/cached path, then the scores
        are profiled with
        :func:`repro.diagnostics.degree_rank_profile` — Spearman
        degree↔score correlation, log–log Pearson coupling and the
        power-law tail fit of the score distribution.  Returns a
        :class:`~repro.diagnostics.DegreeRankProfile` tagged with the
        request's method name (``profile.summary()`` gives the flat
        dict view).
        """
        from repro.diagnostics import degree_rank_profile

        request = request if request is not None else RankRequest()
        served = self.rank(request)
        return degree_rank_profile(
            self._graph,
            served.scores,
            weighted=bool(request.weighted),
            tail_fraction=tail_fraction,
            method=request.method,
        )

    def close(self) -> None:
        """Release nothing: the service holds no resource of its own.

        Its operators live in the graph's cache, which a delta or the
        graph's own lifetime bounds.  Kept so the service is a context
        manager; idempotent.
        """

    def __enter__(self) -> "RankingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
