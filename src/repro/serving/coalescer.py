"""Microbatch coalescing of concurrent ranking requests.

One personalised query against a 20M-edge graph streams the whole
transition once per power sweep; sixteen queries over the *same*
adjacency can share every one of those streams
(:func:`~repro.linalg.power_iteration_batch` advances an ``n × K`` block
with one sparse·dense multiply per sweep).  A group is an **adjacency
pool**, not a transition: every D2PR transition with β ∈ {0, 1} (and
its fatigued rescale) is ``diag(r)·M·diag(c)`` over one adjacency ``M``
(:meth:`~repro.methods.base.CentralityMethod.factors`), so a whole ``p``
grid solves as one block.  The coalescer is the serving piece that
turns request traffic into those blocks:

* :meth:`MicrobatchCoalescer.submit` files one column — a ``(teleport,
  alpha)`` pair under a transition-group key — into the group of the
  key's pool (:meth:`~repro.methods.base.CentralityMethod.pool_key`) and
  tolerance, and returns a :class:`CoalescerTicket` immediately;
* a group **auto-flushes** when it reaches the configured ``window``
  (the flush threshold / block width, which also caps the dense block
  memory at ``O(n · window)``); inside a :meth:`~MicrobatchCoalescer.
  burst` (a caller that submits many columns before reading any) a
  full window waits for up to ``window // 8`` more columns, so a
  burst one column past the window solves as one block instead of
  leaving that column to sweep alone;
* :meth:`flush` (or reading an unflushed ticket's :meth:`~CoalescerTicket.
  result`, which flushes its group on demand) drains partial windows, so
  a caller can never deadlock on an underfull batch.

Columns are solved in submission order and always from a cold start.
A flush resolves each distinct key's factors once; a key that does not
factor on the current graph (its ``θ^{-p}`` spread leaves float64
range) solves in its own block on its materialised transition.  When
every column of a block shares one teleport and one transition, the
batch solver's α-family fast path reconstructs the whole block from a
single power sequence, whatever the column order.  A group's state is
only its pending columns and its count of in-flight solves; it is
dropped as soon as both are empty, so an idle coalescer holds no
groups.

Thread safety
-------------
The coalescer serves two call patterns.  The original synchronous one —
a single loop submitting many requests before reading any result — still
works unchanged.  Under the concurrent front
(:class:`~repro.serving.front.ServingFront`) several worker threads
submit, flush and read tickets at once; the coalescer is safe for that
because all bookkeeping (group tables, pending lists, ticket resolution,
counters) happens under one internal condition variable, while the
**batched solves themselves run outside the lock**:
a flush atomically takes ownership of its group's pending columns, marks
the group *solving*, releases the lock for the solve, and re-acquires it
to deliver results and wake waiters.  Consequences worth knowing:

* two threads can solve two different flushes concurrently (even of the
  same group, when columns arrived between the takes);
* a thread reading a ticket whose column is being solved by another
  thread's flush **waits** on the condition variable instead of
  double-solving;
* submission during a flush files into the group's fresh pending list
  and never blocks on the solve.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from repro.errors import ParameterError, ReproError
from repro.graph.base import BaseGraph
from repro.linalg.batch import power_iteration_batch
from repro.linalg.solvers import PageRankResult
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CoalescerTicket", "MicrobatchCoalescer"]


@dataclass
class _Column:
    group_key: tuple
    teleport: np.ndarray | None
    alpha: float
    ticket: "CoalescerTicket"
    filed_at: float


class CoalescerTicket:
    """Handle for one submitted column; resolves when its group flushes."""

    __slots__ = ("_coalescer", "_group", "_result", "_mutation", "_meta")

    def __init__(self, coalescer: "MicrobatchCoalescer", group: tuple) -> None:
        self._coalescer = coalescer
        self._group = group
        self._result: PageRankResult | None = None
        self._mutation: int | None = None
        self._meta: dict | None = None

    @property
    def done(self) -> bool:
        """Whether the column's batch has been solved."""
        with self._coalescer._cv:
            return self._result is not None

    @property
    def mutation(self) -> int:
        """Graph mutation count the column was **solved** at.

        Captured inside the flush, so an answer computed before a
        mutation landed is never mistaken for one certified after it —
        the result-cache stamps entries with this, not with whatever the
        counter says when the ticket happens to be read.
        """
        if self._mutation is None:
            self.result()
        return self._mutation

    @property
    def meta(self) -> dict | None:
        """Flush telemetry for this column, once solved.

        ``flush_cause``, ``batch_occupancy``, ``batch_method``,
        ``queue_wait`` (seconds pending before the flush took the
        column), ``iterations`` and final ``residual`` of this column —
        the facts the serving layer copies into the request's solve
        span.  ``None`` until the column's batch has been delivered.
        """
        with self._coalescer._cv:
            return self._meta

    def result(self) -> PageRankResult:
        """The column's solution, flushing its group first if needed.

        When another thread's in-flight flush already owns this column,
        the call waits for that solve instead of starting a second one.
        """
        coalescer = self._coalescer
        while True:
            with coalescer._cv:
                if self._result is not None:
                    return self._result
                state = coalescer._groups.get(self._group)
                mine_pending = state is not None and any(
                    column.ticket is self for column in state.pending
                )
                if not mine_pending:
                    if state is not None and state.solving > 0:
                        # Another thread's flush took my column; wait for
                        # its delivery instead of re-solving.
                        coalescer._cv.wait()
                        continue
                    raise ReproError(  # pragma: no cover - defensive
                        "coalescer flush did not resolve this ticket"
                    )
            # My column is still pending: drive the flush ourselves (the
            # solve runs outside the condition variable; if another
            # thread races us to it, the next loop iteration waits).
            coalescer._flush_group(self._group)


def _column_scales(keys: list[tuple], factors, members: list[_Column]):
    """``(r, c)`` of one block's members, as the batch kernel takes them.

    ``factors`` hold one column per key of ``keys``.  A block of one key
    gets ``(n,)`` vectors, a block whose columns are its keys in order
    gets the factor blocks as they are, and any other block one column
    per member.
    """
    idx = np.array([keys.index(c.group_key) for c in members])

    def pick(block):
        if block is None or block.ndim == 1:
            return block
        if len(keys) == 1:
            return block[:, 0]
        if idx.size == len(keys) and (idx == np.arange(idx.size)).all():
            return block
        return block.take(idx, axis=1)

    if factors.row is None:
        return None  # a materialised transition: unit scales
    return pick(factors.row), pick(factors.col)


@dataclass
class _GroupState:
    pending: list[_Column] = field(default_factory=list)
    #: Number of in-flight flush solves currently owning columns of this
    #: group; ticket readers wait while non-zero, and the group is never
    #: dropped while a solve is out.
    solving: int = 0


class MicrobatchCoalescer:
    """Collects same-adjacency ranking requests into batched solves.

    Parameters
    ----------
    graph:
        The served graph; transition matrices and operator bundles
        resolve through its mutation-aware cache, so a flush after a
        :class:`~repro.graph.delta.GraphDelta` transparently uses the
        operator rebuilt on the new adjacency.
    window:
        Flush threshold and maximum block width (K) per solve.  Also the
        dense-memory cap: one flush holds ``O(n · window)`` floats.
    max_iter:
        Per-flush iteration budget.
    metrics:
        Telemetry registry for the flush counters (cause-labelled),
        column totals and occupancy gauges; ``None`` creates a private
        registry.  The service passes its own so one export covers the
        whole stack.
    """

    def __init__(
        self,
        graph: BaseGraph,
        *,
        window: int = 16,
        max_iter: int = 1000,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window < 1:
            raise ParameterError(f"window must be >= 1, got {window}")
        self._graph = graph
        self.window = window
        self.max_iter = max_iter
        # One condition variable (over a non-reentrant lock: no method
        # nests acquisition) guards every piece of mutable state below;
        # flush solves run outside it and notify on delivery.
        self._cv = threading.Condition()
        self._groups: dict[tuple, _GroupState] = {}
        self._local = threading.local()  # .burst: inside burst()
        # Flush counters live in the telemetry registry (atomic under
        # the counter family's leaf lock) instead of bare ints mutated
        # under the condition variable — exports never tear them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_flushes = self.metrics.counter(
            "coalescer_flushes_total",
            "Batched flushes by trigger cause",
            labels=("cause",),
        )
        self._m_columns = self.metrics.counter(
            "coalescer_columns_total", "Columns solved through flushes"
        )
        self._g_occupancy = self.metrics.gauge(
            "coalescer_max_occupancy", "Widest flushed block so far"
        )
        self._g_occupancy.set(0)
        self.metrics.gauge(
            "coalescer_pending", "Columns filed but not yet solved"
        ).set_function(lambda: self.pending)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        group_key: tuple,
        *,
        teleport: np.ndarray | None,
        alpha: float,
        tol: float,
    ) -> CoalescerTicket:
        """File one column for ``group_key`` and return its ticket.

        ``group_key`` is the planner's family-tagged transition-group
        key (``RankRequest.group_key``, built by the method registry —
        e.g. ``("d2pr", p, beta, weighted, dangling)``).  The column
        joins the group ``(*pool_key, tol)``: every key over one
        adjacency and dangling strategy shares it, and ``tol`` keeps
        columns solved to different accuracies out of one block (a
        block converges per column, but its certificate is per flush).
        Reaching ``window`` pending columns auto-flushes the group
        (``window + window // 8`` inside a :meth:`burst`, which then
        flushes ``window`` of them).
        """
        if not (np.isfinite(tol) and tol > 0.0):
            raise ParameterError(f"tol must be positive, got {tol}")
        if not 0.0 <= alpha < 1.0:
            # Validate here, not at flush: a bad column must fail its
            # own submit instead of poisoning a whole batched block.
            raise ParameterError(f"alpha must be in [0, 1), got {alpha}")
        if teleport is not None:
            t = np.asarray(teleport)
            if not (np.isfinite(t).all() and (t >= 0).all() and t.sum() > 0):
                raise ParameterError(
                    "teleport must be non-negative and finite with "
                    "positive mass"
                )
        from repro.methods import family_method  # local: avoids cycle

        key = (*family_method(group_key).pool_key(group_key), float(tol))
        with self._cv:
            state = self._groups.setdefault(key, _GroupState())
            ticket = CoalescerTicket(self, key)
            state.pending.append(
                _Column(
                    group_key=group_key,
                    teleport=teleport,
                    alpha=float(alpha),
                    ticket=ticket,
                    filed_at=monotonic(),
                )
            )
            width = None
            if getattr(self._local, "burst", False):
                if len(state.pending) > self.window + self.window // 8:
                    width = self.window
            elif len(state.pending) >= self.window:
                width = len(state.pending)
        if width is not None:
            self._flush_group(key, cause="window", width=width)
        return ticket

    @contextmanager
    def burst(self):
        """Hold this thread's window flushes for a short tail.

        For a caller that submits a whole burst before reading a ticket
        (:meth:`~repro.serving.service.RankingService.rank_many`): a
        group's full window waits for up to ``window // 8`` more
        columns, and the reads then flush it as one block, which still
        counts as a ``window`` flush.  A window and its left-over column
        would otherwise be two solves, the second at single-column
        rate (the 17-point p grid at the default window of 16).
        """
        outer = getattr(self._local, "burst", False)
        self._local.burst = True
        try:
            yield
        finally:
            self._local.burst = outer

    def _pending_locked(self) -> int:
        return sum(len(s.pending) for s in self._groups.values())

    @property
    def pending(self) -> int:
        """Columns filed but not yet solved, across all groups."""
        with self._cv:
            return self._pending_locked()

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush(self, group: tuple | None = None) -> None:
        """Solve pending columns — one group, or every group."""
        if group is not None:
            self._flush_group(group)
            return
        with self._cv:
            keys = list(self._groups)
        for key in keys:
            self._flush_group(key)

    def _flush_group(
        self, key: tuple, cause: str = "demand", width: int | None = None
    ) -> None:
        """Take ownership of ``key``'s pending columns and solve them.

        ``width`` caps the columns taken (the oldest first; default
        all).  A flush of at least ``window`` columns counts as a
        ``window`` flush, whatever triggered it.  The solve runs outside
        the condition variable: concurrent submits keep filing into the
        group, concurrent flushes of *other* pending columns proceed
        independently, and ticket readers wait on the ``solving`` marker.
        """
        with self._cv:
            state = self._groups.get(key)
            if state is None or not state.pending:
                return
            columns = state.pending[:width]
            state.pending = state.pending[len(columns):]
            if len(columns) >= self.window:
                cause = "window"
            state.solving += 1
            taken_at = monotonic()
        try:
            blocks = self._solve(columns, tol=key[-1], dangling=key[-2])
            solved_at = self._graph.mutation_count
        except BaseException:
            # Restore the columns so a failed solve (solver error,
            # interrupt) never strands unresolved tickets; the next
            # flush retries them.
            with self._cv:
                state.pending = columns + state.pending
                state.solving -= 1
                self._cv.notify_all()
            raise
        with self._cv:
            for members, batch in blocks:
                for j, column in enumerate(members):
                    column.ticket._result = batch.column(j)
                    column.ticket._mutation = solved_at
                    residuals = batch.residuals[j]
                    column.ticket._meta = {
                        "flush_cause": cause,
                        "batch_occupancy": len(members),
                        "batch_method": batch.method,
                        "queue_wait": max(0.0, taken_at - column.filed_at),
                        "iterations": int(batch.iterations[j]),
                        "residual": (
                            float(residuals[-1]) if residuals else None
                        ),
                    }
            state.solving -= 1
            if not state.pending and not state.solving:
                del self._groups[key]
            # Counter locks are leaves (see docs/serving.md
            # § Concurrency): incrementing under the condition variable
            # keeps delivery and accounting atomic for ticket readers.
            self._m_flushes.inc(cause=cause)
            self._m_columns.inc(len(columns))
            self._g_occupancy.set_max(max(len(m) for m, _ in blocks))
            self._cv.notify_all()

    def _solve(self, columns: list[_Column], *, tol: float, dangling: str):
        """Solve a flush as one block per pool its keys factor into.

        Returns ``[(columns, BatchResult)]``.  The factors of all the
        flush's distinct keys are resolved in one call
        (:meth:`~repro.methods.base.CentralityMethod.pooled_factors`), on
        the current graph; normally they all land in the group's own
        pool and the flush is one block.
        """
        from repro.methods import family_method  # local: avoids cycle

        keys = list(dict.fromkeys(c.group_key for c in columns))
        method = family_method(keys[0])
        blocks = []
        for pooled, factors in method.pooled_factors(self._graph, keys):
            members = [c for c in columns if c.group_key in pooled]
            batch = power_iteration_batch(
                factors.mat.mat,
                teleports=[c.teleport for c in members],
                alphas=np.array([c.alpha for c in members]),
                tol=tol,
                max_iter=self.max_iter,
                dangling=dangling,
                operator=factors.mat,
                reversible=all(
                    family_method(key).reversible(self._graph, key)
                    for key in pooled
                ),
                scales=_column_scales(pooled, factors, members),
            )
            blocks.append((members, batch))
        return blocks

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Flush counters and batch-occupancy summary (O(1) state).

        A backwards-compatible view over the telemetry registry — the
        exporters publish the same numbers under the
        ``coalescer_*`` names.
        """
        causes = {"window": 0, "demand": 0}
        for labels, value in self._m_flushes.values().items():
            causes[dict(labels)["cause"]] = int(value)
        flushes = sum(causes.values())
        columns = int(self._m_columns.value())
        with self._cv:
            pending = self._pending_locked()
        return {
            "window": self.window,
            "flushes": flushes,
            "columns": columns,
            "pending": pending,
            "mean_occupancy": columns / flushes if flushes else 0.0,
            "max_occupancy": int(self._g_occupancy.value()),
            "flush_causes": causes,
        }
