"""Microbatch coalescing of concurrent ranking requests.

One personalised query against a 20M-edge graph streams the whole
transition once per power sweep; sixteen queries against the *same*
transition can share every one of those streams
(:func:`~repro.linalg.power_iteration_batch` advances an ``n × K`` block
with one sparse·dense multiply per sweep).  The coalescer is the serving
piece that turns request traffic into those blocks:

* :meth:`MicrobatchCoalescer.submit` files one column — a ``(teleport,
  alpha)`` pair under a transition-group key — and returns a
  :class:`CoalescerTicket` immediately;
* a group **auto-flushes** when it reaches the configured ``window``
  (the flush threshold / maximum block width, which also caps the dense
  block memory at ``O(n · window)``);
* :meth:`flush` (or reading an unflushed ticket's :meth:`~CoalescerTicket.
  result`, which flushes its group on demand) drains partial windows, so
  a caller can never deadlock on an underfull batch.

Columns are solved in submission order and always from a cold start.
When every column of a flush shares one teleport, the batch solver's
α-family fast path reconstructs the whole block from a single power
sequence, whatever the column order.  A group's state is only its
pending columns and its count of in-flight solves; it is dropped as soon
as both are empty, so an idle coalescer holds no groups.

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


@dataclass
class _GroupState:
    pending: list[_Column] = field(default_factory=list)
    #: Number of in-flight flush solves currently owning columns of this
    #: group; ticket readers wait while non-zero, and the group is never
    #: dropped while a solve is out.
    solving: int = 0


class MicrobatchCoalescer:
    """Collects same-transition ranking requests into batched solves.

    Parameters
    ----------
    graph:
        The served graph; transition matrices and operator bundles
        resolve through its mutation-aware cache, so a flush after a
        :class:`~repro.graph.delta.GraphDelta` transparently uses the
        delta-refreshed operator.
    window:
        Flush threshold and maximum block width (K) per solve.  Also the
        dense-memory cap: one flush holds ``O(n · window)`` floats.
    precision:
        Forwarded to :func:`~repro.linalg.power_iteration_batch`
        (``"double"`` or the float32-sweep ``"mixed"`` serving mode).
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
        precision: str = "double",
        max_iter: int = 1000,
        clamp_min: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if window < 1:
            raise ParameterError(f"window must be >= 1, got {window}")
        if precision not in ("double", "mixed"):
            raise ParameterError(
                f"precision must be 'double' or 'mixed', got {precision!r}"
            )
        self._graph = graph
        self.window = window
        self.precision = precision
        self.max_iter = max_iter
        self.clamp_min = clamp_min
        # One condition variable (over a non-reentrant lock: no method
        # nests acquisition) guards every piece of mutable state below;
        # flush solves run outside it and notify on delivery.
        self._cv = threading.Condition()
        self._groups: dict[tuple, _GroupState] = {}
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
        """File one column under ``group_key`` and return its ticket.

        ``group_key`` is the planner's family-tagged transition-group
        key (``RankRequest.group_key``, built by the method registry —
        e.g. ``("d2pr", p, beta, weighted, dangling)``); ``tol`` joins
        it internally so
        columns solved to different accuracies never share a block (a
        block converges per column, but its certificate is per flush).
        Reaching ``window`` pending columns auto-flushes the group.
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
        key = (*group_key, float(tol))
        with self._cv:
            state = self._groups.setdefault(key, _GroupState())
            ticket = CoalescerTicket(self, key)
            state.pending.append(
                _Column(
                    teleport=teleport,
                    alpha=float(alpha),
                    ticket=ticket,
                    filed_at=monotonic(),
                )
            )
            window_full = len(state.pending) >= self.window
        if window_full:
            self._flush_group(key, cause="window")
        return ticket

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

    def _flush_group(self, key: tuple, cause: str = "demand") -> None:
        """Take ownership of ``key``'s pending columns and solve them.

        The solve runs outside the condition variable: concurrent
        submits keep filing into the group, concurrent flushes of
        *other* pending columns proceed independently, and ticket
        readers wait on the ``solving`` marker.
        """
        from repro.methods import operator_for  # local: avoids cycle

        with self._cv:
            state = self._groups.get(key)
            if state is None or not state.pending:
                return
            columns = state.pending
            state.pending = []
            state.solving += 1
            taken_at = monotonic()
        group_key, tol = tuple(key[:-1]), key[-1]
        dangling = group_key[-1]
        try:
            bundle = operator_for(
                self._graph, group_key, clamp_min=self.clamp_min
            )
            batch = power_iteration_batch(
                bundle.mat,
                teleports=[c.teleport for c in columns],
                alphas=np.array([c.alpha for c in columns]),
                tol=tol,
                max_iter=self.max_iter,
                dangling=dangling,
                precision=self.precision,
                operator=bundle,
            )
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
            for j, column in enumerate(columns):
                column.ticket._result = batch.column(j)
                column.ticket._mutation = solved_at
                residuals = batch.residuals[j]
                column.ticket._meta = {
                    "flush_cause": cause,
                    "batch_occupancy": len(columns),
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
            self._g_occupancy.set_max(len(columns))
            self._cv.notify_all()

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
