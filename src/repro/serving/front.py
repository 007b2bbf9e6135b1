"""The concurrent serving front: a worker pool behind bounded admission.

:class:`~repro.serving.RankingService` is thread-safe but *passive* —
every caller brings its own thread and blocks through its own solve.
:class:`ServingFront` puts an active request path in front of it:

* **admission** — each incoming request is validated and offered to
  an :class:`~repro.serving.admission.AdmissionController`, a bounded
  FIFO queue: a full queue or a closed front rejects with an explicit
  :class:`~repro.errors.AdmissionError` (never silently).  Planning
  happens once, in the worker, when the service answers the request;
* **a worker pool** — ``workers`` threads drain the queue in order and
  answer each request through :meth:`RankingService.rank`, whatever its
  strategy, fulfilling the request's :class:`FrontTicket`.

The front is a context manager; :meth:`close` stops intake, fails
every queued-but-unstarted request with ``reason="shutdown"`` and
drains the workers.  It does **not** close the underlying service,
which may outlive several fronts.

Latency contract: a client thread calling ``front.submit(...).result()``
observes queueing + solve time; the service records per-strategy solve
latencies (see ``docs/serving.md`` for the full concurrency contract).
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

from repro.errors import AdmissionError, ParameterError, ReproError
from repro.serving.admission import AdmissionController
from repro.serving.planner import RankRequest
from repro.serving.service import RankingService, ServedResult, coerce_request
from repro.telemetry.trace import active_span

__all__ = ["FrontTicket", "ServingFront"]


class FrontTicket:
    """Future-style handle for a request admitted to the front.

    Fulfilled by a worker thread with either a
    :class:`~repro.serving.ServedResult` or the exception the solve
    raised (including the explicit shutdown rejection); any number of
    threads may block in :meth:`result`.
    """

    __slots__ = (
        "request",
        "_cond",
        "_result",
        "_error",
        "_trace",
        "_aspan",
    )

    def __init__(self, request: RankRequest) -> None:
        self.request = request
        self._cond = threading.Condition()
        self._result: ServedResult | None = None
        self._error: BaseException | None = None
        # Sampled requests carry their trace (and open admission span,
        # measuring queue wait) from the client thread to the worker.
        self._trace = None
        self._aspan = None

    @property
    def done(self) -> bool:
        with self._cond:
            return self._result is not None or self._error is not None

    def _fulfill(self, result: ServedResult) -> None:
        with self._cond:
            if self._result is None and self._error is None:
                self._result = result
                self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        with self._cond:
            if self._result is None and self._error is None:
                self._error = error
                self._cond.notify_all()

    def result(self, timeout: float | None = None) -> ServedResult:
        """Block for the served answer; re-raises the worker's exception."""
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._result is not None or self._error is not None,
                timeout=timeout,
            ):
                raise ReproError(
                    f"ticket not fulfilled within {timeout} s"
                )
            if self._error is not None:
                raise self._error
            return self._result


class ServingFront:
    """Queue-fed worker pool over a :class:`RankingService`.

    Parameters
    ----------
    service:
        The (thread-safe) service to execute against.
    workers:
        Worker threads draining the ingress queue.
    capacity:
        Ingress queue bound; an offer beyond it raises
        :class:`~repro.errors.AdmissionError` (``reason="queue_full"``).
    """

    def __init__(
        self,
        service: RankingService,
        *,
        workers: int = 4,
        capacity: int = 64,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        self._service = service
        self.workers = workers
        # Duck-typed service wrappers (tests, gating shims) may not
        # expose a registry/tracer; fall back to a private registry so
        # the front's own counters always work.
        telemetry = getattr(service, "telemetry", None)
        if telemetry is None:
            from repro.telemetry.metrics import MetricsRegistry

            telemetry = MetricsRegistry()
        self._telemetry = telemetry
        self._admission = AdmissionController(capacity, metrics=telemetry)
        self._m_served = telemetry.counter(
            "front_served_total", "Requests fulfilled by front workers"
        )
        self._m_failed = telemetry.counter(
            "front_failed_total",
            "Requests whose ticket was failed with an exception",
        )
        self._threads: list[threading.Thread] = []
        for i in range(workers):
            t = threading.Thread(
                target=self._worker_loop,
                name=f"repro-front-worker-{i}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    @property
    def service(self) -> RankingService:
        return self._service

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(
        self, request: RankRequest | None = None, **kwargs
    ) -> FrontTicket:
        """Admit one request, returning its ticket without blocking.

        Raises :class:`~repro.errors.AdmissionError` when the ingress
        queue is full or the front is shut down — backpressure is the
        *caller's* signal to shed or retry, never a silent drop — and
        :class:`~repro.errors.ParameterError` for a malformed request.
        The request is not planned here: the worker's
        :meth:`RankingService.rank` plans it once, against the cache
        state it is served from.
        """
        request = coerce_request(request, kwargs)
        request.validate()
        ticket = FrontTicket(request)
        tracer = getattr(self._service, "tracer", None)
        if tracer is not None and active_span() is None:
            trace = tracer.start("front.rank", method=request.method)
            if trace is not None:
                ticket._trace = trace
                ticket._aspan = trace.root.child("admission")
        try:
            self._admission.offer(ticket)
        except AdmissionError as exc:
            if ticket._trace is not None:
                ticket._aspan.annotate(rejected=exc.reason)
                ticket._trace.finish()
            raise
        return ticket

    def rank(
        self, request: RankRequest | None = None, **kwargs
    ) -> ServedResult:
        """Admit one request and block for its answer (closed-loop client)."""
        return self.submit(request, **kwargs).result()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    @staticmethod
    def _activation(ticket: FrontTicket):
        """Context manager making the ticket's trace ambient (or a no-op).

        Run service calls under it so the service threads its plan /
        solve / cache spans into the front's trace instead of starting
        an owned one.
        """
        if ticket._trace is None:
            return nullcontext()
        return ticket._trace.activate()

    def _execute(self, ticket: FrontTicket) -> None:
        try:
            with self._activation(ticket):
                result = self._service.rank(ticket.request)
            ticket._fulfill(result)
            self._m_served.inc()
        except BaseException as exc:  # noqa: BLE001 - fulfil with any error
            ticket._fail(exc)
            self._m_failed.inc()
            if ticket._trace is not None:
                ticket._trace.root.annotate(error=type(exc).__name__)
        finally:
            if ticket._trace is not None:
                ticket._trace.finish()

    def _worker_loop(self) -> None:
        # take() blocks until work arrives and returns None only once
        # the front is closed and its queue is empty.
        while (ticket := self._admission.take()) is not None:
            if ticket._aspan is not None:
                # Close the admission span: its duration is the queue
                # wait between client offer and worker pickup.
                ticket._aspan.close()
            self._execute(ticket)

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = 30.0) -> None:
        """Stop intake, reject the queued backlog and drain the workers.

        Every admitted-but-unstarted request fails its ticket with an
        explicit ``AdmissionError(reason="shutdown")`` — a client
        blocked in :meth:`FrontTicket.result` sees the rejection, not a
        hang.  In-flight requests finish normally.  Idempotent; does not
        close the underlying service.
        """
        leftovers = self._admission.close()
        for item in leftovers:
            item._fail(
                AdmissionError(
                    "serving front shut down before this request started",
                    reason="shutdown",
                )
            )
            if item._trace is not None:
                item._aspan.annotate(rejected="shutdown")
                item._trace.finish()
        for t in self._threads:
            t.join(timeout=timeout)

    def __enter__(self) -> "ServingFront":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> dict:
        """Front health: admission state and served/failed counts.

        A view over the service's telemetry registry (families
        ``front_*`` and ``admission_*``).
        """
        return {
            "workers": self.workers,
            "served": int(self._m_served.value()),
            "failed": int(self._m_failed.value()),
            "admission": self._admission.stats(),
        }
