"""Queue-based admission control for the concurrent serving front.

A serving process under more load than it can absorb has exactly three
honest options: queue the request, serve it now, or **refuse it with a
reason**.  :class:`AdmissionController` implements that contract as a
bounded FIFO ingress queue:

* **Bounded queue** — an offer beyond ``capacity`` raises
  :class:`~repro.errors.AdmissionError` with ``reason="queue_full"``.
  Backpressure is *explicit*: the client learns immediately that the
  front is saturated instead of watching its request age in an
  unbounded queue.
* **FIFO hand-out** — :meth:`take` returns the oldest queued item.
* **Explicit shutdown** — :meth:`close` rejects everything still queued
  with ``reason="shutdown"`` and returns the rejected items so the
  caller can fail their tickets loudly.  Nothing is ever dropped
  silently.

Thread safety: one condition variable guards all state; ``offer`` /
``take`` / ``close`` may be called from any thread.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import AdmissionError, ParameterError
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded FIFO ingress queue.

    Parameters
    ----------
    capacity:
        Maximum queued (admitted but not yet taken) items.
    metrics:
        Telemetry registry for the admit/reject counters and the
        queue-depth gauge; ``None`` creates a private registry.
    """

    def __init__(
        self,
        capacity: int = 64,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cv = threading.Condition()
        self._queue: deque[object] = deque()
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_admitted = self.metrics.counter(
            "admission_admitted_total", "Requests admitted to the queue"
        )
        self._m_rejected = self.metrics.counter(
            "admission_rejected_total",
            "Requests refused, by reason",
            labels=("reason",),
        )
        # Callback gauge: evaluated at export time, takes the condition
        # variable — safe because no code updates *gauge* families while
        # holding it (counters are leaf locks; see docs/serving.md).
        self.metrics.gauge(
            "admission_queue_depth", "Admitted but not yet running requests"
        ).set_function(self.depth)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def offer(self, item: object) -> None:
        """Admit ``item`` or raise :class:`AdmissionError` with a reason."""
        with self._cv:
            if self._closed:
                self._m_rejected.inc(reason="shutdown")
                raise AdmissionError(
                    "serving front is shut down", reason="shutdown"
                )
            if len(self._queue) >= self.capacity:
                self._m_rejected.inc(reason="queue_full")
                raise AdmissionError(
                    f"ingress queue is full ({self.capacity} deep); "
                    "retry later or raise capacity",
                    reason="queue_full",
                )
            self._queue.append(item)
            self._m_admitted.inc()
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def take(self, timeout: float | None = None) -> object | None:
        """The oldest queued item, or ``None``.

        Blocks until an item is available, the controller is closed
        (returns ``None`` once the queue is empty), or ``timeout``
        elapses (``None``; ``timeout=0`` polls).
        """
        with self._cv:
            while not self._queue:
                if self._closed or timeout == 0:
                    return None
                if not self._cv.wait(timeout=timeout):
                    return None
            return self._queue.popleft()

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> list[object]:
        """Stop admitting; return still-queued items for explicit rejection.

        Waiting :meth:`take` calls wake and return ``None``; the
        *queued* backlog is handed back to the caller, whose job is to
        fail each item loudly (the serving front rejects their tickets
        with ``reason="shutdown"``).  Idempotent.
        """
        with self._cv:
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            if leftovers:
                self._m_rejected.inc(len(leftovers), reason="shutdown")
            self._cv.notify_all()
            return leftovers

    @property
    def closed(self) -> bool:
        with self._cv:
            return self._closed

    def depth(self) -> int:
        """Currently queued (admitted, not yet taken) items."""
        with self._cv:
            return len(self._queue)

    def stats(self) -> dict:
        """Admission health: depth and rejections by reason.

        A view over the telemetry registry (the ``admission_*`` export
        names).
        """
        rejected = {
            dict(labels)["reason"]: int(value)
            for labels, value in self._m_rejected.values().items()
        }
        with self._cv:
            depth = len(self._queue)
            closed = self._closed
        return {
            "capacity": self.capacity,
            "depth": depth,
            "admitted": int(self._m_admitted.value()),
            "rejected": rejected,
            "closed": closed,
        }
