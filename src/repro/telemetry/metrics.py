"""Thread-safe metrics primitives: counters, gauges, bounded histograms.

One :class:`MetricsRegistry` per serving stack unifies the per-layer
statistics that used to live in ad-hoc dicts (`RankingService` plan mix,
cache hit/evict/correct counts, coalescer flush causes, admission
accept/reject, sharded-solve counts, the latency ring).  Every
mutation happens under the owning family's lock, so concurrent writers
from client threads, the coalescer resolver, and the front's worker pool
never produce torn updates — see ``docs/serving.md`` § Concurrency for
the ordering rules.

Design points
-------------
* **Families and children.**  A metric *family* is registered once per
  name (``registry.counter("cache_hits_total")``); label values select a
  *child* (``counter.inc(strategy="push")``).  Registration is
  idempotent: asking for an existing name with the same kind and label
  names returns the same family object, so layers can share a registry
  without coordinating creation order.  A kind or label-name mismatch
  raises :class:`~repro.errors.ParameterError` — silent aliasing of two
  different metrics under one name is always a bug.
* **Histograms are bounded.**  Each child keeps a sliding window of the
  most recent ``window`` observations (for p50/p95/p99/mean/last) plus
  never-truncated ``count``/``sum`` totals (the service's
  ``serving_latency_seconds`` family is one).
* **Callback gauges.**  A gauge child may be bound to a zero-argument
  callable (queue depth, ring occupancy); it is evaluated at snapshot
  time.  Callbacks may acquire component locks, therefore component
  code must never update *gauge* families while holding a lock a
  callback needs (counters/histograms are leaf locks and always safe).

The registry itself holds no serving state — it can outlive a service,
be shared by several fronts, or be exported from a background thread at
any time via :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque
from typing import Callable, Iterable, Mapping

from repro.errors import ParameterError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Label values are keyed by a sorted tuple of (name, value) pairs so the
#: same labels in any keyword order address the same child.
LabelKey = tuple


def _quantile(window: list[float], q: float) -> float:
    """Nearest-rank-interpolated quantile of a non-empty list."""
    data = sorted(window)
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class _Family:
    """Shared machinery: name/help/label validation, per-family lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: tuple[str, ...]):
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _NAME_RE.match(label):
                raise ParameterError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> LabelKey:
        if set(labels) != set(self.label_names):
            raise ParameterError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter(_Family):
    """Monotonically increasing per-label-set totals."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = ()):
        super().__init__(name, help, label_names)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def values(self) -> dict[LabelKey, float]:
        with self._lock:
            return dict(self._values)

    def total(self) -> float:
        """Sum over every child — e.g. flushes regardless of cause."""
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> dict:
        with self._lock:
            values = [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._values.items())
            ]
        return {"kind": self.kind, "help": self.help, "values": values}


class Gauge(_Family):
    """Point-in-time values; children may be callback-backed."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: tuple[str, ...] = ()):
        super().__init__(name, help, label_names)
        self._values: dict[LabelKey, float] = {}
        self._callbacks: dict[LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_max(self, value: float, **labels) -> None:
        """Raise the gauge to ``value`` if larger (high-water marks)."""
        key = self._key(labels)
        value = float(value)
        with self._lock:
            if value > self._values.get(key, float("-inf")):
                self._values[key] = value

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Bind the child to ``fn``, evaluated at snapshot time.

        Re-binding replaces the previous callback — a restarted component
        (e.g. a new front sharing a service registry) takes over cleanly.
        """
        key = self._key(labels)
        with self._lock:
            self._callbacks[key] = fn

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._callbacks.get(key)
        if fn is not None:
            return float(fn())
        with self._lock:
            return self._values.get(key, 0.0)

    def snapshot(self) -> dict:
        with self._lock:
            stored = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, fn in callbacks.items():
            try:
                stored[key] = float(fn())
            except Exception:  # a dead component must not kill exports
                stored.setdefault(key, 0.0)
        values = [
            {"labels": dict(key), "value": value}
            for key, value in sorted(stored.items())
        ]
        return {"kind": self.kind, "help": self.help, "values": values}


class _HistogramChild:
    __slots__ = ("window", "count", "sum", "last")

    def __init__(self, maxlen: int):
        self.window: deque[float] = deque(maxlen=maxlen)
        self.count = 0
        self.sum = 0.0
        self.last = 0.0


class Histogram(_Family):
    """Bounded-window distribution with exact totals.

    Quantiles (p50/p95/p99), mean, and ``last`` are computed over the
    most recent ``window`` observations; ``count`` and ``sum`` are
    never truncated.  Memory is bounded by ``window`` per child no
    matter how many observations arrive — the property the serving
    latency ring has always relied on.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        window: int = 256,
    ):
        if window < 1:
            raise ParameterError(f"histogram window must be >= 1, got {window}")
        super().__init__(name, help, label_names)
        self.window = int(window)
        self._children: dict[LabelKey, _HistogramChild] = {}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(self.window)
            child.window.append(value)
            child.count += 1
            child.sum += value
            child.last = value

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            return child.count if child is not None else 0

    def quantile(self, q: float, **labels) -> float | None:
        if not 0.0 <= q <= 1.0:
            raise ParameterError(f"quantile must be in [0, 1], got {q}")
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None or not child.window:
                return None
            window = list(child.window)
        return _quantile(window, q)

    def _summary_locked(self, child: _HistogramChild) -> dict:
        window = list(child.window)
        out = {
            "count": child.count,
            "window": len(window),
            "sum": child.sum,
            "last": child.last,
        }
        if window:
            out["mean"] = sum(window) / len(window)
            out["p50"] = _quantile(window, 0.50)
            out["p95"] = _quantile(window, 0.95)
            out["p99"] = _quantile(window, 0.99)
        else:  # pragma: no cover - children are created by observe()
            out.update(mean=None, p50=None, p95=None, p99=None)
        return out

    def summary(self, **labels) -> dict | None:
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return None
            return self._summary_locked(child)

    def summaries(self) -> dict[LabelKey, dict]:
        """Per-child summaries — one consistent (per-child) read each."""
        with self._lock:
            return {
                key: self._summary_locked(child)
                for key, child in sorted(self._children.items())
            }

    def snapshot(self) -> dict:
        values = [
            {"labels": dict(key), **summary}
            for key, summary in self.summaries().items()
        ]
        return {
            "kind": self.kind,
            "help": self.help,
            "window_limit": self.window,
            "values": values,
        }


class MetricsRegistry:
    """Named home of every metric family in one serving stack.

    Registration is idempotent per (name, kind, label names); lookups of
    a family someone else registered return the same object, so the
    cache, coalescer, admission gate, and service can all be handed one
    registry and wire themselves up independently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name, help, labels, **kwargs) -> _Family:
        labels = tuple(labels)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != labels:
                    raise ParameterError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            family = cls(name, help, labels, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        window: int = 256,
    ) -> Histogram:
        family = self._register(Histogram, name, help, labels, window=window)
        if family.window != int(window):
            raise ParameterError(
                f"histogram {name!r} already registered with "
                f"window={family.window}, got {window}"
            )
        return family

    def get(self, name: str) -> _Family | None:
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict:
        """Plain-dict view of every family — the exporters' input."""
        return {family.name: family.snapshot() for family in self.families()}

    def to_prometheus(self) -> str:
        from repro.telemetry.export import to_prometheus

        return to_prometheus(self)

    def to_json(self) -> str:
        from repro.telemetry.export import to_json

        return to_json(self)
