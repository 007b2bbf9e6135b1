"""Traced runs: an in-memory span recorder and call-site shims.

The shims wrap each layer's public entry points *where the caller looks
them up* (``repro.serving.service`` imports ``forward_push`` by name, so
that module attribute is what gets wrapped) and restore the originals
afterwards.  Each wrapped call records a span — name, start, end, parent
span and request id — into a :class:`Recorder`; spans stay in memory and
are written out when the run ends.  A span's parent is the innermost
open span on the same thread; a service call running on a front worker
thread is parented to the client span that submitted its request.

Span names are ``<layer>.<what>``; the layer prefix is the ``repro``
package the wrapped function lives in (``graph``, ``persist``,
``methods``, ``linalg``, ``shard``, ``serving``).  The benchmark's own
operation spans are ``bench.*`` and set-up spans ``setup.*``.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "persist", "methods", "linalg", "shard", "serving")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and per-layer counters from any thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # id(RankRequest) -> (span id, request id) of the client span
        # that submitted it, for parenting worker-thread spans.
        self._handoff: dict[int, tuple[int, int]] = {}
        # Set while the benchmark checks answers between timed regions,
        # so the checker's own graph reads are not charged to a layer.
        self.paused = False

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, request=None, request_id: int | None = None):
        """Record ``name`` around the body.

        ``request`` (a ``RankRequest``) links the span across threads;
        ``request_id`` tags the outermost client span with an id that its
        descendants inherit.
        """
        if self.paused:
            yield None
            return
        stack = self._stack()
        parent, rid = stack[-1] if stack else (None, None)
        # The submitting side (a thread with open spans, or the span that
        # names the request) owns the request; a span opened on a thread
        # with nothing open is the worker side and adopts the innermost
        # owner as its parent.
        owner = request is not None and (request_id is not None or bool(stack))
        if request is not None and not owner:
            parent, rid = self._handoff.get(id(request), (None, None))
        if request_id is not None:
            rid = request_id
        sid = next(self._ids)
        if owner:
            previous = self._handoff.get(id(request))
            self._handoff[id(request)] = (sid, rid)
        stack.append((sid, rid))
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            if owner:
                if previous is None:
                    self._handoff.pop(id(request), None)
                else:
                    self._handoff[id(request)] = previous
            with self._lock:
                self.spans.append(
                    Span(sid, name, start, end, parent, rid, threading.get_ident())
                )

    def count(self, name: str, value: float = 1) -> None:
        if self.paused:
            return
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def dump(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("sid\tname\tstart\tend\tparent\trequest\tthread\n")
            for s in self.spans:
                handle.write(
                    f"{s.sid}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                    f"{s.parent}\t{s.request}\t{s.thread}\n"
                )


class NullRecorder:
    """Recorder stand-in for untraced units: records nothing."""

    paused = False

    def span(self, name, **_):
        return nullcontext()


class Shims:
    """Install and restore the timing wrappers around layer entry points."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapper factories ---------------------------------------------
    def _timed(self, name, fn, after=None):
        rec = self.rec

        def wrapper(*args, **kwargs):
            with rec.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _request_timed(self, name, fn):
        """Wrap ``fn(self, request, ...)``, linking worker threads to clients."""
        rec = self.rec

        def wrapper(obj, request=None, **kwargs):
            with rec.span(name, request=request):
                return fn(obj, request, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    # -- install / restore ---------------------------------------------
    def install(self) -> None:
        import repro.methods as methods
        import repro.serving.coalescer as coalescer
        import repro.serving.service as service
        import repro.shard.solver as shard_solver
        from repro.graph.base import BaseGraph
        from repro.graph.persist import DeltaLog
        from repro.methods.spectral import EigenvectorMethod, HitsMethod, KatzMethod
        from repro.serving.front import ServingFront

        rec = self.rec
        count = rec.count

        def cached(fn):
            def wrapper(graph, key, builder):
                count("graph.cache_lookups")

                def build():
                    count("graph.matrix_builds")
                    with rec.span("graph.matrix_build"):
                        return builder()

                return fn(graph, key, build)

            wrapper.__wrapped__ = fn
            return wrapper

        def snapshot_written(out, args, kwargs):
            size = sum(f.stat().st_size for f in Path(out).iterdir() if f.is_file())
            rec.sample("persist.snapshot_mb", size / 2**20)

        def pushed(out, args, kwargs):
            count("linalg.push_iterations", out.iterations)
            count("linalg.push_fallbacks", out.method.endswith("fallback"))

        def batched(out, args, kwargs):
            count("linalg.batch_columns", out.scores.shape[1])
            count("linalg.batch_sweeps", int(out.iterations.max(initial=0)))

        def sharded(out, args, kwargs):
            count("shard.solve_rounds", out.iterations)

        def spectral(out, args, kwargs):
            count("methods.spectral_iterations", out.iterations)

        def replayed(out, args, kwargs):
            count("persist.replay_records", out["records"])

        t = self._timed
        self._patch(BaseGraph, "from_arrays", lambda f: t("graph.ingest", f))
        self._patch(BaseGraph, "apply_delta", lambda f: t("graph.apply_delta", f))
        self._patch(BaseGraph, "neighbors", lambda f: t("graph.neighbors", f))
        self._patch(BaseGraph, "cached", cached)
        self._patch(service, "save_snapshot",
                    lambda f: t("persist.snapshot_write", f, snapshot_written))
        self._patch(service, "load_snapshot", lambda f: t("persist.snapshot_load", f))
        self._patch(DeltaLog, "append", lambda f: t("persist.log_append", f))
        self._patch(DeltaLog, "replay", lambda f: t("persist.log_replay", f, replayed))
        self._patch(methods, "operator_for", lambda f: t("methods.operator_for", f))
        for cls in (KatzMethod, EigenvectorMethod, HitsMethod):
            self._patch(cls, "solve", lambda f: t("methods.spectral_solve", f, spectral))
        self._patch(service, "forward_push", lambda f: t("linalg.push", f, pushed))
        self._patch(service, "incremental_update", lambda f: t("linalg.incremental", f))
        self._patch(coalescer, "power_iteration_batch",
                    lambda f: t("linalg.batch", f, batched))
        self._patch(methods, "sharded_operator_for",
                    lambda f: t("shard.operator_for", f))
        self._patch(shard_solver, "sharded_solve", lambda f: t("shard.solve", f, sharded))
        self._patch(service.RankingService, "submit",
                    lambda f: self._request_timed("serving.submit", f))
        self._patch(service.RankingService, "apply_delta",
                    lambda f: t("serving.apply_delta", f))
        self._patch(service.RankingService, "checkpoint",
                    lambda f: t("serving.checkpoint", f))
        self._patch(service.RankingService, "warm_start",
                    lambda f: t("serving.warm_start", f))
        self._patch(ServingFront, "rank",
                    lambda f: self._request_timed("serving.front", f))

    def restore(self) -> list[str]:
        """Put every original back; return the names that did not restore."""
        broken = []
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not raw:
                broken.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return broken

    @property
    def installed(self) -> int:
        return len(self._saved)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            broken = self.restore()
            if broken:
                raise RuntimeError(f"shims not restored: {broken}")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: max(0.0, s.duration - covered[s.sid]) for s in spans}


def roots(spans: list[Span]) -> dict[int, Span | None]:
    """Span id -> its outermost recorded ancestor (itself when a root)."""
    by_id = {s.sid: s for s in spans}
    out: dict[int, Span | None] = {}
    for s in spans:
        chain = []
        node = s
        while node is not None and node.sid not in out:
            chain.append(node)
            node = by_id.get(node.parent) if node.parent is not None else None
        top = out[node.sid] if node is not None else chain[-1]
        for c in chain:
            out[c.sid] = top
    return out
