"""Delta-aware result cache for served ranking answers.

Classic result caching dies on streaming graphs: any edit invalidates
every entry, so a workload with even a trickle of deltas never sees a
hit.  This cache keeps entries *alive across localized deltas* instead:

* entries are keyed by the planner's **canonical query digest**
  (:func:`~repro.serving.planner.canonical_query`) and tagged with the
  graph's ``mutation_count`` and the tolerance they were solved to — a
  lookup serves only entries certified at the current graph version for
  at least the requested accuracy;
* when the service routes a :class:`~repro.graph.delta.GraphDelta`
  through :meth:`~repro.serving.RankingService.apply_delta` and the
  delta is localized, each live entry is **marked pending** with a
  token holding its group's memoised pre-delta transition factors and
  the delta's endpoints, instead of being evicted; the capture builds
  nothing.  The next lookup reports ``"pending"`` and the service
  corrects the entry by residual push
  (:func:`~repro.linalg.incremental.incremental_update` — the
  ``update_scores`` machinery, with the baseline residual derived from
  the captured factors), re-certifying it at the new graph version for
  a small fraction of a cold solve;
* an entry still pending when a *further* localized delta lands was
  not read in between — it is **chained**: re-marked under a fresh
  token that keeps the factors it was certified on, so one correction
  covers the composite delta.  The service evicts it instead when its
  transition group captured live entries at this delta (one retained
  adjacency per group) or when the deltas since certification touched
  more than ``localized_fraction`` of the nodes;
* capacity is bounded LRU; storing past capacity evicts the
  least-recently-served digest.

Entries hold the **full certified score vector** (as served
:class:`~repro.core.results.NodeScores`); top-k requests slice it on the
way out, so one entry answers every ``k`` — and a corrected entry
re-certifies every slice at once.  Cached vectors are shared with
callers under the library's read-only contract.

Thread safety
-------------
Every public method holds one internal :class:`threading.RLock` for its
whole critical section, so the cache can sit behind the concurrent
serving front (:class:`~repro.serving.front.ServingFront`) without
external locking.  The lock is held only for O(entries) bookkeeping —
never during a solve — so it is not a throughput bottleneck.  The
delta-pending correction path is made atomic by **token identity**:

* :meth:`lookup` returns the pending token alongside the entry, and the
  corrector must hand the same token back to :meth:`resolve_pending`;
* resolving with a token that is no longer the entry's current pending
  marker means a delta landed (or the entry was re-marked) while the
  correction solved — the stale corrected answer is **discarded and the
  entry evicted**, never stored;
* resolving an entry whose token was already cleared by an identical
  concurrent correction is idempotent: the first resolution wins, the
  second is reported as already applied and nothing changes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.results import NodeScores
from repro.errors import ParameterError
from repro.serving.planner import RankRequest
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["CacheEntry", "ResultCache"]

#: Relative slack when comparing tolerances, so an entry solved at
#: exactly the requested tol is never rejected over float noise.
_TOL_SLACK = 1e-9


@dataclass
class CacheEntry:
    """One cached answer: the certified vector plus its provenance."""

    scores: NodeScores
    tol: float
    mutation: int
    request: RankRequest
    #: Sparse canonical teleport — a sorted ``(indices, unit-normalised
    #: weights)`` pair, or ``None`` for uniform.  O(seeds) resident
    #: memory per entry; the service materialises the dense vector only
    #: when a correction actually solves.
    teleport: tuple[np.ndarray, np.ndarray] | None
    #: Correction token captured by the service before a localized delta
    #: was applied (opaque to the cache — in practice the pre-delta
    #: transition factors and the touched nodes, from which the baseline
    #: residual is derived at correction time).  Non-``None`` marks the entry
    #: as awaiting incremental correction; its *identity* is the
    #: atomicity handle of the correction lifecycle (see module docs).
    pending: object | None = None
    hits: int = 0


class ResultCache:
    """Bounded LRU of certified ranking answers, corrected across deltas."""

    def __init__(
        self,
        capacity: int = 128,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        # All counters live in the (possibly shared) telemetry registry;
        # each increment is atomic under the counter family's own leaf
        # lock, so readers exporting a snapshot never see torn values.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_lookups = self.metrics.counter(
            "cache_lookups_total", "Result-cache lookups"
        )
        self._m_hits = self.metrics.counter(
            "cache_hits_total", "Certified answers served from cache"
        )
        self._m_misses = self.metrics.counter(
            "cache_misses_total", "Lookups that required a solve"
        )
        self._m_corrections = self.metrics.counter(
            "cache_corrections_total",
            "Pending entries re-certified by incremental correction",
        )
        self._m_chained = self.metrics.counter(
            "cache_chained_total",
            "Pending entries carried across a further delta",
        )
        self._m_stale = self.metrics.counter(
            "cache_stale_corrections_total",
            "Corrections discarded because a newer delta superseded them",
        )
        self._m_evictions = self.metrics.counter(
            "cache_evictions_total", "Entries dropped (LRU or invalidation)"
        )
        occupancy = self.metrics.gauge(
            "cache_entries", "Resident cache entries"
        )
        occupancy.set_function(self.__len__)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self, digest: str, *, mutation: int, tol: float
    ) -> tuple[str, CacheEntry | None]:
        """Classify ``digest`` for a request at ``(mutation, tol)``.

        Returns ``("hit", entry)`` for a servable certified entry,
        ``("pending", entry)`` for a pre-delta entry awaiting incremental
        correction (still at the post-delta mutation count), and
        ``("miss", None)`` otherwise.  An entry from a *different* graph
        version with no pending correction — the graph mutated behind
        the service's back — is evicted on sight; an entry that merely
        fails the tolerance gate is left in place (it still serves
        looser requests) and the miss's fresh solve will overwrite it.

        A ``"pending"`` caller that goes on to correct the entry must
        capture ``entry.pending`` under this call and pass it back to
        :meth:`resolve_pending` as the token.
        """
        with self._lock:
            self._m_lookups.inc()
            entry = self._entries.get(digest)
            if entry is None:
                self._m_misses.inc()
                return "miss", None
            if entry.mutation != mutation:
                # Mutated outside the service's apply_delta path: the
                # entry has no correction route, so it can never serve
                # again.
                self._evict(digest)
                self._m_misses.inc()
                return "miss", None
            if entry.tol > tol * (1.0 + _TOL_SLACK):
                self._m_misses.inc()
                return "miss", None
            self._entries.move_to_end(digest)
            if entry.pending is not None:
                return "pending", entry
            entry.hits += 1
            self._m_hits.inc()
            return "hit", entry

    def peek(self, digest: str, *, mutation: int, tol: float) -> str:
        """Classify like :meth:`lookup` without counters, LRU or eviction.

        The dry-run used by :meth:`~repro.serving.RankingService.plan`.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if (
                entry is None
                or entry.mutation != mutation
                or entry.tol > tol * (1.0 + _TOL_SLACK)
            ):
                return "miss"
            return "pending" if entry.pending is not None else "hit"

    def store(
        self,
        digest: str,
        *,
        scores: NodeScores,
        tol: float,
        mutation: int,
        request: RankRequest,
        teleport: tuple[np.ndarray, np.ndarray] | None,
    ) -> CacheEntry:
        """Insert (or overwrite) the certified answer for ``digest``."""
        entry = CacheEntry(
            scores=scores,
            tol=float(tol),
            mutation=int(mutation),
            request=request,
            teleport=teleport,
        )
        with self._lock:
            if digest in self._entries:
                del self._entries[digest]
            self._entries[digest] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._m_evictions.inc()
            return entry

    # ------------------------------------------------------------------
    # delta lifecycle
    # ------------------------------------------------------------------
    def live_entries(self) -> list[tuple[str, CacheEntry]]:
        """Digest/entry pairs eligible for baseline capture (not pending)."""
        with self._lock:
            return [
                (digest, entry)
                for digest, entry in self._entries.items()
                if entry.pending is None
            ]

    def pending_entries(self) -> list[tuple[str, CacheEntry]]:
        """Digest/entry pairs awaiting correction from an earlier delta."""
        with self._lock:
            return [
                (digest, entry)
                for digest, entry in self._entries.items()
                if entry.pending is not None
            ]

    def mark_pending(
        self, digest: str, token: object, *, mutation: int
    ) -> None:
        """Flag ``digest`` as awaiting correction at graph version ``mutation``.

        ``token`` is whatever the service needs to derive the correction
        later — in practice a reference to the entry's *pre-delta*
        operator bundle, from which the baseline residual (the part the
        incremental solver freezes as dust; see ``linalg/incremental.py``)
        is computed lazily on first post-delta access.  The token's
        identity also guards the correction lifecycle: an in-flight
        correction holding the *previous* token (or none) can no longer
        resolve into this entry once it is re-marked.  Re-marking an
        entry that is already pending chains it across the new delta
        (counted as ``chained``).
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:  # pragma: no cover - defensive
                return
            if entry.pending is not None:
                self._m_chained.inc()
            entry.pending = token
            entry.mutation = int(mutation)

    def resolve_pending(
        self,
        digest: str,
        *,
        scores: NodeScores,
        tol: float,
        mutation: int,
        token: object | None = None,
    ) -> tuple[str, CacheEntry | None]:
        """Land a correction computed for the pending marker ``token``.

        The atomic commit point of the correction lifecycle.  Returns a
        ``(state, entry)`` pair:

        * ``("resolved", entry)`` — ``token`` is the entry's current
          pending marker (or ``token is None``, the pre-concurrency
          trusting form): the corrected answer replaces the entry and it
          is re-certified at ``mutation``.
        * ``("already", entry)`` — the entry is no longer pending but
          sits at the same ``mutation`` the correction targeted: an
          identical concurrent correction (or a fresh solve) landed
          first.  Idempotent — nothing changes, the resident answer is
          equally certified and the caller may serve its own.
        * ``("stale", None)`` — the entry vanished, was re-marked by a
          newer delta, or moved to a different mutation while the
          correction solved.  The corrected answer no longer describes
          the current graph: it is **not** stored and any conflicting
          entry is evicted (never served stale).  The caller must
          re-plan the request.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                return "stale", None
            if entry.pending is None:
                if entry.mutation == int(mutation):
                    return "already", entry
                return "stale", None
            if token is not None and entry.pending is not token:
                # A newer delta re-marked the entry while this correction
                # solved: its answer belongs to a superseded graph
                # version, and the entry's retained scores were already
                # consumed by that re-mark's capture assumptions — drop
                # both rather than risk serving either.
                self._evict(digest)
                self._m_stale.inc()
                return "stale", None
            entry.scores = scores
            entry.tol = float(tol)
            entry.mutation = int(mutation)
            entry.pending = None
            self._m_corrections.inc()
            self._entries.move_to_end(digest)
            return "resolved", entry

    def evict(self, digest: str) -> None:
        """Drop one entry (counted in the eviction stats)."""
        with self._lock:
            if digest in self._entries:
                self._evict(digest)

    def evict_all(self) -> int:
        """Drop every entry (de-localised delta / external mutation path)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self._m_evictions.inc(dropped)
            return dropped

    def _evict(self, digest: str) -> None:
        del self._entries[digest]
        self._m_evictions.inc()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit/miss/correction/eviction counters plus occupancy.

        A backwards-compatible view over the telemetry registry — the
        same numbers the Prometheus/JSON exporters publish.
        """
        lookups = int(self._m_lookups.value())
        hits = int(self._m_hits.value())
        with self._lock:
            entries = len(self._entries)
            pending = sum(
                1
                for entry in self._entries.values()
                if entry.pending is not None
            )
        return {
            "capacity": self.capacity,
            "entries": entries,
            "pending": pending,
            "lookups": lookups,
            "hits": hits,
            "misses": int(self._m_misses.value()),
            "corrections": int(self._m_corrections.value()),
            "chained": int(self._m_chained.value()),
            "stale_corrections": int(self._m_stale.value()),
            "evictions": int(self._m_evictions.value()),
            "hit_rate": hits / lookups if lookups else 0.0,
        }
