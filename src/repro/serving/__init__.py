"""Ranking service layer: query planning, microbatching, result caching.

The first layer of the library that owns *requests* rather than solves
— the ROADMAP's "serve heavy traffic" step.  :class:`RankingService` is
the front door; :mod:`~repro.serving.planner`,
:mod:`~repro.serving.coalescer` and :mod:`~repro.serving.cache` are its
injectable components.  :class:`ServingFront` puts a concurrent request
path — bounded admission queue and worker pool — in front of the
(thread-safe) service.  See ``docs/serving.md`` for the serving and
concurrency contracts.

Every component records into one shared
:class:`~repro.telemetry.metrics.MetricsRegistry` (reachable as
``service.telemetry``); pass ``tracing=True`` to the service to sample
per-request traces — see ``docs/observability.md``.
"""

from repro.serving.admission import AdmissionController
from repro.serving.cache import CacheEntry, ResultCache
from repro.serving.coalescer import CoalescerTicket, MicrobatchCoalescer
from repro.serving.front import FrontTicket, ServingFront
from repro.serving.planner import (
    METHODS,
    STRATEGIES,
    CanonicalQuery,
    QueryPlan,
    QueryPlanner,
    RankRequest,
    canonical_query,
)
from repro.serving.service import RankingService, ServedResult, ServingTicket
from repro.serving.sync import ReadWriteLock

__all__ = [
    "METHODS",
    "STRATEGIES",
    "AdmissionController",
    "CacheEntry",
    "CanonicalQuery",
    "CoalescerTicket",
    "FrontTicket",
    "MicrobatchCoalescer",
    "QueryPlan",
    "QueryPlanner",
    "RankRequest",
    "RankingService",
    "ResultCache",
    "ServedResult",
    "ServingFront",
    "ServingTicket",
    "canonical_query",
]
