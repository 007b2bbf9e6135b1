"""Workload ``restart-recover``: checkpoint and crash recovery, sharded.

Why this workload
-----------------
A serving process must come back after a crash and answer its previous
queries quickly, with or without deltas that arrived after the last
checkpoint.  Snapshot write/load, delta-log append/replay, mmap storage,
operator and sharded-operator prebuild and the shard solvers do the
work.  The two restarts use the prebuild differently: the clean restart
answers from re-seeded cache entries, so its prebuild is wasted; the
replay restart re-solves through ``sharded`` and ``shard_push`` and
consumes it.  Making the prebuild lazy should therefore shorten the
clean restart (``request_p50_ms`` here) and leave the replay restart
(``request_p95_ms`` here) unchanged.

Idle here: ``power_iteration_batch``, the coalescer, the spectral
solvers, ``ServingFront`` and per-node graph reads.

Shape
-----
* Graph: a ring of 64-node communities, ``NODES`` nodes (12 peers each).
* Service: ``RankingService(sharding=True, n_shards=64,
  shard_method="blocked")``, primed with the query set: 1 global
  ``d2pr`` rank plus 7 single-seed ranks (``d2pr`` at p=1, ``tol=1e-8``).
* One cycle (the unit):

  1. the live service answers the query set (cached, or corrected
     after the previous cycle's deltas);
  2. ``checkpoint()``;
  3. a clean ``warm_start(backend="mmap")``, then the query set;
  4. a tail of 3 localized deltas through the live service, teed into
     the checkpoint's armed delta log;
  5. a replay ``warm_start(backend="mmap")``, then the query set;
  6. close the restored services.

  A query answered by a restored service is timed from the
  ``warm_start`` call: its caller waited for the restart too.  Queries
  to the live service are timed from their own submission.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from perfbench.common import TOL, community_ring, localized_rewire
from perfbench.harness import Timer, service_counters

NODES = 81_920
COMMUNITY = 64
REPS = 12
SINGLES = 7
TAIL = 3
DELTA_FRAC = 0.002
OPTIONS = {"sharding": True, "n_shards": 64, "shard_method": "blocked"}


def setup(seed: int, ctx) -> SimpleNamespace:
    """Generate the inputs from ``seed``, ingest, build and prime the service."""
    from repro.graph.base import Graph
    from repro.serving.planner import RankRequest
    from repro.serving.service import RankingService

    rng = np.random.default_rng(seed)
    rows, cols = community_ring(NODES, COMMUNITY, REPS, rng)
    st = SimpleNamespace()
    st.rng = rng
    st.graph = Graph.from_arrays(rows, cols, num_nodes=NODES)
    st.queries = [RankRequest(method="d2pr", p=1.0, tol=TOL)] + [
        RankRequest(method="d2pr", p=1.0, seeds=[s], tol=TOL) for s in _singles(rng)
    ]
    st.service = RankingService(st.graph, tracer=ctx.tracer, **OPTIONS)
    for request in st.queries:
        st.service.rank(request)
    st.ckpt = Path(tempfile.mkdtemp(prefix="perfbench_ckpt_"))
    return st


def _singles(rng) -> list[int]:
    """Seven seed nodes at fixed places in random shards.

    Whether a single-seed query stays shard-local (``shard_push``) or
    falls back to a global push depends on how close its seed sits to a
    shard boundary, so the seeds are placed, not drawn: four in the
    middle community of a shard and three in a shard's first community,
    each in a different random shard.
    """
    size = -(-NODES // OPTIONS["n_shards"])
    shards = rng.choice(OPTIONS["n_shards"], SINGLES, replace=False)
    offsets = [size // 2 // COMMUNITY * COMMUNITY] * 4 + [0] * 3
    return [int(k * size + off + rng.integers(COMMUNITY)) for k, off in zip(shards, offsets)]


def _restart(st, ctx, u, label: str) -> None:
    """Warm-start from the checkpoint and answer the query set."""
    from repro.serving.service import RankingService

    answers = []
    with Timer(u) as t:
        with ctx.rec.span(f"bench.restart_{label}"):
            t0 = perf_counter()
            svc = RankingService.warm_start(
                st.ckpt, backend="mmap", tracer=ctx.tracer, **OPTIONS
            )
            for request in st.queries:
                answers.append(svc.rank(request))
                u.latencies.append(perf_counter() - t0)
    u.stage(f"restart_{label}_s", t.elapsed)
    u.counters.update(service_counters(svc))
    u.counters[f"restart.{label}_cached"] += svc.stats()["plan_mix"].get("cached", 0)
    for request, served in zip(st.queries, answers):
        ctx.verify(u, svc.graph, request, served.scores)
    with Timer(u):
        svc.close()
    # Drop the mmap views before the next checkpoint rewrites the files.
    del svc, answers, served
    gc.collect()


def unit(st, ctx, u) -> None:
    rec = ctx.rec
    before = service_counters(st.service)
    answers = []
    for request in st.queries:
        with Timer(u) as t:
            with rec.span("bench.query"):
                answers.append(st.service.rank(request))
        u.latencies.append(t.elapsed)
    for request, served in zip(st.queries, answers):
        ctx.verify(u, st.graph, request, served.scores)
    del answers

    with Timer(u) as t:
        with rec.span("bench.checkpoint"):
            st.service.checkpoint(st.ckpt)
    u.attempted += 1
    u.stage("checkpoint_s", t.elapsed)

    _restart(st, ctx, u, "clean")

    for _ in range(TAIL):
        with ctx.paused():
            delta = localized_rewire(st.graph, DELTA_FRAC, COMMUNITY, st.rng)
        with Timer(u) as t:
            with rec.span("bench.delta"):
                st.service.apply_delta(delta)
        u.attempted += 1
        u.stage("delta_ms", t.elapsed * 1e3)

    _restart(st, ctx, u, "replay")
    u.counters.update(service_counters(st.service) - before)


def teardown(st) -> None:
    st.service.close()
    shutil.rmtree(st.ckpt, ignore_errors=True)
