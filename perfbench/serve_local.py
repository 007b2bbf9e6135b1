"""Workload ``serve-local``: online personalised recommendation with writes.

Why this workload
-----------------
Online recommendation asks for a few seeds' neighbourhood, many times,
while the graph keeps changing.  Most time goes to ``forward_push``, the
result cache, ``incremental_update`` after deltas, the delta merge and
matrix refresh, per-node graph reads (``graph.neighbors``) and admission
in ``ServingFront``.  Batch power iteration barely runs, so a push or
graph-layer gain must show here, and a batch-kernel or spectral change
should leave every figure unchanged.

Idle here: ``power_iteration_batch`` (no wide seed sets, no global
ranks), the spectral solvers, sharding, snapshots and the delta log.

Shape
-----
* Graph: a ring of 64-node communities (each node links to 12 peers in
  its block), ``NODES`` nodes.
* Traffic at ``tol=1e-8``, ``top_k=20``: 90% requests, of which 7 in 9
  are fresh (1-3 seeds inside one community, half ``pagerank``, half
  ``d2pr`` at p=1, so two transition groups are live) and 2 in 9 repeat
  an earlier request (see :func:`_requests`); 10% localized deltas,
  each rewiring about 0.2% of the edges.
* The client drops the seeds' known neighbours from the top-k through
  ``graph.neighbors(seed)``, as a recommender caller supplying
  ``exclude=`` does; request latency covers ``rank`` plus this filter.
* Load: a default ``RankingService`` behind ``ServingFront(workers=2)``,
  driven by two closed-loop client threads that each wait for their
  reply.  A unit is one segment: a delta applied as a barrier, then 9
  requests, so every answer has a known graph version to check against.
"""

from __future__ import annotations

import threading
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from perfbench.common import TOL, community_ring, localized_rewire
from perfbench.harness import Timer, service_counters

NODES = 40_960
COMMUNITY = 64
REPS = 12
SEGMENT = 9
DELTA_FRAC = 0.002
CLIENTS = 2
WORKERS = 2


def setup(seed: int, ctx) -> SimpleNamespace:
    """Generate the inputs from ``seed``, ingest, start and prime the front."""
    from repro.graph.base import Graph
    from repro.serving.front import ServingFront
    from repro.serving.planner import RankRequest
    from repro.serving.service import RankingService

    rng = np.random.default_rng(seed)
    rows, cols = community_ring(NODES, COMMUNITY, REPS, rng)
    st = SimpleNamespace()
    st.rng = rng
    st.graph = Graph.from_arrays(rows, cols, num_nodes=NODES)
    st.service = RankingService(st.graph, tracer=ctx.tracer)
    st.front = ServingFront(st.service, workers=WORKERS, capacity=64)
    # Prime: one answer per live transition group, and the first
    # per-node read, so the first timed request meets a warm stack.
    for method, p in (("pagerank", 0.0), ("d2pr", 1.0)):
        st.front.rank(RankRequest(method=method, p=p, seeds=[0], tol=TOL, top_k=20))
    st.graph.neighbors(0)
    st.fresh = []
    st.fresh_count = 0
    st.next_request = 0
    # Per-node reads fold the columnar store into dicts on first touch
    # after every delta, which is not safe to race; clients serialise
    # their filter step the way a thread-safe client wrapper would.
    st.filter_lock = threading.Lock()
    return st


def _requests(st) -> list:
    """One segment's requests: 7 fresh, then 2 repeats.

    The mix is fixed per segment so that runs differ only in where the
    requests land: fresh requests alternate ``pagerank``/``d2pr`` and
    cycle through 1, 2 and 3 seeds inside one random community; the
    first repeat re-asks a fresh request of the previous segment (its
    cached answer was marked for correction by this segment's delta),
    the second one of this segment's (a cache hit).
    """
    from repro.serving.planner import RankRequest

    rng = st.rng
    fresh = []
    for _ in range(SEGMENT - 2):
        block = int(rng.integers(NODES // COMMUNITY)) * COMMUNITY
        k = 1 + st.fresh_count % 3
        seeds = sorted(int(s) for s in block + rng.choice(COMMUNITY, k, replace=False))
        if st.fresh_count % 2:
            fresh.append(RankRequest(method="d2pr", p=1.0, seeds=seeds, tol=TOL, top_k=20))
        else:
            fresh.append(RankRequest(method="pagerank", seeds=seeds, tol=TOL, top_k=20))
        st.fresh_count += 1
    previous = st.fresh or fresh
    st.fresh = fresh
    repeats = [previous[int(rng.integers(len(previous)))], fresh[int(rng.integers(3))]]
    # Fresh objects: a repeat is a new request with equal fields.
    return fresh + [
        RankRequest(method=r.method, p=r.p, seeds=r.seeds, tol=TOL, top_k=20)
        for r in repeats
    ]


def unit(st, ctx, u) -> None:
    from repro.errors import AdmissionError

    rec = ctx.rec
    before = service_counters(st.service)
    rejected_before = _rejected(st.front)
    with ctx.paused():
        delta = localized_rewire(st.graph, DELTA_FRAC, COMMUNITY, st.rng)
    requests = _requests(st)

    with Timer(u) as t:
        with rec.span("bench.delta"):
            st.service.apply_delta(delta)
    u.attempted += 1
    u.stage("delta_ms", t.elapsed * 1e3)

    answers = []
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    graph = st.graph

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            request = requests[i]
            rid = st.next_request + i
            t0 = perf_counter()
            try:
                with rec.span("bench.request", request=request, request_id=rid):
                    served = st.front.rank(request)
                    top = served.topk
                    with st.filter_lock:
                        known = set()
                        for seed in request.seeds:
                            known.update(graph.neighbors(seed))
                    kept = [(node, s) for node, s in top if node not in known]
            except AdmissionError as exc:
                with lock:
                    u.attempted += 1
                    u.fail(f"admission rejected: {exc.reason}")
                continue
            except Exception as exc:  # noqa: BLE001 - counted, run continues
                with lock:
                    u.attempted += 1
                    u.fail(f"{type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            with lock:
                u.latencies.append(elapsed)
                answers.append((request, served, kept))

    threads = [threading.Thread(target=client, name=f"client-{k}") for k in range(CLIENTS)]
    with Timer(u):
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    st.next_request += len(requests)

    u.counters.update(service_counters(st.service) - before)
    u.counters["admission.rejected"] += _rejected(st.front) - rejected_before
    for request, served, kept in answers:
        ctx.verify(u, graph, request, served.scores)
        with ctx.paused():
            adj = ctx.checker.adjacency(graph, False)
        known = {int(j) for s in request.seeds
                 for j in adj.indices[adj.indptr[s]:adj.indptr[s + 1]]}
        if any(node in known for node, _ in kept):
            u.fail("neighbour filter kept a known neighbour")


def _rejected(front) -> int:
    return sum(front.stats()["admission"]["rejected"].values())


def teardown(st) -> None:
    st.front.close()
    st.service.close()
