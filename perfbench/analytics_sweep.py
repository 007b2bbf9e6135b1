"""Workload ``analytics-sweep``: the paper's degree-decoupling study as a job.

Why this workload
-----------------
The paper sweeps D2PR's degree penalty ``p`` over hub-dominated graphs
and compares the result with other centralities.  Run offline as one
synchronous job, the time goes to ``power_iteration_batch`` sweeps,
transition and operator builds, coalescer windows and the spectral
solvers.  It is the counterpart of ``serve-local``: a serving-path
change (push, cache corrections, admission, per-node reads) must not
move it, while an SpMV, transition-build or graph-compression change
must.

Idle here: ``forward_push``, ``incremental_update``, deltas, sharding,
snapshots and the delta log.

Shape
-----
* Graph: undirected and weighted, ``NODES`` nodes and about ``EDGES``
  edges, endpoints drawn with Pareto(1.2) popularity and integer weights
  1-5 (a few hubs, a low median degree, many low-degree nodes hanging
  off the same hubs).  Not bipartite: on a bipartite graph
  ``eigenvector`` can stop at ``max_iter`` unconverged.
* One job (the unit), single thread, ``tol=1e-8``, on a fresh service
  over a graph with empty derived-matrix caches:

  1. one ``rank_many`` of weighted ``d2pr`` over the paper's p-grid,
     −4…4 in steps of 0.5 (17 transitions);
  2. one ``rank_many`` of ``d2pr`` at p=1 for α ∈ {0.5, 0.7, 0.75, 0.9}
     (one α-family block);
  3. one ``rank_many`` of 16 cohort requests with 36 seeds each;
  4. ``fatigued``, ``katz``, ``eigenvector`` and ``hits`` once each;
  5. ``degree_rank`` at p ∈ {−1, 0, 1}.

  A request's latency is the wall time of the call that answered it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from perfbench.common import TOL, pareto_weighted
from perfbench.harness import Timer, service_counters

NODES = 20_000
EDGES = 180_000
P_GRID = tuple(np.arange(-4.0, 4.01, 0.5).round(1))
ALPHAS = (0.5, 0.7, 0.75, 0.9)
COHORTS = 16
COHORT_SEEDS = 36


def setup(seed: int, ctx) -> SimpleNamespace:
    """Generate the inputs from ``seed``, ingest and construct the service."""
    from repro.graph.base import Graph
    from repro.serving.service import RankingService

    rng = np.random.default_rng(seed)
    u, v, w = pareto_weighted(NODES, EDGES, 1.2, rng)
    st = SimpleNamespace()
    st.graph = Graph.from_arrays(u, v, w, num_nodes=NODES)
    linked = np.flatnonzero(np.bincount(np.concatenate([u, v]), minlength=NODES))
    st.cohorts = [
        sorted(int(x) for x in rng.choice(linked, COHORT_SEEDS, replace=False))
        for _ in range(COHORTS)
    ]
    st.service = RankingService(st.graph, tracer=ctx.tracer)
    st.fresh = True
    return st


def _job(st):
    """The job's calls as ``(label, requests, call)`` triples."""
    from repro.serving.planner import RankRequest

    svc = st.service

    def d2pr(p, **kw):
        return RankRequest(method="d2pr", p=float(p), weighted=True, tol=TOL, **kw)

    grid = [d2pr(p) for p in P_GRID]
    family = [d2pr(1.0, alpha=a) for a in ALPHAS]
    cohort = [d2pr(1.0, seeds=seeds) for seeds in st.cohorts]
    calls = [
        ("p-grid", grid, lambda: svc.rank_many(grid)),
        ("alpha-family", family, lambda: svc.rank_many(family)),
        ("cohort", cohort, lambda: svc.rank_many(cohort)),
    ]
    for request in (
        RankRequest(method="fatigued", p=1.0, fatigue=0.5, weighted=True, tol=TOL),
        RankRequest(method="katz", weighted=True, tol=TOL),
        RankRequest(method="eigenvector", weighted=True, tol=TOL),
        RankRequest(method="hits", weighted=True, tol=TOL),
    ):
        calls.append((request.method, [request], lambda r=request: [svc.rank(r)]))
    for p in (-1.0, 0.0, 1.0):
        request = d2pr(p)
        calls.append((f"degree_rank p={p:g}", [request],
                      lambda r=request: [svc.degree_rank(r)]))
    return calls


def unit(st, ctx, u) -> None:
    from repro.serving.service import RankingService

    rec = ctx.rec
    if not st.fresh:
        # Every job starts like the first: a new service over a graph
        # whose derived matrices (CSR, transitions, operators) are gone.
        st.service.close()
        st.graph.invalidate_caches()
        st.service = RankingService(st.graph, tracer=ctx.tracer)
    st.fresh = False
    before = service_counters(st.service)
    for label, requests, call in _job(st):
        try:
            with Timer(u) as t:
                with rec.span("bench.call"):
                    out = call()
        except Exception as exc:  # noqa: BLE001 - counted, job continues
            u.attempted += len(requests)
            u.fail(f"{label}: {type(exc).__name__}: {exc}")
            continue
        u.latencies.extend([t.elapsed] * len(requests))
        u.stage(f"{label.split()[0]}_s", t.elapsed)
        for request, served in zip(requests, out):
            if label.startswith("degree_rank"):
                # The profile is computed from the served answer, which
                # the p-grid already returned and the checker verified.
                u.attempted += 1
                if not -1.0 <= served.spearman <= 1.0:
                    u.fail(f"{label}: spearman {served.spearman} out of range")
                continue
            ctx.verify(u, st.graph, request, served.scores)
    u.stage("sweep_s", u.wall)
    u.counters.update(service_counters(st.service) - before)


def teardown(st) -> None:
    st.service.close()
