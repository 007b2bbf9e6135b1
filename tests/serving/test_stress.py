"""Randomized multi-threaded stress suite for the concurrent serving stack.

Every test here drives the *real* service (and front) from several
threads and checks the three properties the concurrency model promises:

* **certificate-valid answers** — every served vector matches a
  sequential oracle (a direct solve of the same request on the same
  graph version) within the certificate bound;
* **no deadlock** — worker/client threads are joined with a timeout and
  must be dead afterwards (``tools/ci.sh`` additionally runs this file
  under a hard timeout with faulthandler dumps);
* **no cache poisoning** — after a storm of concurrent solves and
  deltas, re-asking every query (now quiescent, served from whatever
  the cache holds) must agree with a fresh direct solve of the final
  graph.

Randomness is seeded; thread interleavings vary run to run, which is
the point — the assertions hold for *every* interleaving.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import d2pr, pagerank, personalized_d2pr
from repro.graph import DiGraph, Graph, GraphDelta
from repro.serving import (
    MicrobatchCoalescer,
    RankRequest,
    RankingService,
    ServingFront,
)

TOL = 1e-10
# Two certified answers to one query differ by at most ~2·tol/(1-alpha);
# 1e-6 leaves three orders of magnitude of slack.
ATOL = 1e-6


def _graph(cls=Graph, n=200, m=2000, seed=11):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return cls.from_arrays(rows[keep], cols[keep], num_nodes=n)


def _query_pool(graph, rng, k=10):
    """A fixed pool of mixed requests (global / localized, two alphas)."""
    nodes = graph.nodes()
    pool = [
        RankRequest(method="d2pr", p=1.0, tol=TOL),
        RankRequest(method="d2pr", p=1.0, alpha=0.9, tol=TOL),
    ]
    while len(pool) < k:
        seeds = [
            nodes[int(i)]
            for i in rng.integers(0, len(nodes), rng.integers(1, 4))
        ]
        pool.append(
            RankRequest(method="d2pr", p=1.0, seeds=sorted(set(seeds)), tol=TOL)
        )
    return pool


def _oracle(graph, request):
    """Sequential reference solve of ``request`` on ``graph`` as-is."""
    if request.seeds is None:
        return d2pr(graph, request.p, alpha=request.alpha, tol=TOL).values
    return personalized_d2pr(
        graph, list(request.seeds), request.p, alpha=request.alpha, tol=TOL
    ).values


def _join_all(threads, timeout=120):
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), f"{t.name} deadlocked"


class TestStaticStorm:
    """Concurrent clients, immutable graph: answers equal the oracle."""

    def test_service_storm_matches_oracle(self):
        graph = _graph()
        rng = np.random.default_rng(42)
        pool = _query_pool(graph, rng)
        refs = [_oracle(graph, req) for req in pool]
        errors = []

        with RankingService(graph, window=6) as service:

            def client(seed):
                crng = np.random.default_rng(seed)
                try:
                    for _ in range(25):
                        i = int(crng.integers(0, len(pool)))
                        if crng.random() < 0.5:
                            served = service.rank(pool[i])
                        else:
                            served = service.submit(pool[i]).result()
                        diff = np.abs(
                            served.scores.values - refs[i]
                        ).sum()
                        assert diff < ATOL, (i, diff)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(100 + k,), name=f"c{k}")
                for k in range(4)
            ]
            for t in threads:
                t.start()
            _join_all(threads)
        assert not errors, errors[0]

    def test_front_storm_matches_oracle(self):
        graph = _graph(cls=DiGraph, seed=13)
        rng = np.random.default_rng(7)
        pool = _query_pool(graph, rng, k=8)
        refs = [_oracle(graph, req) for req in pool]
        errors = []

        with RankingService(graph, window=6) as service:
            with ServingFront(service, workers=3, capacity=256) as front:

                def client(seed):
                    crng = np.random.default_rng(seed)
                    try:
                        for _ in range(20):
                            i = int(crng.integers(0, len(pool)))
                            served = front.rank(pool[i])
                            diff = np.abs(
                                served.scores.values - refs[i]
                            ).sum()
                            assert diff < ATOL, (i, diff)
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(
                        target=client, args=(200 + k,), name=f"f{k}"
                    )
                    for k in range(4)
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                stats = front.stats()
        assert not errors, errors[0]
        assert stats["failed"] == 0
        assert stats["served"] == 80


class TestMutatingStorm:
    """Clients racing localized deltas: invariants during, oracle after."""

    def test_concurrent_deltas_no_poisoning(self):
        graph = _graph(cls=DiGraph, n=240, m=2400, seed=23)
        n = graph.number_of_nodes
        rng = np.random.default_rng(99)
        pool = _query_pool(graph, rng, k=8)
        errors = []
        stop = threading.Event()

        with RankingService(graph, window=6) as service:

            def client(seed):
                crng = np.random.default_rng(seed)
                try:
                    while not stop.is_set():
                        i = int(crng.integers(0, len(pool)))
                        served = service.rank(pool[i])
                        values = served.scores.values
                        # Version-independent invariants: the answer is
                        # a certified distribution on *some* graph
                        # version current during the call.
                        assert np.isfinite(values).all()
                        assert values.min() >= -1e-12
                        assert abs(values.sum() - 1.0) < 1e-6
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def mutator():
                mrng = np.random.default_rng(5)
                try:
                    for _ in range(8):
                        # 3 inserted edges touch <= 6 nodes: localized
                        # (6 <= 0.05 * 240), so corrections are armed.
                        rows = mrng.integers(0, n, 3)
                        cols = (rows + 1 + mrng.integers(0, n - 1, 3)) % n
                        service.apply_delta(GraphDelta.insert(rows, cols))
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    stop.set()

            threads = [
                threading.Thread(target=client, args=(300 + k,), name=f"m{k}")
                for k in range(3)
            ]
            threads.append(threading.Thread(target=mutator, name="mutator"))
            for t in threads:
                t.start()
            _join_all(threads)
            assert not errors, errors[0]
            assert service.stats()["deltas"]["applied"] == 8

            # Quiescent now: whatever the cache holds (hits, pending
            # corrections, warm batches) must agree with fresh solves
            # of the *final* graph — poisoned entries would surface.
            for req in pool:
                served = service.rank(req)
                ref = _oracle(service.graph, req)
                diff = np.abs(served.scores.values - ref).sum()
                assert diff < ATOL, diff


class TestDeltaVsInflightBatch:
    """The apply_delta vs in-flight microbatch race, pinned down.

    A coalesced ticket outstanding when a delta arrives is *drained
    first* (inside the delta's exclusive hold): its column is flushed
    and its answer cached **certified at the flush-time mutation
    count** — a valid pre-delta answer, immediately marked for
    correction (localized delta) or evicted (global delta), so the next
    request re-certifies against the post-delta graph.  No interleaving
    lets a pre-delta vector masquerade as a post-delta answer.
    """

    def test_drained_ticket_is_pre_delta_and_then_corrected(self):
        graph = _graph(cls=DiGraph, n=220, m=2200, seed=31)
        n = graph.number_of_nodes
        with RankingService(graph, window=64) as service:  # no auto-flush
            request = RankRequest(method="pagerank", tol=TOL)
            pre_ref = pagerank(graph, tol=TOL).values
            mutation0 = graph.mutation_count
            ticket = service.submit(request)
            assert not ticket.done

            rows = np.array([1, 2, 3])
            cols = np.array([7, 8, 9])
            service.apply_delta(GraphDelta.insert(rows, cols))

            # Drained by the delta barrier, not left dangling...
            assert ticket.done
            served = ticket.result()
            # ...and the answer is the *pre-delta* solve, certified at
            # the flush-time mutation count.
            assert np.abs(served.scores.values - pre_ref).sum() < ATOL
            assert graph.mutation_count > mutation0

            # The cached pre-delta entry was armed for correction: the
            # next ask corrects incrementally and matches a fresh
            # post-delta solve.
            second = service.rank(request)
            assert second.plan.strategy == "incremental"
            post_ref = pagerank(service.graph, tol=TOL).values
            assert np.abs(second.scores.values - post_ref).sum() < ATOL

    def test_concurrent_reader_gets_pre_or_post_delta_answer(self):
        graph = _graph(cls=DiGraph, n=220, m=2200, seed=37)
        request = RankRequest(method="pagerank", tol=TOL)
        pre_ref = pagerank(graph, tol=TOL).values

        for attempt in range(3):  # a few interleavings
            g = graph.copy()
            with RankingService(g, window=64) as service:
                results = []
                errors = []

                def reader():
                    try:
                        results.append(
                            service.submit(request).result().scores.values
                        )
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                def mutator():
                    try:
                        service.apply_delta(
                            GraphDelta.insert(
                                np.array([4, 5]), np.array([11, 12])
                            )
                        )
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=reader, name="reader"),
                    threading.Thread(target=mutator, name="mutator"),
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                assert not errors, errors[0]
                post_ref = pagerank(service.graph, tol=TOL).values
                diff_pre = np.abs(results[0] - pre_ref).sum()
                diff_post = np.abs(results[0] - post_ref).sum()
                # The answer belongs to one of the two graph versions —
                # never a torn mixture of both.
                assert min(diff_pre, diff_post) < ATOL, (
                    attempt,
                    diff_pre,
                    diff_post,
                )


class TestCacheUnderConcurrency:
    def test_hammered_repeat_query_single_solve_families(self):
        """Many threads asking one query: hits dominate, answers agree."""
        graph = _graph(seed=41)
        request = RankRequest(method="d2pr", p=1.0, tol=TOL)
        ref = _oracle(graph, request)
        errors = []
        with RankingService(graph, window=4) as service:

            def client():
                try:
                    for _ in range(15):
                        served = service.rank(request)
                        assert (
                            np.abs(served.scores.values - ref).sum() < ATOL
                        )
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, name=f"h{k}")
                for k in range(4)
            ]
            for t in threads:
                t.start()
            _join_all(threads)
            assert not errors, errors[0]
            stats = service.stats()
            assert stats["requests"] == 60
            # After the first resolve every ask is a hit; concurrency
            # may let a handful race past the store, never the bulk.
            assert stats["plan_mix"].get("cached", 0) >= 40


class TestTelemetryUnderStorm:
    """Telemetry invariants under concurrency: exact counters, bounded
    trace ring, no torn reads while a storm is writing."""

    def test_counters_sum_to_sequential_oracle(self):
        graph = _graph()
        rng = np.random.default_rng(21)
        pool = _query_pool(graph, rng, k=6)
        n_clients, per_client = 4, 15
        errors = []

        with RankingService(graph, window=6) as service:

            def client(seed):
                crng = np.random.default_rng(seed)
                try:
                    for _ in range(per_client):
                        i = int(crng.integers(0, len(pool)))
                        service.rank(pool[i])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(300 + k,), name=f"t{k}")
                for k in range(n_clients)
            ]
            for t in threads:
                t.start()
            _join_all(threads)
            assert not errors, errors[0]
            stats = service.stats()
            reg = service.telemetry
            total = n_clients * per_client
            # Exactly one serving_requests_total tick per rank(), no
            # lost updates, and the plan mix partitions the total.
            assert stats["requests"] == total
            assert sum(stats["plan_mix"].values()) == total
            assert reg.get("serving_requests_total").value() == total
            cache = stats["cache"]
            assert cache["lookups"] == total
            assert cache["hits"] + cache["misses"] == cache["lookups"]

    def test_trace_ring_bounded_and_readable_during_storm(self):
        graph = _graph()
        rng = np.random.default_rng(22)
        pool = _query_pool(graph, rng, k=6)
        errors = []
        capacity = 16

        with RankingService(
            graph, window=6, tracing=True, trace_capacity=capacity
        ) as service:
            stop = threading.Event()

            def client(seed):
                crng = np.random.default_rng(seed)
                try:
                    for _ in range(20):
                        i = int(crng.integers(0, len(pool)))
                        service.rank(pool[i])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            def reader():
                # Concurrent snapshot/export reads must never tear.
                try:
                    while not stop.is_set():
                        assert len(service.tracer.traces()) <= capacity
                        service.telemetry.snapshot()
                        service.telemetry.to_prometheus()
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(400 + k,), name=f"s{k}")
                for k in range(4)
            ] + [threading.Thread(target=reader, name="reader")]
            for t in threads:
                t.start()
            _join_all(threads[:-1])
            stop.set()
            _join_all(threads[-1:])
            assert not errors, errors[0]
            traces = service.tracer.traces()
            assert len(traces) == capacity
            for trace in traces:
                assert trace.finished
                assert trace.root.name == "rank"


class TestCoalescerStorm:
    """Groups are dropped when idle, and never while a thread needs one."""

    def test_concurrent_groups_resolve_and_drop(self):
        graph = _graph()
        nodes = graph.nodes()
        n = graph.number_of_nodes
        groups = [("d2pr", p, 0.0, False, "teleport") for p in (0.0, 1.0)]
        refs = {
            (p, i): personalized_d2pr(graph, [nodes[i]], p, tol=TOL).values
            for p in (0.0, 1.0)
            for i in range(6)
        }
        coalescer = MicrobatchCoalescer(graph, window=3)
        errors = []

        def client(seed):
            crng = np.random.default_rng(seed)
            try:
                for _ in range(12):
                    group = groups[int(crng.integers(0, 2))]
                    i = int(crng.integers(0, 6))
                    teleport = np.zeros(n)
                    teleport[i] = 1.0
                    ticket = coalescer.submit(
                        group, teleport=teleport, alpha=0.85, tol=TOL
                    )
                    diff = np.abs(
                        ticket.result().scores - refs[(group[1], i)]
                    ).sum()
                    assert diff < ATOL, (group, i, diff)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(700 + k,), name=f"g{k}")
                for k in range(4)
            ]
            for t in threads:
                t.start()
            _join_all(threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]
        assert coalescer.pending == 0
        assert coalescer._groups == {}
