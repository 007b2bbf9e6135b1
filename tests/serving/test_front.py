"""Tests for the concurrent serving front: workers and admission."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core import d2pr, personalized_d2pr
from repro.errors import AdmissionError, ParameterError
from repro.graph import Graph, GraphDelta
from repro.serving import RankRequest, RankingService, ServingFront


def _graph(n=250, m=2500, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


class _GatedService:
    """Service wrapper whose rank() blocks until a gate opens.

    Lets tests hold a worker busy deterministically (to fill the ingress
    queue) without sleeping on real solve times.  Counts ``plan()`` dry
    runs, which the front must never make.
    """

    def __init__(self, inner: RankingService, gate: threading.Event):
        self._inner = inner
        self._gate = gate
        self.plan_calls = 0

    def plan(self, *args, **kwargs):
        self.plan_calls += 1
        return self._inner.plan(*args, **kwargs)

    def rank(self, *args, **kwargs):
        assert self._gate.wait(timeout=30), "test gate never opened"
        return self._inner.rank(*args, **kwargs)


def _wait_until_taken(front, timeout=10.0):
    """Block until the front's workers have taken every queued request."""
    deadline = time.monotonic() + timeout
    while front.stats()["admission"]["depth"] > 0:
        assert time.monotonic() < deadline
        time.sleep(0.005)


class TestServing:
    def test_answers_match_direct_solves(self):
        graph = _graph()
        seed = graph.nodes()[3]
        with RankingService(graph) as service:
            with ServingFront(service, workers=3) as front:
                tickets = [
                    front.submit(method="d2pr", p=1.0),
                    front.submit(method="d2pr", p=1.0, seeds=[seed]),
                    front.submit(method="d2pr", p=1.0),  # repeat: cache
                ]
                results = [t.result(timeout=30) for t in tickets]
        ref_global = d2pr(graph, 1.0)
        ref_seed = personalized_d2pr(graph, [seed], 1.0, tol=1e-10)
        assert (
            np.abs(results[0].scores.values - ref_global.values).max() < 1e-8
        )
        assert (
            np.abs(results[1].scores.values - ref_seed.values).sum() < 1e-6
        )
        assert (
            np.abs(results[2].scores.values - ref_global.values).max() < 1e-8
        )

    def test_many_clients_many_queries(self):
        graph = _graph()
        nodes = graph.nodes()
        refs = {
            i: personalized_d2pr(graph, [nodes[i]], 1.0, tol=1e-10)
            for i in range(8)
        }
        errors = []
        with RankingService(graph) as service:
            with ServingFront(service, workers=4, capacity=128) as front:

                def client(offset):
                    try:
                        for i in range(12):
                            idx = (offset + i) % 8
                            res = front.rank(
                                method="d2pr",
                                p=1.0,
                                seeds=[nodes[idx]],
                                tol=1e-10,
                            )
                            diff = np.abs(
                                res.scores.values - refs[idx].values
                            ).sum()
                            assert diff < 1e-6, diff
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive(), "client thread deadlocked"
        assert not errors


class TestAdmission:
    def test_queue_full_is_explicit(self):
        graph = _graph()
        gate = threading.Event()
        with RankingService(graph) as service:
            gated = _GatedService(service, gate)
            front = ServingFront(gated, workers=1, capacity=2)
            try:
                seeds = [graph.nodes()[0]]
                first = front.submit(method="d2pr", p=1.0, seeds=seeds)
                _wait_until_taken(front)
                queued = [
                    front.submit(method="d2pr", p=1.0, seeds=seeds)
                    for _ in range(2)
                ]
                with pytest.raises(AdmissionError) as err:
                    front.submit(method="d2pr", p=1.0, seeds=seeds)
                assert err.value.reason == "queue_full"
                gate.set()
                first.result(timeout=30)
                for t in queued:
                    t.result(timeout=30)
                assert (
                    front.stats()["admission"]["rejected"]["queue_full"] == 1
                )
            finally:
                gate.set()
                front.close()

    def test_shutdown_rejects_queued_and_new(self):
        graph = _graph()
        gate = threading.Event()
        with RankingService(graph) as service:
            gated = _GatedService(service, gate)
            front = ServingFront(gated, workers=1, capacity=8)
            seeds = [graph.nodes()[1]]
            first = front.submit(method="d2pr", p=1.0, seeds=seeds)
            _wait_until_taken(front)
            stranded = front.submit(method="d2pr", p=1.0, seeds=seeds)
            closer = threading.Thread(target=front.close)
            closer.start()
            gate.set()  # let the in-flight request finish
            closer.join(timeout=30)
            assert not closer.is_alive()
            # in-flight finished normally; queued failed loudly
            first.result(timeout=30)
            with pytest.raises(AdmissionError) as err:
                stranded.result(timeout=30)
            assert err.value.reason == "shutdown"
            with pytest.raises(AdmissionError) as err:
                front.submit(method="d2pr", p=1.0, seeds=seeds)
            assert err.value.reason == "shutdown"

    def test_submit_never_plans(self):
        """Admission is a plain FIFO: ``submit`` makes no ``plan()`` dry
        run, yet full-queue and shutdown rejections still raise
        ``AdmissionError`` and are counted per reason."""
        graph = _graph()
        gate = threading.Event()
        with RankingService(graph) as service:
            gated = _GatedService(service, gate)
            front = ServingFront(gated, workers=1, capacity=1)
            seeds = [graph.nodes()[2]]
            first = front.submit(method="d2pr", p=1.0, seeds=seeds)
            _wait_until_taken(front)
            queued = front.submit(RankRequest(method="d2pr", p=1.0))
            with pytest.raises(AdmissionError) as err:
                front.submit(method="d2pr", p=1.0, seeds=seeds)
            assert err.value.reason == "queue_full"
            with pytest.raises(ParameterError):
                front.submit(method="no-such-method")
            closer = threading.Thread(target=front.close)
            closer.start()
            gate.set()
            closer.join(timeout=30)
            assert not closer.is_alive()
            first.result(timeout=30)
            with pytest.raises(AdmissionError) as err:
                queued.result(timeout=30)
            assert err.value.reason == "shutdown"
            with pytest.raises(AdmissionError) as err:
                front.submit(method="d2pr", p=1.0)
            assert err.value.reason == "shutdown"
            rejected = front.stats()["admission"]["rejected"]
            assert rejected == {"queue_full": 1, "shutdown": 2}
            assert gated.plan_calls == 0

    def test_provisioned_capacity_rejects_nothing(self):
        """Concurrent clients through a front sized for the offered load
        see no rejection, and every answer matches the synchronous
        service's within the two answers' combined certificates.  A
        delta between the two segments is a barrier on both sides."""
        graph = _graph(n=400, m=4000, seed=9)
        nodes = graph.nodes()
        tol = 1e-8
        rng = np.random.default_rng(3)
        fresh = [
            RankRequest(method="d2pr", p=1.0, seeds=[nodes[int(i)]], tol=tol)
            for i in rng.integers(0, len(nodes), 10)
        ]
        wide = [
            RankRequest(
                method="d2pr",
                p=1.0,
                seeds=[nodes[int(i)] for i in rng.choice(400, 40, False)],
                tol=tol,
            )
            for _ in range(4)
        ]
        segments = [
            fresh + wide + [RankRequest(p=1.0, tol=tol)],
            fresh[:6] + wide[:2] + [RankRequest(p=1.0, tol=tol)],
        ]
        delta = GraphDelta.insert(
            np.array([0, 1, 2], dtype=np.int64),
            np.array([5, 6, 7], dtype=np.int64),
        )
        expected = []
        with RankingService(graph.copy()) as sync:
            for requests in segments:
                expected.append([sync.rank(r).scores.values for r in requests])
                sync.apply_delta(delta)

        errors: list[BaseException] = []
        got: list[dict[int, np.ndarray]] = []
        total = sum(len(requests) for requests in segments)
        with RankingService(graph) as service:
            with ServingFront(service, workers=2, capacity=total) as front:
                for requests in segments:
                    answers: dict[int, np.ndarray] = {}
                    cursor = iter(range(len(requests)))
                    lock = threading.Lock()

                    def client():
                        while True:
                            with lock:
                                i = next(cursor, None)
                            if i is None:
                                return
                            try:
                                served = front.rank(requests[i])
                                answers[i] = served.scores.values
                            except BaseException as exc:  # noqa: BLE001
                                errors.append(exc)

                    threads = [
                        threading.Thread(target=client) for _ in range(3)
                    ]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                        assert not t.is_alive(), "client thread deadlocked"
                    got.append(answers)
                    service.apply_delta(delta)
                assert front.stats()["admission"]["rejected"] == {}
        assert not errors
        # Incremental corrections carry the widest per-answer bound,
        # 3·tol·α/(1−α); two certified answers differ by at most twice
        # that.
        bound = 2.0 * 3.0 * tol * 0.85 / 0.15
        for want, have in zip(expected, got):
            assert sorted(have) == list(range(len(want)))
            for i, scores in enumerate(want):
                assert np.abs(have[i] - scores).sum() <= bound


class TestTimerAndLifecycle:
    def test_close_is_idempotent(self):
        graph = _graph()
        with RankingService(graph) as service:
            front = ServingFront(service, workers=2)
            front.close()
            front.close()

    def test_validation(self):
        graph = _graph()
        with RankingService(graph) as service:
            with pytest.raises(ParameterError):
                ServingFront(service, workers=0)
