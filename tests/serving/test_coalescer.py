"""Tests for the microbatch coalescer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, personalized_d2pr
from repro.errors import ParameterError
from repro.graph import Graph
from repro.methods import family_method
from repro.serving import MicrobatchCoalescer


def _graph(n=150, m=1500, seed=1):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


GROUP = ("d2pr", 1.0, 0.0, False, "teleport")


def _pool(group_key, tol):
    """The coalescer group a key's columns file into."""
    return (*family_method(group_key).pool_key(group_key), tol)


def _teleport(graph, idx):
    t = np.zeros(graph.number_of_nodes)
    t[idx] = 1.0
    return t


class TestSubmitFlush:
    def test_ticket_resolves_on_demand(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=8)
        ticket = co.submit(
            GROUP, teleport=None, alpha=0.85, tol=1e-10
        )
        assert not ticket.done
        result = ticket.result()  # flushes the partial window
        assert ticket.done
        ref = d2pr(graph, 1.0, tol=1e-10)
        assert np.abs(result.scores - ref.values).max() < 1e-9

    def test_window_auto_flushes(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=3)
        tickets = [
            co.submit(GROUP, teleport=_teleport(graph, i), alpha=0.85,
                      tol=1e-10)
            for i in range(3)
        ]
        assert all(t.done for t in tickets)
        assert co.stats()["flushes"] == 1
        assert co.stats()["max_occupancy"] == 3

    def test_columns_match_individual_solves(self):
        graph = _graph()
        nodes = graph.nodes()
        co = MicrobatchCoalescer(graph, window=16)
        tickets = [
            co.submit(GROUP, teleport=_teleport(graph, i), alpha=0.85,
                      tol=1e-10)
            for i in range(5)
        ]
        co.flush()
        for i, ticket in enumerate(tickets):
            ref = personalized_d2pr(graph, [nodes[i]], 1.0, tol=1e-10)
            assert np.abs(ticket.result().scores - ref.values).max() < 1e-9

    def test_groups_do_not_mix(self):
        # Keys over one adjacency share a pool; another dangling
        # strategy is another pool and never joins the block.
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=16)
        t_a = co.submit(GROUP, teleport=None, alpha=0.85, tol=1e-10)
        other = ("d2pr", 0.0, 0.0, False, "uniform")
        t_b = co.submit(other, teleport=None, alpha=0.85, tol=1e-10)
        co.flush(_pool(GROUP, 1e-10))
        assert t_a.done and not t_b.done
        ref = d2pr(graph, 0.0, tol=1e-10, dangling="uniform")
        assert np.abs(t_b.result().scores - ref.values).max() < 1e-9

    def test_different_tolerances_never_share_a_block(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=2)
        co.submit(GROUP, teleport=None, alpha=0.85, tol=1e-8)
        co.submit(GROUP, teleport=None, alpha=0.85, tol=1e-10)
        # Two pending singleton groups — neither window filled.
        assert co.pending == 2
        co.flush()
        assert co.pending == 0
        assert co.stats()["flushes"] == 2

    def test_alpha_family_sorted_adjacent(self):
        # A shared-teleport alpha grid submitted out of order still
        # solves correctly, and the batch solver's family fast path
        # fires whatever the column order.
        graph = _graph()
        alphas = (0.9, 0.3, 0.6, 0.75)
        co = MicrobatchCoalescer(graph, window=16)
        tickets = {
            alpha: co.submit(GROUP, teleport=None, alpha=alpha, tol=1e-10)
            for alpha in alphas
        }
        co.flush()
        for alpha, ticket in tickets.items():
            ref = d2pr(graph, 1.0, alpha=alpha, tol=1e-10)
            assert np.abs(ticket.result().scores - ref.values).max() < 1e-8
            assert ticket.meta["batch_method"].endswith("_family")

    def test_repeated_flush_solves_cold(self):
        """An identical second flush runs as many sweeps as the first."""
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=16)
        runs = []
        for _ in range(2):
            tickets = [
                co.submit(GROUP, teleport=_teleport(graph, i), alpha=0.85,
                          tol=1e-10)
                for i in range(3)
            ]
            co.flush()
            runs.append([t.result() for t in tickets])
        for first, again in zip(*runs):
            assert again.iterations == first.iterations
            assert np.array_equal(again.scores, first.scores)

    def test_groups_dropped_once_resolved(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=16)
        tickets = [
            co.submit(("d2pr", p, 0.0, False, dangling),
                      teleport=_teleport(graph, i), alpha=0.85, tol=1e-8)
            for p in (0.0, 1.0)
            for dangling in ("teleport", "uniform")
            for i in range(2)
        ]
        # One pool per dangling strategy: both p values share it.
        assert len(co._groups) == 2
        for ticket in tickets:
            ticket.result()
        assert co._groups == {}


class TestValidationAndStats:
    def test_rejects_bad_window_and_precision(self):
        graph = _graph()
        with pytest.raises(ParameterError):
            MicrobatchCoalescer(graph, window=0)
        with pytest.raises(TypeError):
            MicrobatchCoalescer(graph, precision="half")

    def test_rejects_bad_tol(self):
        co = MicrobatchCoalescer(_graph())
        with pytest.raises(ParameterError):
            co.submit(GROUP, teleport=None, alpha=0.85, tol=0.0)

    def test_rejects_bad_teleport_at_submit(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph)
        for bad in (np.zeros(graph.number_of_nodes),
                    -_teleport(graph, 0),
                    np.full(graph.number_of_nodes, np.nan)):
            with pytest.raises(ParameterError):
                co.submit(GROUP, teleport=bad, alpha=0.85, tol=1e-8)
        assert co.pending == 0

    def test_groups_with_pending_columns_survive_eviction(self):
        # Flushed groups are dropped; a group still holding a pending
        # column is not.
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=16)
        waiting = ("d2pr", 0.0, 0.0, False, "self")
        pending = co.submit(waiting, teleport=None, alpha=0.85, tol=1e-8)
        for dangling in ("teleport", "uniform"):
            key = ("d2pr", 1.0, 0.0, False, dangling)
            co.submit(key, teleport=None, alpha=0.85, tol=1e-8)
            co.flush(_pool(key, 1e-8))
        assert set(co._groups) == {_pool(waiting, 1e-8)}
        assert not pending.done
        ref = d2pr(graph, 0.0, tol=1e-8, dangling="self")
        assert np.abs(pending.result().scores - ref.values).max() < 1e-7
        assert co._groups == {}

    def test_stats_track_occupancy(self):
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=2)
        for i in range(5):
            co.submit(GROUP, teleport=_teleport(graph, i), alpha=0.85,
                      tol=1e-10)
        co.flush()
        stats = co.stats()
        assert stats["flushes"] == 3
        assert stats["columns"] == 5
        assert stats["max_occupancy"] == 2
        assert stats["pending"] == 0
        assert 1.0 <= stats["mean_occupancy"] <= 2.0


def _weighted(directed=False, n=120, m=900, seed=3):
    from repro.graph import DiGraph

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.integers(1, 6, keep.sum()).astype(float)
    cls = DiGraph if directed else Graph
    return cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)


class TestPooledGrid:
    """A d2pr p grid over one adjacency solves as one scaled block."""

    P_GRID = (-2.0, -1.0, 0.0, 1.5, 3.0)
    TOL = 1e-8
    ALPHA = 0.85
    # The batch (Chebyshev) answer and the reference each sit within
    # α/(1−α)·tol of the fixed point.
    BOUND = 2 * ALPHA / (1 - ALPHA) * TOL

    def _request(self, **kw):
        from repro.serving import RankRequest

        kw.setdefault("method", "d2pr")
        return RankRequest(weighted=True, tol=self.TOL, **kw)

    def test_grid_is_one_flush_without_transitions(self):
        from repro.serving import RankingService

        graph = _weighted()
        service = RankingService(graph)
        served = service.rank_many([self._request(p=p) for p in self.P_GRID])
        stats = service.coalescer.stats()
        assert stats["flushes"] == 1
        assert stats["max_occupancy"] == 5
        assert not [k for k in graph._cache if k[:2] == ("operator", "d2pr")]
        for p, answer in zip(self.P_GRID, served):
            assert answer.scores.solver_result.method.endswith("_chebyshev")
            ref = d2pr(graph, p, weighted=True, tol=self.TOL).values
            assert np.abs(answer.scores.values - ref).sum() < self.BOUND

    def test_seventeen_point_grid_is_one_block(self):
        from repro.serving import RankingService

        grid = np.arange(-4.0, 4.01, 0.5)
        service = RankingService(_weighted())
        service.rank_many([self._request(p=p) for p in grid])
        stats = service.coalescer.stats()
        assert stats["flushes"] == 1
        assert stats["max_occupancy"] == 17
        assert stats["flush_causes"]["window"] == 1

    def test_blend_and_fatigued_in_the_same_burst(self):
        from repro.linalg import power_iteration
        from repro.methods import fatigued_transition
        from repro.serving import RankingService

        graph = _weighted()
        service = RankingService(graph)
        requests = [self._request(p=p) for p in self.P_GRID] + [
            self._request(p=1.0, beta=0.3),
            self._request(method="fatigued", p=1.0, fatigue=0.5),
        ]
        served = service.rank_many(requests)
        # The blend is its own pool; the fatigued column joins the grid.
        stats = service.coalescer.stats()
        assert stats["flushes"] == 2
        assert stats["max_occupancy"] == 6
        for p, answer in zip(self.P_GRID, served):
            ref = d2pr(graph, p, weighted=True, tol=self.TOL).values
            assert np.abs(answer.scores.values - ref).sum() < self.BOUND
        blend = d2pr(graph, 1.0, beta=0.3, weighted=True, tol=self.TOL)
        blended = served[5].scores.values
        assert np.abs(blended - blend.values).sum() < self.BOUND
        fatigued = power_iteration(
            fatigued_transition(graph, 1.0, fatigue=0.5, weighted=True),
            tol=self.TOL,
        )
        assert np.abs(
            served[6].scores.values - fatigued.scores
        ).sum() < self.BOUND

    def test_directed_grid_runs_plain_power(self):
        from repro.serving import RankingService

        graph = _weighted(directed=True)
        service = RankingService(graph)
        served = service.rank_many([self._request(p=p) for p in self.P_GRID])
        assert service.coalescer.stats()["flushes"] == 1
        for p, answer in zip(self.P_GRID, served):
            method = answer.scores.solver_result.method
            assert method == "power_iteration_batch"
            ref = d2pr(graph, p, weighted=True, tol=self.TOL).values
            assert np.abs(answer.scores.values - ref).sum() < self.BOUND
