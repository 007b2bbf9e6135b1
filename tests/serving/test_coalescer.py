"""Tests for the microbatch coalescer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import d2pr, personalized_d2pr
from repro.errors import ParameterError
from repro.graph import Graph
from repro.serving import MicrobatchCoalescer


def _graph(n=150, m=1500, seed=1):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


GROUP = ("d2pr", 1.0, 0.0, False, "teleport")


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
        graph = _graph()
        co = MicrobatchCoalescer(graph, window=16)
        t_a = co.submit(GROUP, teleport=None, alpha=0.85, tol=1e-10)
        other = ("d2pr", 0.0, 0.0, False, "teleport")
        t_b = co.submit(other, teleport=None, alpha=0.85, tol=1e-10)
        co.flush(( *GROUP, 1e-10 ))
        assert t_a.done and not t_b.done
        assert np.abs(
            t_b.result().scores - d2pr(graph, 0.0, tol=1e-10).values
        ).max() < 1e-9

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
            co.submit(("d2pr", p, 0.0, False, "teleport"),
                      teleport=_teleport(graph, i), alpha=0.85, tol=1e-8)
            for p in (0.0, 1.0)
            for i in range(2)
        ]
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
        pending = co.submit(
            ("d2pr", 0.0, 0.0, False, "teleport"),
            teleport=None, alpha=0.85, tol=1e-8,
        )
        for p in (0.5, 1.0):
            co.submit(
                ("d2pr", p, 0.0, False, "teleport"),
                teleport=None, alpha=0.85, tol=1e-8,
            )
            co.flush(("d2pr", p, 0.0, False, "teleport", 1e-8))
        assert set(co._groups) == {("d2pr", 0.0, 0.0, False, "teleport", 1e-8)}
        assert not pending.done
        ref = d2pr(graph, 0.0, tol=1e-8)
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
