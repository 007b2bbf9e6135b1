"""Flush-trigger tests for the microbatch coalescer (window / demand)."""

from __future__ import annotations

import numpy as np

from repro.graph import Graph
from repro.serving import MicrobatchCoalescer


def _graph(n=120, m=900, seed=4):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


GROUP = ("d2pr", 0.0, 0.0, False, "teleport")


def _teleport(graph, idx):
    t = np.zeros(graph.number_of_nodes)
    t[idx] = 1.0
    return t


def test_window_trigger_still_counts():
    graph = _graph()
    co = MicrobatchCoalescer(graph, window=2)
    co.submit(GROUP, teleport=_teleport(graph, 0), alpha=0.85, tol=1e-8)
    co.submit(GROUP, teleport=_teleport(graph, 1), alpha=0.85, tol=1e-8)
    stats = co.stats()
    assert stats["flush_causes"]["window"] == 1
    assert stats["mean_occupancy"] == 2.0


def test_demand_flush_counts():
    graph = _graph()
    co = MicrobatchCoalescer(graph, window=16)
    ticket = co.submit(
        GROUP, teleport=_teleport(graph, 0), alpha=0.85, tol=1e-8
    )
    ticket.result()
    assert co.stats()["flush_causes"]["demand"] == 1


def _burst(co, graph, count):
    with co.burst():
        tickets = [
            co.submit(GROUP, teleport=_teleport(graph, i), alpha=0.85,
                      tol=1e-8)
            for i in range(count)
        ]
    for ticket in tickets:
        ticket.result()
    return co.stats()


def test_burst_takes_a_short_tail_into_the_window():
    graph = _graph()
    co = MicrobatchCoalescer(graph, window=16)
    stats = _burst(co, graph, 18)  # window + window // 8
    assert stats["flushes"] == 1
    assert stats["max_occupancy"] == 18
    assert stats["flush_causes"] == {"window": 1, "demand": 0}


def test_burst_past_the_tail_flushes_a_window():
    graph = _graph()
    co = MicrobatchCoalescer(graph, window=16)
    stats = _burst(co, graph, 19)
    assert stats["flush_causes"] == {"window": 1, "demand": 1}
    assert stats["max_occupancy"] == 16
    # Outside a burst the window flushes as before.
    co.submit(GROUP, teleport=_teleport(graph, 0), alpha=0.5, tol=1e-8)
    assert co.pending == 1
