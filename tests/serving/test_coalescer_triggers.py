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
