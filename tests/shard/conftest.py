"""Shared fixtures for the sharding tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DiGraph, Graph


def community_edges(n_comm=4, csize=80, cross=30, seed=7, offsets=(1, 3)):
    """Ring-of-communities edge list with sparse random cross edges."""
    rng = np.random.default_rng(seed)
    edges = []
    for c in range(n_comm):
        base = c * csize
        for i in range(csize):
            for off in offsets:
                edges.append((base + i, base + (i + off) % csize))
    n = n_comm * csize
    for _ in range(cross):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((u, v))
    return list(dict.fromkeys(edges)), n


@pytest.fixture
def community_digraph() -> DiGraph:
    edges, n = community_edges()
    return DiGraph.from_edges(edges)


@pytest.fixture
def community_graph() -> Graph:
    edges, n = community_edges()
    return Graph.from_edges(edges)


@pytest.fixture
def dangling_digraph() -> DiGraph:
    """Community digraph with genuine dangling rows in every community."""
    edges, n = community_edges(n_comm=3, csize=60, cross=15, seed=3)
    g = DiGraph.from_edges(edges)
    # dangling sinks: one extra node per community with only in-edges
    for c in range(3):
        g.add_edge(c * 60 + 5, n + c)
    return g
