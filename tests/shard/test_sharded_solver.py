"""Property suite: sharded solves match the monolithic solver.

The contract under test is ISSUE-level: for every graph shape, dangling
strategy, seed spelling and shard count (including the degenerate 1 and
more-shards-than-nodes cases), :func:`repro.shard.solver.sharded_solve`
converges to the same certified tolerance as monolithic
:func:`repro.linalg.power_iteration` on the same operator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.d2pr import d2pr_operator
from repro.core.engine import RankQuery, solve_transition
from repro.errors import ParameterError
from repro.graph import DiGraph, Graph
from repro.linalg import power_iteration
from repro.shard import sharded_solve
from tests.shard.conftest import community_edges

TOL = 1e-11
MATCH = 5e-9


def _graphs():
    edges, _ = community_edges(n_comm=3, csize=50, cross=25, seed=11)
    yield "digraph", DiGraph.from_edges(edges)
    yield "graph", Graph.from_edges(edges)
    # digraph with dangling sinks
    g = DiGraph.from_edges(edges)
    g.add_edge(4, 7001)
    g.add_edge(61, 7002)
    yield "dangling", g


GRAPHS = dict(_graphs())


def _solve_pair(graph, *, dangling, teleport=None, n_shards=4, **kw):
    bundle = d2pr_operator(graph, 0.0)
    reference = power_iteration(
        None,
        alpha=0.85,
        teleport=teleport,
        dangling=dangling,
        tol=TOL,
        operator=bundle,
    )
    result = sharded_solve(
        alpha=0.85,
        teleport=teleport,
        dangling=dangling,
        tol=TOL,
        operator=bundle,
        n_shards=n_shards,
        size_floor=0,
        **kw,
    )
    return reference, result


@pytest.mark.parametrize("name", list(GRAPHS))
@pytest.mark.parametrize("dangling", ["teleport", "uniform", "self"])
@pytest.mark.parametrize("n_shards", [1, 4])
def test_matches_power_iteration(name, dangling, n_shards):
    graph = GRAPHS[name]
    reference, result = _solve_pair(
        graph, dangling=dangling, n_shards=n_shards
    )
    assert result.converged
    assert np.abs(result.scores - reference.scores).sum() < MATCH
    assert result.method.startswith("sharded")


@pytest.mark.parametrize("spelling", ["array", "sparse"])
def test_seed_spellings(community_digraph, spelling):
    n = community_digraph.number_of_nodes
    teleport = np.zeros(n)
    teleport[[3, 80, 200]] = [0.2, 0.5, 0.3]
    if spelling == "sparse":
        # an equivalent scaled spelling must produce the same scores
        arg = teleport * 7.0
    else:
        arg = teleport
    reference, result = _solve_pair(
        community_digraph, dangling="teleport", teleport=arg
    )
    assert np.abs(result.scores - reference.scores).sum() < MATCH


def test_more_shards_than_nodes():
    g = DiGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    reference, result = _solve_pair(g, dangling="teleport", n_shards=50)
    assert np.abs(result.scores - reference.scores).sum() < MATCH


def _directed_communities(n, k_comm, deg, cross, seed):
    """``k_comm`` index-contiguous communities with ``cross`` rewiring."""
    rng = np.random.default_rng(seed)
    csize = n // k_comm
    src = np.tile(np.arange(n, dtype=np.int64), deg)
    base = (src // csize) * csize
    dst = base + (src - base + rng.integers(1, csize, size=src.size)) % csize
    stray = rng.random(src.size) < cross
    dst[stray] = rng.integers(0, n, size=int(stray.sum()))
    keep = src != dst
    return DiGraph.from_arrays(src[keep], dst[keep], num_nodes=n)


def test_certified_against_power_on_community_graph():
    """Both sides stop on the same L1 certificate, so they agree within it.

    Each answer is within ``tol·α/(1−α)`` of the fixed point, hence the
    two are within twice that of each other.  The sharded side runs the
    graph-cached operator at the community count, as served.
    """
    from repro.methods import sharded_operator_for

    alpha, tol = 0.9, 1e-8
    graph = _directed_communities(8000, 8, 8, 0.02, seed=3)
    bundle = d2pr_operator(graph, 1.0)
    sharded = sharded_operator_for(
        graph, RankQuery(p=1.0).group_key, n_shards=8
    )
    assert sharded.bundle is bundle
    power = power_iteration(None, alpha=alpha, tol=tol, operator=bundle)
    result = sharded_solve(alpha=alpha, tol=tol, sharded=sharded)
    assert result.converged and result.method == "sharded_block_gs"
    assert result.iterations < power.iterations
    l1 = float(np.abs(result.scores - power.scores).sum())
    assert l1 <= 2.0 * tol * alpha / (1.0 - alpha)


def test_below_floor_falls_back(path_graph):
    bundle = d2pr_operator(path_graph, 0.0)
    result = sharded_solve(
        alpha=0.85, dangling="teleport", tol=TOL, operator=bundle
    )
    assert result.method == "sharded_fallback_power"
    reference = power_iteration(
        None, alpha=0.85, dangling="teleport", tol=TOL, operator=bundle
    )
    assert np.abs(result.scores - reference.scores).sum() < MATCH


def test_budget_exhaustion_reported(community_digraph):
    bundle = d2pr_operator(community_digraph, 0.0)
    result = sharded_solve(
        alpha=0.85, dangling="teleport", tol=1e-14, max_iter=1,
        operator=bundle, size_floor=0, n_shards=4,
    )
    assert not result.converged
    assert result.iterations == 1


def test_parameter_validation(community_digraph):
    bundle = d2pr_operator(community_digraph, 0.0)
    with pytest.raises(ParameterError):
        sharded_solve(alpha=1.5, operator=bundle, size_floor=0)
    with pytest.raises(ParameterError):
        sharded_solve(
            alpha=0.85, dangling="nope", operator=bundle, size_floor=0
        )


def test_engine_rejects_sharded_solver(community_digraph):
    # Sharded solves run through sharded_solve and the service's
    # "sharded" strategy only; the engine dispatch has no such solver.
    bundle = d2pr_operator(community_digraph, 0.0)
    with pytest.raises(ParameterError, match="unknown solver"):
        solve_transition(bundle.mat, solver="sharded", operator=bundle)
