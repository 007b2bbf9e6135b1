"""Unit and cross-validation tests for repro.linalg.solvers."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RankingService, RankQuery, RankRequest, d2pr, solve_many
from repro.errors import ParameterError
from repro.graph import DiGraph, Graph, erdos_renyi
from repro.linalg import (
    direct_solve,
    extrapolated_power_iteration,
    gauss_seidel,
    patch_dangling,
    power_iteration,
    uniform_transition,
)
from repro.linalg.batch import power_iteration_batch
from repro.linalg.incremental import incremental_update
from repro.linalg.push import forward_push
from repro.shard import sharded_solve


def _transition(graph):
    return uniform_transition(graph.to_csr(weighted=False))


class TestPowerIteration:
    def test_scores_sum_to_one(self, figure1_graph):
        result = power_iteration(_transition(figure1_graph))
        assert result.scores.sum() == pytest.approx(1.0)
        assert result.converged

    def test_scores_positive(self, figure1_graph):
        result = power_iteration(_transition(figure1_graph))
        assert (result.scores > 0).all()

    def test_residuals_monotone_overall(self, figure1_graph):
        result = power_iteration(_transition(figure1_graph))
        assert result.residuals[-1] < result.residuals[0]
        assert result.final_residual == result.residuals[-1]

    def test_alpha_zero_returns_teleport(self, figure1_graph):
        n = figure1_graph.number_of_nodes
        result = power_iteration(_transition(figure1_graph), alpha=0.0)
        assert np.allclose(result.scores, 1.0 / n)
        assert result.iterations == 1

    def test_custom_teleport_normalised(self, figure1_graph):
        n = figure1_graph.number_of_nodes
        teleport = np.zeros(n)
        teleport[0] = 10.0  # un-normalised on purpose
        result = power_iteration(_transition(figure1_graph), teleport=teleport)
        assert result.scores.sum() == pytest.approx(1.0)
        assert result.scores[0] > result.scores[-1]

    def test_invalid_alpha_rejected(self, figure1_graph):
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), alpha=1.0)
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), alpha=-0.1)

    def test_bad_teleport_shape_rejected(self, figure1_graph):
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), teleport=np.ones(2))

    def test_negative_teleport_rejected(self, figure1_graph):
        n = figure1_graph.number_of_nodes
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), teleport=-np.ones(n))

    def test_zero_teleport_rejected(self, figure1_graph):
        n = figure1_graph.number_of_nodes
        with pytest.raises(ParameterError):
            power_iteration(_transition(figure1_graph), teleport=np.zeros(n))

    def test_max_iter_exhaustion_flagged(self, figure1_graph):
        result = power_iteration(
            _transition(figure1_graph), tol=1e-16, max_iter=3
        )
        assert not result.converged
        assert result.iterations == 3

    def test_unknown_dangling_strategy_rejected(self, dangling_digraph):
        with pytest.raises(ParameterError):
            power_iteration(_transition(dangling_digraph), dangling="bogus")

    def test_ranking_sorted_by_score(self, figure1_graph):
        result = power_iteration(_transition(figure1_graph))
        ranked = result.ranking()
        scores = result.scores[ranked]
        assert (np.diff(scores) <= 1e-15).all()

    def test_empty_matrix_rejected(self):
        from scipy import sparse

        with pytest.raises(ParameterError):
            power_iteration(sparse.csr_matrix((0, 0)))


class TestDanglingHandling:
    def test_teleport_strategy_conserves_mass(self, dangling_digraph):
        result = power_iteration(_transition(dangling_digraph))
        assert result.scores.sum() == pytest.approx(1.0)

    def test_sink_gets_high_score_with_self_strategy(self, dangling_digraph):
        kept = power_iteration(_transition(dangling_digraph), dangling="self")
        spread = power_iteration(_transition(dangling_digraph), dangling="teleport")
        c = dangling_digraph.index_of("c")
        # keeping mass in place concentrates it on the sink
        assert kept.scores[c] > spread.scores[c]

    def test_uniform_strategy_close_to_teleport_for_uniform_t(self, dangling_digraph):
        a = power_iteration(_transition(dangling_digraph), dangling="teleport")
        b = power_iteration(_transition(dangling_digraph), dangling="uniform")
        # identical because default teleport IS uniform
        assert np.allclose(a.scores, b.scores, atol=1e-9)

    def test_patch_dangling_makes_rows_stochastic(self, dangling_digraph):
        patched = patch_dangling(_transition(dangling_digraph))
        sums = np.asarray(patched.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_patch_dangling_no_op_without_dangling(self, figure1_graph):
        t = _transition(figure1_graph)
        patched = patch_dangling(t)
        assert np.allclose(patched.toarray(), t.toarray())

    def test_patch_dangling_self_strategy(self, dangling_digraph):
        patched = patch_dangling(_transition(dangling_digraph), dangling="self")
        c = dangling_digraph.index_of("c")
        assert patched[c, c] == pytest.approx(1.0)


class TestSolverAgreement:
    def test_three_solvers_same_fixed_point(self, figure1_graph):
        t = _transition(figure1_graph)
        pw = power_iteration(t, tol=1e-13)
        gs = gauss_seidel(t, tol=1e-13)
        ds = direct_solve(t)
        assert np.allclose(pw.scores, ds.scores, atol=1e-9)
        assert np.allclose(gs.scores, ds.scores, atol=1e-9)

    def test_agreement_with_dangling(self, dangling_digraph):
        t = _transition(dangling_digraph)
        pw = power_iteration(t, tol=1e-13)
        gs = gauss_seidel(t, tol=1e-13)
        ds = direct_solve(t)
        assert np.allclose(pw.scores, ds.scores, atol=1e-8)
        assert np.allclose(gs.scores, ds.scores, atol=1e-8)

    def test_agreement_on_random_graph(self):
        g = erdos_renyi(60, 0.1, seed=17)
        t = _transition(g)
        pw = power_iteration(t, tol=1e-13)
        ds = direct_solve(t)
        assert np.allclose(pw.scores, ds.scores, atol=1e-8)

    def test_gauss_seidel_converges_and_tracks_residuals(self, figure1_graph):
        t = _transition(figure1_graph)
        gs = gauss_seidel(t, tol=1e-12)
        assert gs.converged
        assert gs.residuals[-1] < 1e-12
        assert gs.residuals[0] > gs.residuals[-1]

    def test_direct_solve_reports_converged(self, figure1_graph):
        result = direct_solve(_transition(figure1_graph))
        assert result.converged
        assert result.method == "direct_solve"


class TestAgainstNetworkx:
    """networkx is used strictly as a test oracle, never as a dependency."""

    def _nx_pagerank(self, graph: Graph, alpha: float) -> np.ndarray:
        nxg = nx.Graph()
        nxg.add_nodes_from(graph.nodes())
        for u, v, _w in graph.edges():
            nxg.add_edge(u, v)
        pr = nx.pagerank(nxg, alpha=alpha, tol=1e-12, max_iter=500)
        return np.array([pr[node] for node in graph.nodes()])

    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.9])
    def test_matches_networkx_undirected(self, figure1_graph, alpha):
        t = _transition(figure1_graph)
        ours = power_iteration(t, alpha=alpha, tol=1e-13).scores
        theirs = self._nx_pagerank(figure1_graph, alpha)
        assert np.allclose(ours, theirs, atol=1e-7)

    def test_matches_networkx_random_graph(self):
        g = erdos_renyi(80, 0.08, seed=23)
        t = _transition(g)
        ours = power_iteration(t, alpha=0.85, tol=1e-13).scores
        theirs = self._nx_pagerank(g, 0.85)
        assert np.allclose(ours, theirs, atol=1e-7)

    def test_matches_networkx_directed_with_dangling(self, dangling_digraph):
        nxg = nx.DiGraph()
        nxg.add_nodes_from(dangling_digraph.nodes())
        for u, v, _w in dangling_digraph.edges():
            nxg.add_edge(u, v)
        pr = nx.pagerank(nxg, alpha=0.85, tol=1e-12, max_iter=500)
        theirs = np.array([pr[n] for n in dangling_digraph.nodes()])
        ours = power_iteration(
            _transition(dangling_digraph), alpha=0.85, tol=1e-13
        ).scores
        assert np.allclose(ours, theirs, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    p=st.floats(min_value=0.05, max_value=0.5),
    alpha=st.floats(min_value=0.0, max_value=0.95),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_power_iteration_invariants(n, p, alpha, seed):
    """Stationary vector is a probability distribution for any graph."""
    g = erdos_renyi(n, p, seed=seed)
    t = uniform_transition(g.to_csr(weighted=False))
    result = power_iteration(t, alpha=alpha, tol=1e-11, max_iter=2000)
    assert result.scores.shape == (n,)
    assert result.scores.sum() == pytest.approx(1.0)
    assert (result.scores >= 0).all()


@settings(max_examples=10, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=12),
        ),
        min_size=1,
        max_size=40,
    ),
    alpha=st.floats(min_value=0.1, max_value=0.9),
)
def test_power_iteration_matches_direct_on_random_digraphs(edges, alpha):
    """Power iteration and LU agree on arbitrary digraphs (incl. dangling)."""
    g = DiGraph()
    g.add_nodes_from(range(13))
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    t = uniform_transition(g.to_csr(weighted=False))
    pw = power_iteration(t, alpha=alpha, tol=1e-13, max_iter=5000)
    ds = direct_solve(t, alpha=alpha)
    assert np.allclose(pw.scores, ds.scores, atol=1e-7)


def _poisoned(n: int, bad: float) -> np.ndarray:
    vec = np.full(n, 1.0 / n)
    vec[1] = bad
    return vec


_NON_FINITE_CASES = {
    "power_iteration": lambda g, bad: power_iteration(
        _transition(g), teleport=_poisoned(g.number_of_nodes, bad)
    ),
    "power_iteration_x0": lambda g, bad: power_iteration(
        _transition(g), x0=_poisoned(g.number_of_nodes, bad)
    ),
    "power_iteration_batch": lambda g, bad: power_iteration_batch(
        _transition(g), [_poisoned(g.number_of_nodes, bad)]
    ),
    "solve_many": lambda g, bad: solve_many(
        g, [RankQuery(teleport=_poisoned(g.number_of_nodes, bad))]
    ),
    "d2pr": lambda g, bad: d2pr(g, 1.0, teleport={"A": 1.0, "B": bad}),
    "forward_push": lambda g, bad: forward_push(
        _transition(g), {0: 1.0, 1: bad}
    ),
    "forward_push_dense": lambda g, bad: forward_push(
        _transition(g), _poisoned(g.number_of_nodes, bad)
    ),
    "incremental_update": lambda g, bad: incremental_update(
        _transition(g), _poisoned(g.number_of_nodes, bad)
    ),
    "rank_request": lambda g, bad: RankingService(g).rank(
        RankRequest(p=1.0, seeds={"A": 1.0, "B": bad})
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(_NON_FINITE_CASES))
def test_non_finite_input_rejected(figure1_graph, case, bad):
    """A NaN/inf teleport, seed or start vector fails fast.

    NaN passes both ``< 0`` and ``<= 0`` checks, so without an explicit
    finiteness check every solver ran its whole budget and returned NaN
    scores, and the planner dropped a NaN seed and served the rest.
    """
    with pytest.raises(ParameterError, match="finite"):
        _NON_FINITE_CASES[case](figure1_graph, bad)


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


_BUDGET_CASES = {
    "power_iteration": lambda g, **kw: power_iteration(_transition(g), **kw),
    "extrapolated_power_iteration": lambda g, **kw: (
        extrapolated_power_iteration(_transition(g), **kw)
    ),
    "gauss_seidel": lambda g, **kw: gauss_seidel(_transition(g), **kw),
    "power_iteration_batch": lambda g, **kw: power_iteration_batch(
        _transition(g), **kw
    ),
    "forward_push": lambda g, **kw: forward_push(
        _transition(g), {0: 1.0}, **kw
    ),
    "incremental_update": lambda g, **kw: incremental_update(
        _transition(g), _uniform(g.number_of_nodes), **kw
    ),
    "sharded_solve": lambda g, **kw: sharded_solve(
        _transition(g), size_floor=0, n_shards=2, **kw
    ),
    "d2pr": lambda g, **kw: d2pr(g, 1.0, **kw),
    "solve_many": lambda g, **kw: solve_many(g, [RankQuery(p=1.0)], **kw),
}


@pytest.mark.parametrize(
    "budget",
    [
        {"tol": np.nan},
        {"tol": 0.0},
        {"tol": -1.0},
        {"max_iter": 0},
        {"max_iter": -5},
    ],
    ids=["tol-nan", "tol-0", "tol-neg", "max_iter-0", "max_iter-neg"],
)
@pytest.mark.parametrize("case", sorted(_BUDGET_CASES))
def test_bad_budget_rejected(figure1_graph, case, budget):
    """A ``tol`` no residual can meet or a budget of no step fails fast.

    Unchecked, a NaN or non-positive ``tol`` ran the whole budget and
    returned ``converged=False``, and ``max_iter < 1`` returned the
    start vector as the scores.
    """
    name = next(iter(budget))
    with pytest.raises(ParameterError, match=f"{name} must be positive"):
        _BUDGET_CASES[case](figure1_graph, **budget)
