"""Shared hypothesis cases for the solvers on transition factors.

A case is a small ``Graph`` or ``DiGraph`` (weighted or not, with an
isolated node), a D2PR-family key that factors — ``p ∈ {−1.5, 0, 1}``,
``β ∈ {0, 1}``, or fatigued — and 1–3 chained deltas of inserts,
deletes and reweights, some of which strip a node of every out-edge so
that it becomes dangling.  The oracle transition comes from the
paper-era builders of ``linalg/transition.py``, independently of the
factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from scipy import sparse

from repro.graph import DiGraph, Graph, GraphDelta
from repro.linalg.transition import (
    blended_transition,
    degree_decoupled_transition,
)
from repro.methods import family_method


def oracle_transition(graph, key) -> sparse.csr_matrix:
    """``key``'s transition from the paper-era builders: ``θ``, the clamp
    and the fatigue rescale are derived here, not from the factors."""
    if key[0] == "fatigued":
        _, p, fatigue, beta, weighted, _ = key
    else:
        (_, p, beta, weighted, _), fatigue = key, 0.0
    adjacency = graph.to_csr(weighted=weighted)
    theta = np.asarray(adjacency.sum(axis=1)).ravel()
    if weighted:
        positive = theta[theta > 0]
        floor = float(positive.min()) if positive.size else 1.0
        mat = blended_transition(adjacency, p, beta, clamp_min=floor)
    else:
        mat = degree_decoupled_transition(adjacency, p, clamp_min=1.0)
    if fatigue == 0.0 or theta.max() == 0.0:
        return sparse.csr_matrix(mat)
    keep = 1.0 - fatigue * theta / theta.max()
    mat = mat.multiply(keep[np.newaxis, :]).tocsr()
    mass = np.asarray(mat.sum(axis=1)).ravel()
    inv = np.divide(1.0, mass, out=np.zeros_like(mass), where=mass > 0.0)
    return sparse.csr_matrix(sparse.diags(inv) @ mat)


def augmented(P, t, dangling) -> np.ndarray:
    """Dense ``P̂``: dangling rows replaced as the solvers replace them."""
    n = P.shape[0]
    hat = P.toarray()
    sinks = np.flatnonzero(np.diff(P.indptr) == 0)
    if dangling == "teleport":
        hat[sinks] = t
    elif dangling == "uniform":
        hat[sinks] = 1.0 / n
    else:
        hat[sinks, sinks] = 1.0
    return hat


def exact(P, t, alpha, dangling) -> np.ndarray:
    """The fixed point by a dense linear solve."""
    hat = augmented(P, t, dangling)
    n = hat.shape[0]
    return np.linalg.solve(np.eye(n) - alpha * hat.T, (1.0 - alpha) * t)


@dataclass
class Case:
    graph: object
    key: tuple
    rng: np.random.Generator
    deltas: int

    def factors(self):
        return family_method(self.key).factors(self.graph, self.key)

    def apply_deltas(self) -> np.ndarray:
        """Apply the chained deltas; return the union of their endpoints."""
        touched = []
        for _ in range(self.deltas):
            delta = _delta(self.graph, self.rng)
            touched.append(delta.endpoints())
            self.graph.apply_delta(delta)
        return np.unique(np.concatenate(touched))


def _delta(graph, rng) -> GraphDelta:
    """Inserts, deletes and reweights; sometimes a node loses every
    out-edge (a DiGraph node becomes dangling, a Graph node isolated)."""
    n = graph.number_of_nodes
    er, ec, _ = graph.edge_arrays()
    delta = GraphDelta()
    if er.size and rng.random() < 0.4:
        u = int(er[rng.integers(er.size)])
        mine = (er == u) if graph.directed else ((er == u) | (ec == u))
        delta = delta | GraphDelta.delete(er[mine], ec[mine])
    elif er.size:
        pick = rng.choice(er.size, min(er.size, 2), replace=False)
        delta = delta | GraphDelta.delete(er[pick[:1]], ec[pick[:1]])
        if rng.random() < 0.5:
            delta = delta | GraphDelta.reweight(
                er[pick[1:]], ec[pick[1:]], rng.uniform(0.2, 5.0, pick[1:].size)
            )
    src = rng.integers(0, n - 1, 2)
    dst = (src + rng.integers(1, n - 1, 2)) % (n - 1)
    keep = src != dst
    return delta | GraphDelta.insert(
        src[keep], dst[keep], rng.uniform(0.2, 5.0, int(keep.sum()))
    )


@st.composite
def factor_cases(draw) -> Case:
    directed = draw(st.booleans())
    weighted = draw(st.booleans())
    n = draw(st.integers(20, 60))
    # Node n − 1 stays isolated.
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 2), st.integers(0, n - 2)),
            min_size=2 * n,
            max_size=4 * n,
        )
    )
    pairs = sorted((u, v) for u, v in pairs if u != v) or [(0, 1)]
    rows, cols = np.array(pairs, dtype=np.int64).T
    weights = (
        np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=rows.size,
                               max_size=rows.size)))
        if weighted
        else None
    )
    cls = DiGraph if directed else Graph
    graph = cls.from_arrays(rows, cols, weights, num_nodes=n)
    p = draw(st.sampled_from([-1.5, 0.0, 1.0]))
    beta = 1.0 if weighted and draw(st.booleans()) else 0.0
    if draw(st.booleans()):
        key = ("fatigued", p, 0.3, beta, weighted, "teleport")
    else:
        key = ("d2pr", p, beta, weighted, "teleport")
    dangling = draw(st.sampled_from(["teleport", "self", "uniform"]))
    key = key[:-1] + (dangling,)
    return Case(
        graph=graph,
        key=key,
        rng=np.random.default_rng(draw(st.integers(0, 2**16))),
        deltas=draw(st.integers(1, 3)),
    )
