"""The CSR edge store is the graph's only adjacency.

* A parity property test drives random interleavings of every mutator
  (per-edge, bulk, node and delta) over :class:`Graph` and
  :class:`DiGraph` and compares every read API after each step against
  a plain-dict oracle, including the sorted-store invariant.
* Regression tests pin the two costs the single store removed: point
  reads after ``apply_delta`` are served by a CSR that wraps the
  spliced store (no adjacency copy), and concurrent first reads after
  a delta agree.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.graph import DiGraph, Graph, GraphDelta


def _arr(*values):
    return np.array(values, dtype=np.int64)


class _Oracle:
    """Plain-dict model of a graph: node list + {canonical pair: weight}."""

    def __init__(self, directed: bool) -> None:
        self.directed = directed
        self.nodes: list[str] = []
        self.edges: dict[tuple[int, int], float] = {}

    def key(self, i: int, j: int) -> tuple[int, int]:
        return (i, j) if self.directed or i < j else (j, i)

    def add_node(self, node: str) -> int:
        if node not in self.nodes:
            self.nodes.append(node)
        return self.nodes.index(node)

    def out_nbrs(self, i: int) -> list[int]:
        out = {j for (a, j) in self.edges if a == i}
        if not self.directed:
            out |= {a for (a, j) in self.edges if j == i}
        return sorted(out)

    def in_nbrs(self, j: int) -> list[int]:
        return sorted(a for (a, b) in self.edges if b == j)

    def remove_node(self, idx: int) -> None:
        del self.nodes[idx]

        def shift(x: int) -> int:
            return x - 1 if x > idx else x

        self.edges = {
            (shift(i), shift(j)): w
            for (i, j), w in self.edges.items()
            if idx not in (i, j)
        }

    def dense(self) -> np.ndarray:
        n = len(self.nodes)
        out = np.zeros((n, n))
        for (i, j), w in self.edges.items():
            out[i, j] = w
            if not self.directed:
                out[j, i] = w
        return out


class _Run:
    """One random interleaving of mutations against a graph and its oracle."""

    def __init__(self, cls, backend: str, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.graph = cls(backend=backend)
        self.oracle = _Oracle(cls.directed)
        self.fresh = 0
        for _ in range(6):
            self.add_node()

    # -- helpers ---------------------------------------------------------
    def new_name(self) -> str:
        self.fresh += 1
        return f"n{self.fresh}"

    def pair(self, n: int) -> tuple[int, int]:
        i, j = self.rng.choice(n, 2, replace=False)
        return int(i), int(j)

    def some_node(self) -> str:
        if self.rng.random() < 0.15:
            return self.new_name()
        return self.oracle.nodes[int(self.rng.integers(len(self.oracle.nodes)))]

    # -- operations ------------------------------------------------------
    def add_node(self) -> None:
        name = self.new_name()
        self.graph.add_node(name)
        self.oracle.add_node(name)

    def add_edge(self) -> None:
        o = self.oracle
        if o.edges and self.rng.random() < 0.4:
            # Re-weight an existing edge, named in the reverse orientation
            # half the time (the same edge for a Graph, a new one for a
            # DiGraph).
            i, j = list(o.edges)[int(self.rng.integers(len(o.edges)))]
            if self.rng.random() < 0.5:
                i, j = j, i
            u, v = o.nodes[i], o.nodes[j]
        else:
            u, v = self.some_node(), self.some_node()
            if u == v:
                return
        w = float(self.rng.uniform(0.5, 3.0))
        self.graph.add_edge(u, v, weight=w)
        i, j = o.add_node(u), o.add_node(v)
        o.edges[o.key(i, j)] = w

    def increment_edge(self) -> None:
        o = self.oracle
        u, v = self.some_node(), self.some_node()
        if u == v:
            return
        d = float(self.rng.uniform(0.5, 2.0))
        self.graph.increment_edge(u, v, d)
        key = o.key(o.add_node(u), o.add_node(v))
        o.edges[key] = o.edges.get(key, 0.0) + d

    def add_edges_arrays(self) -> None:
        o = self.oracle
        n = len(o.nodes)
        k = int(self.rng.integers(1, 8))
        pairs = [self.pair(n) for _ in range(k)]
        pairs.append(pairs[0][::-1])  # a duplicate in the other orientation
        weights = self.rng.uniform(0.5, 3.0, len(pairs))
        self.graph.add_edges_arrays(
            _arr(*[i for i, _ in pairs]), _arr(*[j for _, j in pairs]), weights
        )
        for (i, j), w in zip(pairs, weights.tolist()):
            o.edges[o.key(i, j)] = w

    def apply_delta(self) -> None:
        o, rng = self.oracle, self.rng
        added = [self.new_name() for _ in range(int(rng.integers(0, 2)))]
        n = len(o.nodes) + len(added)
        existing = list(o.edges)
        k_del = min(len(existing), int(rng.integers(0, 3)))
        deleted = [
            existing[int(p)]
            for p in rng.choice(len(existing), k_del, replace=False)
        ]
        del_pairs = [
            (j, i) if not o.directed and rng.random() < 0.5 else (i, j)
            for i, j in deleted
        ]
        ins = [self.pair(n) for _ in range(int(rng.integers(0, 4)))]
        if ins and rng.random() < 0.5:
            ins.append(ins[0])  # duplicate insert: last weight wins
        ins_w = rng.uniform(0.5, 3.0, len(ins))
        survivors = [e for e in existing if e not in deleted]
        survivors += [o.key(i, j) for i, j in ins]
        survivors = sorted(set(survivors))
        k_rew = min(len(survivors), int(rng.integers(0, 3)))
        rew = [
            survivors[int(p)]
            for p in rng.choice(len(survivors), k_rew, replace=False)
        ]
        rew_w = rng.uniform(0.5, 3.0, len(rew))
        node_del = int(rng.integers(n)) if n > 4 and rng.random() < 0.2 else None

        delta = (
            GraphDelta.add_nodes(added)
            | GraphDelta.delete(
                _arr(*[i for i, _ in del_pairs]), _arr(*[j for _, j in del_pairs])
            )
            | GraphDelta.insert(
                _arr(*[i for i, _ in ins]), _arr(*[j for _, j in ins]), ins_w
            )
            | GraphDelta.reweight(
                _arr(*[i for i, _ in rew]), _arr(*[j for _, j in rew]), rew_w
            )
        )
        if node_del is not None:
            delta = delta | GraphDelta.remove_nodes([node_del])
        self.graph.apply_delta(delta)

        o.nodes.extend(added)
        for e in deleted:
            del o.edges[e]
        for (i, j), w in zip(ins, ins_w.tolist()):
            o.edges[o.key(i, j)] = w
        for e, w in zip(rew, rew_w.tolist()):
            o.edges[e] = w
        if node_del is not None:
            o.remove_node(node_del)

    def stage_then_delta(self) -> None:
        """A per-edge write still staged when the next delta lands."""
        self.add_edge()
        self.apply_delta()

    OPS = (
        "add_node", "add_edge", "add_edge", "increment_edge",
        "add_edges_arrays", "apply_delta", "stage_then_delta",
    )

    def step(self) -> None:
        getattr(self, self.OPS[int(self.rng.integers(len(self.OPS)))])()

    # -- the comparison --------------------------------------------------
    def check(self) -> None:
        g, o = self.graph, self.oracle
        names = o.nodes
        n = len(names)
        assert g.nodes() == names
        assert g.number_of_edges == len(o.edges)
        # Point lookups first: they must see staged writes without a fold.
        for (i, j), w in o.edges.items():
            assert g.has_edge(names[i], names[j])
            assert g.edge_weight(names[i], names[j]) == w
            assert g.has_edge(names[j], names[i]) == (
                not o.directed or (j, i) in o.edges
            )
        for _ in range(10):
            i, j = self.pair(n)
            assert g.has_edge(names[i], names[j]) == (o.key(i, j) in o.edges)
        for i, node in enumerate(names):
            out = o.out_nbrs(i)
            assert g.neighbors(node) == [names[j] for j in out]
            assert g.degree(node) == len(out)
            if o.directed:
                assert g.out_degree(node) == len(out)
                preds = o.in_nbrs(i)
                assert g.predecessors(node) == [names[j] for j in preds]
                assert g.in_degree(node) == len(preds)
        assert list(g.edges()) == [
            (names[i], names[j], w) for (i, j), w in sorted(o.edges.items())
        ]
        np.testing.assert_allclose(
            g.to_csr().toarray(), o.dense(), rtol=1e-12, atol=0.0
        )
        # The store is a row-major CSR over arcs: columns ascending and
        # unique within each row, one index dtype, symmetric on a Graph.
        indptr, indices, _ = g._csr_arrays()
        assert indptr.dtype == indices.dtype
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        assert np.all(np.diff(rows * n + indices) > 0)
        if not o.directed:
            mat = g.to_csr()
            assert (mat != mat.T).nnz == 0


@pytest.mark.parametrize("backend", ["memory", "mmap"])
@pytest.mark.parametrize("cls", [Graph, DiGraph])
@pytest.mark.parametrize("seed", range(3))
def test_random_interleavings_match_dict_oracle(cls, backend, seed):
    run = _Run(cls, backend, seed)
    run.check()
    for _ in range(40):
        run.step()
        run.check()


def _random_graph(cls, n=2000, m=20000, seed=3):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return cls.from_arrays(rows[keep], cols[keep], num_nodes=n)


def _absent_pair(graph, rng):
    n = graph.number_of_nodes
    while True:
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        if not graph.has_edge(u, v):
            return u, v


@pytest.mark.parametrize("cls", [Graph, DiGraph])
def test_point_reads_after_delta_use_refreshed_csr(cls):
    """neighbors()/degree() after a delta read one CSR wrapping the
    spliced store: built once (no copy), then hit."""
    rng = np.random.default_rng(5)
    g = _random_graph(cls)
    g.neighbors(0)  # warms to_csr()
    for _ in range(3):
        u, v = _absent_pair(g, rng)
        g.apply_delta(GraphDelta.insert(_arr(u), _arr(v)))
        before = g.cache_info()
        nbrs = g.neighbors(u)
        degree = g.degree(u)
        after = g.cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1
        for got, stored in zip(
            (g.to_csr().indptr, g.to_csr().indices), g.backend.csr
        ):
            assert np.shares_memory(got, stored)
        assert v in nbrs
        assert degree == len(nbrs)


def test_concurrent_neighbors_after_delta_agree():
    """Eight threads racing into the first post-delta read see one answer."""
    rng = np.random.default_rng(9)
    g = _random_graph(Graph, n=20000, m=200000)
    g.to_csr()
    probe = [int(x) for x in rng.choice(g.number_of_nodes, 16, replace=False)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            u, v = _absent_pair(g, rng)
            g.apply_delta(GraphDelta.insert(_arr(u), _arr(v)))
            nodes = probe + [u]
            barrier = threading.Barrier(8)
            results: list = [None] * 8

            def read(k: int) -> None:
                try:
                    barrier.wait(timeout=10)
                    results[k] = [g.neighbors(node) for node in nodes]
                except Exception as exc:  # surfaced by the assert below
                    results[k] = exc

            threads = [
                threading.Thread(target=read, args=(k,)) for k in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            rows, cols, _ = g.edge_arrays()
            expected = []
            for node in nodes:
                both = np.concatenate([cols[rows == node], rows[cols == node]])
                expected.append(sorted(both.tolist()))
            assert all(r == expected for r in results)
    finally:
        sys.setswitchinterval(old_interval)
