"""Backend parity: the mmap backend behaves exactly like the memory one.

The contract under test: a graph is *behaviourally identical* across
storage backends — same adjacency answers, same CSR edge store, same
matrices, same mutation semantics — with only ``describe()`` and the
residence of the store arrays differing.  Most cases run the
same assertion block against both backends and compare.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import pagerank
from repro.errors import ParameterError
from repro.graph import DiGraph, Graph, GraphDelta, InMemoryBackend, MmapBackend
from repro.graph.backends import resolve_backend
from repro.graph.backends.mmapped import MMAP_DIR_PREFIX

BACKEND_NAMES = ["memory", "mmap"]


def _random_edges(rng, n, m):
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.uniform(0.5, 2.0, int(keep.sum()))
    return rows[keep], cols[keep], weights


def _pair(cls, rng, n=80, m=600):
    """The same graph built on both backends."""
    rows, cols, weights = _random_edges(rng, n, m)
    mem = cls.from_arrays(rows, cols, weights, num_nodes=n)
    mm = cls.from_arrays(
        rows, cols, weights, num_nodes=n, backend="mmap"
    )
    return mem, mm


class TestResolveBackend:
    def test_accepts_name_instance_class_none(self):
        assert isinstance(resolve_backend(None), InMemoryBackend)
        assert isinstance(resolve_backend("memory"), InMemoryBackend)
        assert isinstance(resolve_backend("mmap"), MmapBackend)
        assert isinstance(resolve_backend(MmapBackend), MmapBackend)
        inst = InMemoryBackend()
        assert resolve_backend(inst) is inst

    def test_rejects_unknown(self):
        with pytest.raises(ParameterError):
            resolve_backend("tape")

    def test_backend_binds_once(self):
        backend = InMemoryBackend()
        Graph(backend=backend)
        with pytest.raises(ParameterError):
            Graph(backend=backend)


@pytest.mark.parametrize("cls", [Graph, DiGraph])
class TestParity:
    def test_structure_and_matrices_match(self, cls, rng):
        mem, mm = _pair(cls, rng)
        assert mem.number_of_edges == mm.number_of_edges
        assert (mem.to_csr() != mm.to_csr()).nnz == 0
        r1, c1, w1 = mem.edge_arrays()
        r2, c2, w2 = mm.edge_arrays()
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_allclose(w1, w2)
        for node in range(0, 80, 7):
            assert sorted(mem.neighbors(node)) == sorted(mm.neighbors(node))
            assert mem.degree(node) == mm.degree(node)

    def test_pagerank_matches(self, cls, rng):
        mem, mm = _pair(cls, rng)
        s1 = pagerank(mem).values
        s2 = pagerank(mm).values
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_point_mutations_match(self, cls, rng):
        mem, mm = _pair(cls, rng)
        for g in (mem, mm):
            g.add_node("fresh")
            g.add_edge(0, "fresh", weight=3.0)
            g.add_edge(1, 2, weight=9.0)  # upsert or insert
            if g.has_edge(3, 4):
                g.remove_edge(3, 4)
        assert mem.number_of_edges == mm.number_of_edges
        assert (mem.to_csr() != mm.to_csr()).nnz == 0
        assert mm.edge_weight(0, "fresh") == 3.0

    def test_bulk_delta_matches(self, cls, rng):
        mem, mm = _pair(cls, rng)
        er, ec, _ = mem.edge_arrays()
        sel = rng.choice(er.shape[0], 5, replace=False)
        delta = (
            GraphDelta.delete(er[sel], ec[sel])
            | GraphDelta.add_nodes(["n1"])
            | GraphDelta.insert(
                np.array([0, 80], dtype=np.int64),
                np.array([80, 1], dtype=np.int64),
            )
            | GraphDelta.remove_nodes([5])
        )
        mem.apply_delta(delta)
        mm.apply_delta(delta)
        assert (mem.to_csr() != mm.to_csr()).nnz == 0
        assert mem.nodes() == mm.nodes()

    def test_freeze_applies_to_both(self, cls, rng):
        mem, mm = _pair(cls, rng)
        for g in (mem, mm):
            g.freeze()
            with pytest.raises(Exception):
                g.add_edge(0, 1)


class TestMmapResidence:
    def test_columnar_arrays_are_readonly_memmaps(self, rng):
        rows, cols, weights = _random_edges(rng, 50, 300)
        g = DiGraph.from_arrays(rows, cols, weights, num_nodes=50, backend="mmap")
        store = g.backend.csr
        for arr in store:
            assert isinstance(arr, np.memmap)
            assert not arr.flags.writeable
        # Zero-copy export: the CSR wraps the mapped buffers.
        mat = g.to_csr()
        for got, mapped in zip((mat.indptr, mat.indices, mat.data), store):
            assert np.shares_memory(got, mapped)

    def test_describe_reports_files(self, rng):
        rows, cols, weights = _random_edges(rng, 50, 300)
        g = Graph.from_arrays(rows, cols, weights, num_nodes=50, backend="mmap")
        info = g.backend.describe()
        assert info["backend"] == "mmap"
        assert info["resident"] == "disk"
        assert len(info["files"]) == 3
        for path in info["files"]:
            assert os.path.exists(path)

    def test_close_removes_owned_directory(self, rng):
        rows, cols, weights = _random_edges(rng, 50, 300)
        g = Graph.from_arrays(rows, cols, weights, num_nodes=50, backend="mmap")
        directory = g.backend.describe()["directory"]
        assert os.path.basename(directory).startswith(MMAP_DIR_PREFIX)
        g.backend.close()
        assert not os.path.exists(directory)

    def test_mutation_rolls_generation_and_unlinks_stale(self, rng):
        rows, cols, weights = _random_edges(rng, 50, 300)
        g = Graph.from_arrays(rows, cols, weights, num_nodes=50, backend="mmap")
        before = set(g.backend.describe()["files"])
        g.add_edge(0, 1, weight=5.0)
        g.edge_arrays()  # fold the staged edge into the store
        after = set(g.backend.describe()["files"])
        assert before.isdisjoint(after)
        for path in before:
            assert not os.path.exists(path)

    def test_no_leaked_directories(self, rng, tmp_path):
        import glob
        import tempfile

        rows, cols, weights = _random_edges(rng, 30, 100)
        g = Graph.from_arrays(rows, cols, weights, num_nodes=30, backend="mmap")
        directory = g.backend.describe()["directory"]
        del g
        import gc

        gc.collect()
        assert not os.path.exists(directory)
        assert glob.glob(
            os.path.join(tempfile.gettempdir(), MMAP_DIR_PREFIX + "*")
        ) == []
