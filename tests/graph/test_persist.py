"""Snapshot + delta-log persistence: roundtrip and replay properties.

The core property: for any graph and any valid mutation history,

    snapshot(g0); log each delta; load(snapshot); replay(log)

reconstructs a graph that is indistinguishable from the live one —
same nodes, attrs, canonical edges, matrices — on either storage
backend, with ``frozen`` state preserved and the log's crash-tolerance
semantics (truncated tail forgiven, corrupt CRC fatal) holding.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphError, ParameterError
from repro.graph import (
    DeltaLog,
    DiGraph,
    Graph,
    GraphDelta,
    load_snapshot,
    save_snapshot,
)

BACKENDS = ["memory", "mmap"]


def _assert_same_graph(a, b):
    assert type(a) is type(b)
    assert a.number_of_nodes == b.number_of_nodes
    assert a.number_of_edges == b.number_of_edges
    assert a.nodes() == b.nodes()
    r1, c1, w1 = a.edge_arrays()
    r2, c2, w2 = b.edge_arrays()
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(c1, c2)
    np.testing.assert_allclose(w1, w2)
    assert (a.to_csr() != b.to_csr()).nnz == 0
    assert sorted(a.attribute_names()) == sorted(b.attribute_names())
    for name in a.attribute_names():
        for node in a.nodes():
            assert a.node_attr(node, name) == b.node_attr(node, name)


def _random_graph(cls, rng, *, n=60, m=400, named=False):
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    weights = rng.uniform(0.5, 3.0, int(keep.sum()))
    g = cls.from_arrays(rows[keep], cols[keep], weights, num_nodes=n)
    if named:
        g2 = cls()
        for i in range(n):
            g2.add_node(f"node-{i}")
        g2.add_edges_arrays(*g.edge_arrays())
        g = g2
    return g


def _random_delta(graph, rng):
    """One random valid mutation batch against the current graph."""
    n = graph.number_of_nodes
    er, ec, _ = graph.edge_arrays()
    parts = []
    kind = rng.integers(0, 5)
    if kind == 0 and er.size >= 3:  # delete some edges
        sel = rng.choice(er.shape[0], 3, replace=False)
        parts.append(GraphDelta.delete(er[sel], ec[sel]))
    elif kind == 1 and er.size >= 2:  # reweight
        sel = rng.choice(er.shape[0], 2, replace=False)
        parts.append(
            GraphDelta.reweight(
                er[sel], ec[sel], rng.uniform(0.5, 2.0, 2)
            )
        )
    elif kind == 2:  # node insert + edge to it
        name = f"new-{graph.mutation_count}-{int(rng.integers(1 << 30))}"
        parts.append(GraphDelta.add_nodes([name], attrs=[{"tag": 1}]))
        parts.append(
            GraphDelta.insert(
                np.array([int(rng.integers(0, n))], dtype=np.int64),
                np.array([n], dtype=np.int64),
                np.array([1.5]),
            )
        )
    elif kind == 3 and n > 10:  # node delete
        parts.append(
            GraphDelta.remove_nodes([int(rng.integers(0, n))])
        )
    # always: a few inserts between existing nodes
    ins_r = rng.integers(0, n, 4)
    ins_c = rng.integers(0, n, 4)
    ok = ins_r != ins_c
    if ok.any():
        parts.append(
            GraphDelta.insert(
                ins_r[ok], ins_c[ok], rng.uniform(0.5, 2.0, int(ok.sum()))
            )
        )
    delta = GraphDelta()
    for part in parts:
        delta = delta | part
    return delta


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("named", [False, True])
    def test_roundtrip(self, cls, backend, named, rng, tmp_path):
        g = _random_graph(cls, rng, named=named)
        if named:
            g.set_node_attr("node-3", "score", 1.25)
        save_snapshot(g, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap", backend=backend)
        _assert_same_graph(g, restored)
        assert restored.backend.name == backend

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_frozen_state_restored(self, backend, rng, tmp_path):
        g = _random_graph(Graph, rng)
        g.freeze()
        save_snapshot(g, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap", backend=backend)
        assert restored.frozen
        thawed = load_snapshot(
            tmp_path / "snap", backend=backend, restore_frozen=False
        )
        assert not thawed.frozen
        thawed.add_edge(0, 1)  # mutable restore really is mutable

    def test_mmap_restore_is_zero_copy(self, rng, tmp_path):
        g = _random_graph(DiGraph, rng)
        save_snapshot(g, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap", backend="mmap")
        indices = restored.backend.csr[1]
        assert isinstance(indices, np.memmap)
        assert not indices.flags.writeable
        assert Path(indices.filename) == tmp_path / "snap" / "edges-indices.npy"
        assert np.shares_memory(restored.to_csr().indices, indices)

    def test_mmap_restore_saves_over_its_own_files(self, rng, tmp_path):
        # The restored graph's CSR is the mapped snapshot; saving it back
        # to the same directory must not truncate the files it reads.
        g = _random_graph(Graph, rng)
        save_snapshot(g, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap", backend="mmap")
        save_snapshot(restored, tmp_path / "snap")
        _assert_same_graph(g, restored)
        _assert_same_graph(g, load_snapshot(tmp_path / "snap"))

    def test_empty_graph_roundtrips(self, tmp_path):
        g = Graph()
        g.add_node("only")
        save_snapshot(g, tmp_path / "snap")
        restored = load_snapshot(tmp_path / "snap")
        assert restored.nodes() == ["only"]
        assert restored.number_of_edges == 0

    def test_bad_path_raises(self, tmp_path):
        with pytest.raises(GraphError):
            load_snapshot(tmp_path / "nope")

    def test_version_1_snapshot_rejected(self, rng, tmp_path):
        # Format 1 stored a (rows, cols) edge list; format 2 stores the
        # CSR, so an old snapshot is refused, not misread.
        save_snapshot(_random_graph(Graph, rng), tmp_path / "snap")
        meta_path = tmp_path / "snap" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(GraphError, match=r"version 1.*version 2"):
            load_snapshot(tmp_path / "snap")


class TestReplayProperty:
    @pytest.mark.parametrize("cls", [Graph, DiGraph])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_history_replays_identically(
        self, cls, backend, rng, tmp_path
    ):
        g = _random_graph(cls, rng)
        save_snapshot(g, tmp_path / "snap")
        log = DeltaLog(tmp_path / "deltas.log")
        for _ in range(8):
            delta = _random_delta(g, rng)
            g.apply_delta(delta, log=log)
        log.close()

        restored = load_snapshot(tmp_path / "snap", backend=backend)
        totals = DeltaLog(tmp_path / "deltas.log").replay(restored)
        assert totals["records"] == 8
        _assert_same_graph(g, restored)

    def test_log_tee_only_on_commit(self, rng, tmp_path):
        g = _random_graph(Graph, rng)
        log = DeltaLog(tmp_path / "deltas.log")
        bad = GraphDelta.insert(
            np.array([0], dtype=np.int64),
            np.array([10_000], dtype=np.int64),
        )
        with pytest.raises(Exception):
            g.apply_delta(bad, log=log)
        assert log.records() == []  # rejected delta never logged


class TestDeltaLog:
    def test_append_and_records(self, tmp_path):
        log = DeltaLog(tmp_path / "d.log")
        d1 = GraphDelta.insert(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        d2 = GraphDelta.add_nodes(["x"])
        log.append(d1)
        log.append(d2)
        log.close()
        records = DeltaLog(tmp_path / "d.log").records()
        assert len(records) == 2
        assert records[0].insert_rows.tolist() == [0]
        assert records[1].node_inserts[0][0] == "x"

    def test_truncate_resets(self, tmp_path):
        log = DeltaLog(tmp_path / "d.log")
        log.append(GraphDelta.add_nodes(["x"]))
        log.truncate()
        assert log.records() == []
        log.append(GraphDelta.add_nodes(["y"]))
        assert len(log.records()) == 1

    def test_truncated_tail_forgiven_strict_raises(self, tmp_path):
        path = tmp_path / "d.log"
        log = DeltaLog(path)
        log.append(GraphDelta.add_nodes(["x"]))
        log.append(GraphDelta.add_nodes(["y"]))
        log.close()
        with open(path, "r+b") as handle:
            handle.truncate(path.stat().st_size - 3)  # crash mid-frame
        assert len(DeltaLog(path).records()) == 1
        with pytest.raises(GraphError):
            DeltaLog(path).records(strict=True)

    def test_corrupt_crc_always_raises(self, tmp_path):
        path = tmp_path / "d.log"
        log = DeltaLog(path)
        log.append(GraphDelta.add_nodes(["x"]))
        log.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte under an intact header
        path.write_bytes(bytes(data))
        with pytest.raises(GraphError, match="CRC"):
            DeltaLog(path).records()

    def test_not_a_log_rejected(self, tmp_path):
        path = tmp_path / "d.log"
        path.write_bytes(b"these are not the bytes you are looking for")
        with pytest.raises(GraphError, match="magic"):
            DeltaLog(path)

    def test_append_rejects_non_delta(self, tmp_path):
        log = DeltaLog(tmp_path / "d.log")
        with pytest.raises(ParameterError):
            log.append("nope")
