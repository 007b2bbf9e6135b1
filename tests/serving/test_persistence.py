"""Checkpoint + warm restart of the ranking service.

The serving-level persistence contract: ``checkpoint(path)`` captures
graph + certified answers + an armed delta log under the write barrier;
``warm_start(path)`` restores a service that (a) answers the replayed
query stream certificate-equal to the original, (b) skips cold solves
for checkpointed answers when no deltas intervened, and (c) replays
logged deltas to reach the live graph state when they did.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ParameterError, ReproError
from repro.graph import DiGraph, Graph, GraphDelta
from repro.serving import RankingService
from repro.serving.planner import RankRequest


@pytest.fixture
def graph(rng) -> Graph:
    n = 300
    rows = rng.integers(0, n, 2500)
    cols = rng.integers(0, n, 2500)
    keep = rows != cols
    g = Graph()
    g.add_nodes_from(range(n))
    g.add_edges_arrays(
        rows[keep], cols[keep], rng.uniform(0.5, 2.0, int(keep.sum()))
    )
    return g


@pytest.fixture
def stream(graph) -> list[RankRequest]:
    return [
        RankRequest(p=0.0),
        RankRequest(p=1.0),
        RankRequest(p=0.0, seeds={graph.nodes()[3]: 1.0}),
        RankRequest(p=2.0, beta=0.5, weighted=True),
    ]


def _serve_all(service, stream):
    return [service.rank(r) for r in stream]


class TestCheckpoint:
    def test_checkpoint_writes_layout(self, graph, stream, tmp_path):
        service = RankingService(graph)
        _serve_all(service, stream)
        info = service.checkpoint(tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "graph" / "meta.json").exists()
        assert (tmp_path / "ckpt" / "service.pkl").exists()
        assert (tmp_path / "ckpt" / "deltas.log").exists()
        assert info["entries"] == len(stream)
        assert info["nodes"] == graph.number_of_nodes

    def test_checkpoint_arms_delta_tee(self, graph, stream, tmp_path):
        from repro.graph.persist import DeltaLog

        service = RankingService(graph)
        service.checkpoint(tmp_path / "ckpt")
        delta = GraphDelta.insert(
            np.array([0], dtype=np.int64), np.array([7], dtype=np.int64)
        )
        service.apply_delta(delta)
        records = DeltaLog(tmp_path / "ckpt" / "deltas.log").records()
        assert len(records) == 1
        assert records[0].insert_rows.tolist() == [0]


class TestWarmStart:
    def test_replayed_stream_is_certificate_equal_and_cached(
        self, graph, stream, tmp_path
    ):
        service = RankingService(graph)
        baseline = _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")

        warm = RankingService.warm_start(tmp_path / "ckpt")
        assert warm._warm_started == {
            "replayed": 0,
            "seeded": len(stream),
            "pending": 0,
        }
        answers = _serve_all(warm, stream)
        for base, again in zip(baseline, answers):
            # Cold re-solves skipped: every replayed query is a hit.
            assert again.plan.strategy == "cached"
            l1 = float(
                np.abs(base.scores.values - again.scores.values).sum()
            )
            assert l1 <= base.request.tol
        assert warm.stats()["plan_mix"] == {"cached": len(stream)}
        assert warm.stats()["warm_start"]["seeded"] == len(stream)

    def test_replay_restart_builds_no_csr(
        self, graph, stream, tmp_path, monkeypatch
    ):
        """An mmap restart that replays edge deltas serves the mapped,
        then spliced, store as the adjacency: no COO -> CSR conversion
        runs in the warm start or its first rank."""
        from scipy import sparse

        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        for lo in (0, 100, 200):
            service.apply_delta(GraphDelta.insert(
                np.array([lo, lo + 1], dtype=np.int64),
                np.array([lo + 9, lo + 11], dtype=np.int64),
            ))
        owner = next(
            cls for cls in sparse.coo_matrix.__mro__ if "tocsr" in vars(cls)
        )
        real, calls = owner.tocsr, []

        def counting(self, *args, **kwargs):
            calls.append(self.shape)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(owner, "tocsr", counting)
        warm = RankingService.warm_start(tmp_path / "ckpt", backend="mmap")
        assert warm._warm_started["replayed"] == 3
        served = warm.rank(stream[0])
        assert served.plan.strategy == "incremental"
        assert calls == []
        warm.close()

    def test_mmap_warm_restart_matches_cold_restart(
        self, graph, stream, tmp_path
    ):
        """A warm restart answers from the seeded cache alone, within the
        combined certificates of a cold restart's fresh solves."""
        from repro.graph.persist import load_snapshot

        tol = 1e-8
        stream = [replace(r, tol=tol) for r in stream]
        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")

        cold = RankingService(load_snapshot(tmp_path / "ckpt" / "graph"))
        cold_answers = _serve_all(cold, stream)
        warm = RankingService.warm_start(tmp_path / "ckpt", backend="mmap")
        warm_answers = _serve_all(warm, stream)
        assert warm.stats()["plan_mix"] == {"cached": len(stream)}
        certificate = 2.0 * tol * 0.85 / 0.15
        for c, w in zip(cold_answers, warm_answers):
            assert c.plan.strategy != "cached"
            l1 = float(np.abs(c.scores.values - w.scores.values).sum())
            assert l1 <= certificate

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_backend_choice(self, graph, stream, tmp_path, backend):
        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        warm = RankingService.warm_start(tmp_path / "ckpt", backend=backend)
        assert warm.graph.backend.name == backend
        answer = warm.rank(stream[0])
        assert answer.plan.strategy == "cached"

    def test_node_op_replay_evicts_seeded_entries(
        self, graph, stream, tmp_path
    ):
        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        d1 = GraphDelta.insert(
            np.array([0, 2], dtype=np.int64),
            np.array([9, 11], dtype=np.int64),
        )
        d2 = GraphDelta.add_nodes(["late"]) | GraphDelta.insert(
            np.array([1], dtype=np.int64),
            np.array([graph.number_of_nodes], dtype=np.int64),
        )
        service.apply_delta(d1)
        service.apply_delta(d2)

        warm = RankingService.warm_start(tmp_path / "ckpt")
        # Seeded, then evicted by the replayed node-op delta.
        assert warm._warm_started == {
            "replayed": 2, "seeded": len(stream), "pending": 0,
        }
        assert len(warm._cache) == 0
        assert warm.stats()["deltas"]["evicting"] == 1
        assert warm.graph.number_of_nodes == graph.number_of_nodes
        assert warm.graph.number_of_edges == graph.number_of_edges
        # Answers against the replayed graph equal the live service's.
        live = service.rank(stream[0])
        restored = warm.rank(stream[0])
        assert restored.plan.strategy not in ("cached", "incremental")
        l1 = float(
            np.abs(live.scores.values - restored.scores.values).sum()
        )
        assert l1 <= 2 * stream[0].tol

    def test_edge_replay_serves_incremental(self, graph, stream, tmp_path):
        tol, alpha = 1e-8, 0.85
        stream = [replace(r, tol=tol) for r in stream]
        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        for src, dst in ((0, 9), (2, 11), (5, 40)):
            service.apply_delta(
                GraphDelta.insert(
                    np.array([src], dtype=np.int64),
                    np.array([dst], dtype=np.int64),
                )
            )

        warm = RankingService.warm_start(tmp_path / "ckpt")
        assert warm._warm_started == {
            "replayed": 3, "seeded": len(stream), "pending": len(stream),
        }
        # Replayed records were not appended to the log a second time.
        assert len(warm._delta_log) == 3
        assert warm.stats()["cache"]["chained"] == 2 * len(stream)
        certificate = 3.0 * tol * alpha / (1.0 - alpha)
        for request in stream:
            restored = warm.rank(request)
            assert restored.plan.strategy == "incremental"
            cold = RankingService(warm.graph.copy()).rank(
                replace(request, tol=1e-13)
            )
            l1 = float(
                np.abs(restored.scores.values - cold.scores.values).sum()
            )
            assert l1 <= certificate

    def test_cycle_composes(self, graph, stream, tmp_path):
        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "a")
        service.apply_delta(
            GraphDelta.insert(
                np.array([4], dtype=np.int64), np.array([17], dtype=np.int64)
            )
        )
        warm = RankingService.warm_start(tmp_path / "a")
        _serve_all(warm, stream)
        warm.checkpoint(tmp_path / "b")
        warm2 = RankingService.warm_start(tmp_path / "b")
        assert warm2._warm_started["replayed"] == 0
        assert warm2._warm_started["seeded"] == len(stream)
        assert warm2.rank(stream[1]).plan.strategy == "cached"

    def test_warm_start_rejects_non_checkpoint(self, tmp_path):
        with pytest.raises(ReproError):
            RankingService.warm_start(tmp_path)

    def test_warm_start_rejects_delta_log_override(self, graph, tmp_path):
        RankingService(graph).checkpoint(tmp_path / "ckpt")
        with pytest.raises(ParameterError):
            RankingService.warm_start(tmp_path / "ckpt", delta_log=object())

    def test_directed_roundtrip(self, rng, tmp_path):
        n = 200
        rows = rng.integers(0, n, 1500)
        cols = rng.integers(0, n, 1500)
        keep = rows != cols
        g = DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_arrays(rows[keep], cols[keep], np.ones(int(keep.sum())))
        service = RankingService(g)
        base = service.rank(RankRequest(p=0.0))
        service.checkpoint(tmp_path / "ckpt")
        warm = RankingService.warm_start(tmp_path / "ckpt", backend="mmap")
        again = warm.rank(RankRequest(p=0.0))
        assert again.plan.strategy == "cached"
        np.testing.assert_allclose(
            base.scores.values, again.scores.values, atol=1e-12
        )


class _Crash(Exception):
    """Stands in for the process dying at an injected point."""


class TestCheckpointCrash:
    def test_crash_after_log_truncate_seeds_nothing(
        self, graph, tmp_path, monkeypatch
    ):
        from repro.graph.persist import DeltaLog

        request = RankRequest(p=1.0, beta=1.0, weighted=True)
        service = RankingService(graph)
        service.rank(request)
        service.checkpoint(tmp_path / "ckpt")
        # Reweight-only: node and edge counts stay the same.
        rows, cols, _ = graph.edge_arrays()
        heavy = rows < 40
        service.apply_delta(
            GraphDelta.reweight(
                rows[heavy], cols[heavy], np.full(int(heavy.sum()), 50.0)
            )
        )

        # Die in the next checkpoint after the post-delta snapshot and
        # the log truncation, before service.pkl is replaced: the state
        # file on disk still holds the pre-delta answer.
        truncate = DeltaLog.truncate

        def truncate_then_crash(log):
            truncate(log)
            raise _Crash

        monkeypatch.setattr(DeltaLog, "truncate", truncate_then_crash)
        with pytest.raises(_Crash):
            service.checkpoint()
        monkeypatch.undo()

        warm = RankingService.warm_start(tmp_path / "ckpt")
        assert warm._warm_started == {
            "replayed": 0, "seeded": 0, "pending": 0,
        }
        served = warm.rank(request)
        assert served.plan.strategy != "cached"
        cold = RankingService(service.graph.copy()).rank(request)
        l1 = float(np.abs(served.scores.values - cold.scores.values).sum())
        assert l1 <= 2 * request.tol

    def test_state_without_snapshot_id_seeds_nothing(
        self, graph, stream, tmp_path
    ):
        import pickle

        service = RankingService(graph)
        _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "service.pkl"
        state = pickle.loads(state_path.read_bytes())
        del state["snapshot_id"]
        state_path.write_bytes(pickle.dumps(state))
        warm = RankingService.warm_start(tmp_path / "ckpt")
        assert warm._warm_started == {
            "replayed": 0, "seeded": 0, "pending": 0,
        }


class TestNodeOpsThroughService:
    def test_node_delta_takes_evicting_path(self, graph, stream, tmp_path):
        service = RankingService(graph)
        _serve_all(service, stream)
        service.apply_delta(GraphDelta.add_nodes(["fresh"]))
        stats = service.stats()
        assert stats["deltas"]["evicting"] == 1
        assert stats["deltas"]["localized"] == 0
        # Post-delta answers have the grown score space.
        answer = service.rank(stream[0])
        assert answer.scores.values.shape[0] == graph.number_of_nodes


class TestOldFormatState:
    def test_state_with_group_keys_seeds_and_serves(
        self, graph, stream, tmp_path
    ):
        """A state file from a checkpoint that still recorded the built
        operator groups loads, seeds and serves as before, and the
        restart builds none of those operators."""
        import pickle

        service = RankingService(graph)
        baseline = _serve_all(service, stream)
        service.checkpoint(tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "service.pkl"
        state = pickle.loads(state_path.read_bytes())
        state["group_keys"] = sorted({r.group_key for r in stream})
        state_path.write_bytes(pickle.dumps(state))

        warm = RankingService.warm_start(tmp_path / "ckpt")
        assert warm._warm_started == {
            "replayed": 0, "seeded": len(stream), "pending": 0,
        }
        answers = _serve_all(warm, stream)
        assert [a.plan.strategy for a in answers] == ["cached"] * len(stream)
        for base, again in zip(baseline, answers):
            assert np.array_equal(base.scores.values, again.scores.values)
        assert warm.graph.cache_info()["misses"] == 0
