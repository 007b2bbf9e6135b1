"""Integration tests: telemetry and tracing through the serving stack."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import AdmissionError
from repro.graph import Graph
from repro.serving import RankRequest, RankingService, ServingFront
from repro.telemetry import MetricsRegistry, Tracer, parse_prometheus


def _graph(n=250, m=2500, seed=5):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


class TestServiceTracing:
    def test_rank_trace_covers_plan_solve_commit(self):
        service = RankingService(_graph(), tracing=True)
        try:
            service.rank(method="pagerank", tol=1e-8)
            traces = service.tracer.traces()
            assert len(traces) == 1
            trace = traces[0]
            names = [s.name for s in trace.root.walk()]
            assert names == ["rank", "plan", "solve", "cache.commit"]
            plan = trace.root.find("plan")
            assert plan.annotations["strategy"] == "batch"
            assert plan.annotations["cache_state"] == "miss"
            # The planner's own annotation landed on the plan span
            # (the ambient span at decision time).
            assert plan.annotations["planner_strategy"] == "batch"
            solve = trace.root.find("solve")
            # Coalescer meta: flush cause, occupancy, per-column solve.
            assert solve.annotations["flush_cause"] == "demand"
            assert solve.annotations["batch_occupancy"] == 1
            assert solve.annotations["iterations"] >= 1
            assert solve.annotations["residual"] <= 1e-8
            # The batch solver recorded its convergence into the span.
            record = solve.annotations["solver"][0]
            assert record["method"] == "power_iteration_batch"
            assert record["converged"] is True
            assert trace.finished and trace.duration > 0.0
        finally:
            service.close()

    def test_cached_request_annotates_hit(self):
        service = RankingService(_graph(), tracing=True)
        try:
            service.rank(method="pagerank", tol=1e-8)
            service.rank(method="pagerank", tol=1e-8)
            trace = service.tracer.traces()[-1]
            assert trace.root.find("plan").annotations["strategy"] == "cached"
            assert trace.root.find("solve").annotations["cache"] == "hit"
        finally:
            service.close()

    def test_push_trace_records_solver(self):
        service = RankingService(_graph(), tracing=True)
        try:
            node = service.graph.nodes()[0]
            service.rank(method="pagerank", seeds=[node], tol=1e-6)
            trace = service.tracer.traces()[-1]
            solve = trace.root.find("solve")
            assert solve.annotations["strategy"] == "push"
            record = solve.annotations["solver"][0]
            assert record["method"] in ("forward_push", "forward_push_fallback")
            assert record["iterations"] >= 0
            assert "residual" in record
        finally:
            service.close()

    def test_sampling_respected(self):
        service = RankingService(
            _graph(), tracer=Tracer(sample_every=2, capacity=32)
        )
        try:
            node = service.graph.nodes()[0]
            for _ in range(6):
                service.rank(method="pagerank", seeds=[node], tol=1e-6)
            assert len(service.tracer.traces()) == 3
        finally:
            service.close()

    def test_tracing_off_by_default(self):
        service = RankingService(_graph())
        try:
            assert service.tracer is None
            service.rank(method="pagerank", tol=1e-8)
        finally:
            service.close()


class TestFrontTracing:
    def test_front_trace_covers_admission(self):
        service = RankingService(_graph(), tracing=True)
        front = ServingFront(service, workers=2)
        try:
            front.rank(method="pagerank", tol=1e-8)
            traces = [
                t
                for t in service.tracer.traces()
                if t.root.name == "front.rank"
            ]
            assert traces
            trace = traces[-1]
            names = [s.name for s in trace.root.walk()]
            assert names[0] == "front.rank"
            assert "admission" in names
            assert "plan" in names and "solve" in names
            admission = trace.root.find("admission")
            assert admission.end is not None  # closed at worker pickup
            assert trace.finished
        finally:
            front.close()
            service.close()

    def test_rejected_request_annotated(self):
        service = RankingService(_graph(), tracing=True)
        front = ServingFront(service, workers=1)
        front.close()
        with pytest.raises(AdmissionError):
            front.submit(method="pagerank", tol=1e-8)
        traces = service.tracer.traces()
        assert traces
        assert traces[-1].root.find("admission").annotations["rejected"] == (
            "shutdown"
        )
        service.close()


class TestRegistryView:
    def test_stats_is_registry_view(self):
        service = RankingService(_graph())
        try:
            node = service.graph.nodes()[0]
            service.rank(method="pagerank", tol=1e-8)
            service.rank(method="pagerank", seeds=[node], tol=1e-6)
            stats = service.stats()
            reg = service.telemetry

            assert stats["requests"] == int(
                reg.get("serving_requests_total").value()
            )
            plans = reg.get("serving_plans_total")
            for strategy, count in stats["plan_mix"].items():
                assert count == int(plans.value(strategy=strategy))
            assert stats["cache"]["lookups"] == int(
                reg.get("cache_lookups_total").value()
            )
            assert stats["coalescer"]["columns"] == int(
                reg.get("coalescer_columns_total").value()
            )
            # Latency summaries come from the shared histogram family.
            assert set(stats["latency"]) <= {
                dict(labels)["strategy"]
                for labels in reg.get("serving_latency_seconds")
                .summaries()
                .keys()
            }
        finally:
            service.close()

    def test_shared_registry_injection(self):
        reg = MetricsRegistry()
        service = RankingService(_graph(), telemetry=reg)
        try:
            assert service.telemetry is reg
            service.rank(method="pagerank", tol=1e-8)
            assert reg.get("serving_requests_total").value() == 1.0
        finally:
            service.close()

    def test_front_stats_from_registry(self):
        service = RankingService(_graph())
        front = ServingFront(service, workers=2)
        try:
            front.rank(method="pagerank", tol=1e-8)
            stats = front.stats()
            assert stats["served"] == 1
            assert stats["failed"] == 0
            assert stats["served"] == int(
                service.telemetry.get("front_served_total").value()
            )
            assert stats["admission"]["admitted"] == int(
                service.telemetry.get("admission_admitted_total").value()
            )
        finally:
            front.close()
            service.close()

    def test_exporters_cover_serving_families(self):
        service = RankingService(_graph(), tracing=True)
        try:
            service.rank(method="pagerank", tol=1e-8)
            samples = parse_prometheus(service.telemetry.to_prometheus())
            names = {name for name, _labels in samples}
            assert "serving_requests_total" in names
            assert "cache_lookups_total" in names
            assert "coalescer_columns_total" in names
            doc = json.loads(service.telemetry.to_json())
            assert "serving_requests_total" in doc["metrics"]
        finally:
            service.close()


class TestDeltaCounters:
    def test_apply_delta_counts(self):
        from repro.graph import GraphDelta

        service = RankingService(_graph())
        try:
            service.rank(method="pagerank", tol=1e-8)
            delta = GraphDelta.insert(np.array([0]), np.array([1]))
            service.apply_delta(delta)
            stats = service.stats()
            assert stats["deltas"]["applied"] == 1
            assert (
                stats["deltas"]["localized"] + stats["deltas"]["evicting"] == 1
            )
        finally:
            service.close()


class TestSpectralTelemetry:
    # Operator whose dominant eigenvector the scores are, for the
    # independent Rayleigh residual ‖Mx − λx‖₁ / λ with λ = ‖Mx‖₁.
    RAYLEIGH = {
        "eigenvector": lambda a, x: a.T @ x,
        "hits": lambda a, x: a.T @ (a @ x),
    }

    @pytest.mark.parametrize("method", ["katz", "eigenvector", "hits"])
    def test_spectral_solve_span_records_solver(self, method):
        service = RankingService(_graph(), tracing=True)
        try:
            served = service.rank(method=method, tol=1e-8)
            solve = service.tracer.traces()[-1].root.find("solve")
            assert solve.annotations["strategy"] == "spectral"
            (record,) = solve.annotations["solver"]
            result = served.scores.solver_result
            assert record["method"] == method
            assert record["converged"] is True
            assert record["iterations"] == result.iterations
            assert record["residual"] <= 1e-8
            if method in self.RAYLEIGH:
                x = served.scores.values
                y = self.RAYLEIGH[method](service.graph.to_csr(), x)
                lam = y.sum()
                assert record["residual"] == pytest.approx(
                    np.abs(y - lam * x).sum() / lam, rel=1e-9
                )
            else:
                assert record["residual"] == result.residuals[-1]
        finally:
            service.close()
