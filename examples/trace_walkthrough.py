#!/usr/bin/env python
"""Observability walkthrough: tracing a request through the serving stack.

Drives a small traced query stream through a ``ServingFront``, then
walks one request's trace — admission wait, planning decision, the
solve (with the solver's own convergence record) and the cache commit —
and prints the slow-query log plus both exporter outputs.  See
``docs/observability.md`` for the span schema and metric families.

Run with::

    PYTHONPATH=src python examples/trace_walkthrough.py
"""

from __future__ import annotations

import json

import numpy as np

from repro import Graph, RankingService
from repro.serving import RankRequest, ServingFront
from repro.telemetry import parse_prometheus


def _build_graph(n: int = 400, m: int = 4000, seed: int = 9) -> Graph:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, m)
    cols = rng.integers(0, n, m)
    keep = rows != cols
    return Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)


def _show_span(span, depth: int = 0) -> None:
    pad = "  " * depth
    ms = span.duration * 1e3
    print(f"{pad}{span.name}  ({ms:.2f} ms)")
    for key, value in span.annotations.items():
        if key == "solver":
            for record in value:
                print(f"{pad}  solver record: {record}")
        else:
            print(f"{pad}  {key} = {value}")
    for child in span.children:
        _show_span(child, depth + 1)


def main() -> None:
    graph = _build_graph()
    nodes = graph.nodes()
    rng = np.random.default_rng(1)

    # tracing=True samples every request; production deployments would
    # pass tracer=Tracer(sample_every=100) to bound the overhead.
    service = RankingService(graph, tracing=True, trace_capacity=64)
    with ServingFront(service, workers=3, capacity=128) as front:
        stream = [RankRequest(p=0.0, tol=1e-8)]  # one global rank
        stream += [  # and a burst of personalised queries
            RankRequest(p=0.0, seeds=(nodes[int(i)],), tol=1e-6)
            for i in rng.integers(0, len(nodes), 8)
        ]
        for request in stream:
            front.rank(request)

        print("=== One traced request, span by span ===")
        traced = [
            t
            for t in service.tracer.traces()
            if t.root.find("solve") is not None
        ]
        _show_span(traced[0].root)

        print()
        print("=== Slow query log (threshold 1 ms) ===")
        for trace in service.tracer.slow_query_log(0.001):
            root = trace.root
            print(
                f"  {root.name}: {root.duration * 1e3:.2f} ms, "
                f"spans={[s.name for s in root.walk()]}"
            )

        print()
        print("=== Prometheus export (validated round-trip) ===")
        text = service.telemetry.to_prometheus()
        samples = parse_prometheus(text)
        print(f"  {len(samples)} samples across the stack; a few:")
        for line in text.splitlines():
            if line.startswith(
                ("serving_requests_total", "front_served_total",
                 "coalescer_flushes_total", "admission_admitted_total")
            ):
                print(f"    {line}")

        print()
        print("=== JSON export ===")
        doc = json.loads(service.telemetry.to_json())
        mix = doc["metrics"]["serving_plans_total"]["values"]
        print(f"  format: {doc['format']}")
        print(f"  plan mix: {mix}")
    service.close()


if __name__ == "__main__":
    main()
