"""Run loop shared by the workloads, and the metrics derived from it.

A run is: one uncounted set-up (it also pays one-time imports), ``SETUPS``
counted set-ups (the last one is kept), one warm-up unit, then *units* of
the workload — a serve-local segment, an analytics job, a restart cycle —
until the units' timed wall time reaches ``--seconds``.  Every answer a
unit produces is re-verified by the independent checker between the
unit's timed regions, so checking never counts as workload time.

Between units (untimed) the harness runs a full garbage collection: the
serving stack leaves cyclic garbage (tickets, resolvers, retained
operator bundles) that the interpreter's own schedule can leave in place
for dozens of units, so without it peak RSS would grow with the length
of the run rather than reflect a unit's working set.

With ``--trace 1`` the units alternate untraced / traced: the untraced
ones give the reference for ``telemetry.trace_overhead_pct`` and the
workload-stage figures, the traced ones run under the layer shims and
the service's own request tracer and give every other per-layer metric.
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench.checker import Checker, perturbed
from perfbench.common import peak_rss_mb
from perfbench.tracing import LAYERS, NullRecorder, Recorder, Shims, roots, self_times

SETUPS = 5
MIN_UNITS = 2
STRATEGIES = ("cached", "incremental", "spectral", "shard_push", "push", "sharded", "batch")

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "request_p95_ms": ("ms", "lower"),
    "throughput_rps": ("1/s", "higher"),
    "cycle_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "graph.ingest_s": "s",
    "graph.apply_delta_ms": "ms",
    "graph.apply_delta_calls": "count",
    "graph.matrix_builds": "count",
    "graph.matrix_build_s": "s",
    "graph.matrix_hit_ratio": "ratio",
    "graph.neighbors_ms": "ms",
    "graph.neighbors_max_ms": "ms",
    "graph.neighbors_calls": "count",
    "persist.snapshot_write_s": "s",
    "persist.snapshot_mb": "MB",
    "persist.snapshot_load_s": "s",
    "persist.log_append_ms": "ms",
    "persist.log_replay_s": "s",
    "persist.replay_records": "count",
    "methods.operator_build_s": "s",
    "methods.operator_calls": "count",
    "methods.spectral_solve_s": "s",
    "methods.spectral_iterations": "count",
    "linalg.push_s": "s",
    "linalg.push_calls": "count",
    "linalg.push_iterations": "count",
    "linalg.push_fallbacks": "count",
    "linalg.batch_s": "s",
    "linalg.batch_calls": "count",
    "linalg.batch_columns": "count",
    "linalg.batch_sweeps": "count",
    "linalg.incremental_s": "s",
    "linalg.incremental_calls": "count",
    "shard.operator_build_s": "s",
    "shard.solve_s": "s",
    "shard.solve_rounds": "count",
    "shard.push_local": "count",
    "shard.push_fallback": "count",
    "serving.plan_ms": "ms",
    "serving.self_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.cache_commit_ms": "ms",
    "serving.coalescer_occupancy": "count",
    "serving.flushes_demand": "count",
    "serving.flushes_window": "count",
    "serving.flushes_age": "count",
    "serving.flushes_backlog": "count",
    "serving.admission_wait_ms": "ms",
    "serving.admission_rejected": "count",
    **{f"serving.strategy.{s}": "count" for s in STRATEGIES},
    "self.graph_pct": "%",
    "self.persist_pct": "%",
    "self.methods_pct": "%",
    "self.linalg_pct": "%",
    "self.shard_pct": "%",
    "self.serving_pct": "%",
    "unattributed_pct": "%",
    "restart.clean_load_s": "s",
    "restart.clean_prebuild_s": "s",
    "restart.clean_seed_s": "s",
    "restart.clean_answer_s": "s",
    "restart.replay_load_s": "s",
    "restart.replay_prebuild_s": "s",
    "restart.replay_seed_s": "s",
    "restart.replay_answer_s": "s",
    "stage.delta_p50_ms": "ms",
    "stage.checkpoint_s": "s",
    "stage.restart_clean_s": "s",
    "stage.restart_replay_s": "s",
    "stage.sweep_s": "s",
    "telemetry.trace_overhead_pct": "%",
    "telemetry.shims_restored": "count",
    "bench.error_rate": "ratio",
}


@dataclass
class Unit:
    """What one unit of a workload did, measured with tracing off or on."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stages: dict[str, list[float]] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    def stage(self, name: str, value: float) -> None:
        self.stages.setdefault(name, []).append(value)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)


class Timer:
    """Accumulates a unit's timed regions into ``unit.wall``."""

    def __init__(self, unit: Unit) -> None:
        self.unit = unit

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = perf_counter() - self._t0
        self.unit.wall += self.elapsed
        return False


def service_counters(service) -> Counter:
    """Monotonic serving counters read from ``service.stats()``."""
    stats = service.stats()
    out = Counter()
    for strategy, value in stats["plan_mix"].items():
        out[f"plan.{strategy}"] += value
    out["cache.hits"] += stats["cache"]["hits"]
    out["cache.lookups"] += stats["cache"]["lookups"]
    coal = stats["coalescer"]
    out["coalescer.flushes"] += coal["flushes"]
    out["coalescer.columns"] += coal["columns"]
    for cause, value in coal["flush_causes"].items():
        out[f"coalescer.{cause}"] += value
    for event in ("shard_push_local", "shard_push_fallback"):
        out[f"sharding.{event}"] += stats["sharding"][event]
    return out


class Context:
    """Per-run services handed to workload units."""

    def __init__(self, checker: Checker, tracer) -> None:
        self.checker = checker
        self.tracer = tracer
        self.rec = NullRecorder()
        self.self_tested = False

    def verify(self, unit: Unit, graph, request, scores) -> None:
        """Count one answer; fail it on non-convergence or checker rejection."""
        unit.attempted += 1
        result = getattr(scores, "solver_result", None)
        if result is not None and not result.converged:
            unit.fail(f"{request.method} answer not converged")
            return
        values = np.asarray(scores.values)
        with self.paused():
            reason = self.checker.check(graph, request, values)
            if reason is not None:
                unit.fail(reason)
            elif not self.self_tested:
                # The first accepted real answer, nudged, must be rejected.
                self.self_tested = True
                if self.checker.check(graph, request, perturbed(values)) is None:
                    unit.fail("checker accepted a perturbed answer")

    @contextmanager
    def paused(self):
        """Keep the checker's own graph reads out of the layer figures."""
        self.rec.paused = True
        try:
            yield
        finally:
            self.rec.paused = False


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up ``workload`` (a workload module) from ``seed``, run units for
    ``seconds`` of timed wall, return the raw results."""
    from repro.telemetry.trace import Tracer

    checker = Checker()
    rec = Recorder() if trace else None
    shims = Shims(rec) if trace else None
    tracer = Tracer(sample_every=0, capacity=1_000_000) if trace else None
    ctx = Context(checker, tracer)

    setup_s: list[float] = []
    state = None
    for i in range(SETUPS + 1):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        ctx.rec = rec if trace else NullRecorder()
        with shims.active() if trace else nullcontext():
            t0 = perf_counter()
            state = workload.setup(seed, ctx)
            if i:
                setup_s.append(perf_counter() - t0)

    # One warm-up unit, checked but not measured: the first unit meets a
    # cache with no answers pending correction, which no later unit does.
    ctx.rec = NullRecorder()
    warmup = Unit()
    try:
        workload.unit(state, ctx, warmup)
    finally:
        checker.reset()
        gc.collect()
    if trace:
        rec.counters.clear()  # set-up work is not charged to the units
    units: list[tuple[bool, Unit]] = []
    timed = 0.0
    service_spans: list = []
    shim_count = 0
    try:
        while timed < seconds or len(units) < MIN_UNITS * (2 if trace else 1):
            traced = trace and len(units) % 2 == 1
            unit = Unit()
            ctx.rec = rec if traced else NullRecorder()
            if traced:
                tracer.sample_every = 1
                shims.install()
                shim_count = shims.installed
            try:
                workload.unit(state, ctx, unit)
            finally:
                if traced:
                    broken = shims.restore()
                    if broken:
                        unit.fail(f"shims not restored: {broken}")
                    tracer.sample_every = 0
                    for t in tracer.traces():
                        service_spans.extend(t.root.walk())
                    tracer.clear()
            checker.reset()
            gc.collect()
            units.append((traced, unit))
            timed += unit.wall
    finally:
        workload.teardown(state)
        state = None
        gc.collect()

    return {
        "setup_s": setup_s,
        "warmup": warmup,
        "units": units,
        "recorder": rec,
        "service_spans": service_spans,
        "shims": shim_count,
        "checker": checker,
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def headline(units: list[Unit]) -> dict:
    """End-to-end figures over ``units`` (all measured with tracing off)."""
    lat = np.array([x for u in units for x in u.latencies])
    p50, p95 = np.percentile(lat, [50, 95])
    return {
        "request_p50_ms": p50 * 1e3,
        "request_p95_ms": p95 * 1e3,
        "throughput_rps": lat.size / sum(u.wall for u in units),
        "cycle_s": float(np.median([u.wall for u in units])),
        "requests": int(lat.size),
        "beyond_p95": int((lat > p95).sum()),
    }


def stage_metrics(units: list[Unit]) -> dict:
    """Median of each workload stage, e.g. ``delta_ms``, ``checkpoint_s``."""
    pooled: dict[str, list[float]] = {}
    for u in units:
        for name, values in u.stages.items():
            pooled.setdefault(name, []).extend(values)
    return {name: float(np.median(v)) for name, v in pooled.items()}


def layer_metrics(raw: dict, headline_key: str) -> dict:
    """Per-layer figures from the traced units' spans and counters."""
    rec: Recorder = raw["recorder"]
    traced = [u for t, u in raw["units"] if t]
    plain = [u for t, u in raw["units"] if not t]
    spans = rec.spans
    selfs = self_times(spans)
    top = roots(spans)
    by_id = {s.sid: s for s in spans}
    # Spans under the benchmark's own operation spans: the units' work
    # (set-up spans and anything not reached from a unit are left out).
    unit_spans = [s for s in spans
                  if top[s.sid] is not None and top[s.sid].name.startswith("bench.")]

    def of(name):
        return [s for s in unit_spans if s.name == name]

    def total(name):
        return float(sum(s.duration for s in of(name)))

    def mean(name):
        d = [s.duration for s in of(name)]
        return float(np.mean(d)) if d else 0.0

    counters = Counter()
    for u in traced:
        counters.update(u.counters)
    c = rec.counters

    m: dict[str, float] = {}
    ingest = [s.duration for s in spans if s.name == "graph.ingest"]
    m["graph.ingest_s"] = float(np.median(ingest)) if ingest else 0.0
    m["graph.apply_delta_ms"] = mean("graph.apply_delta") * 1e3
    m["graph.apply_delta_calls"] = len(of("graph.apply_delta"))
    # A build nested in another build is counted but not timed twice.
    builds = of("graph.matrix_build")
    outer = [s for s in builds
             if not _inside(s, by_id, "graph.matrix_build")]
    m["graph.matrix_builds"] = len(builds)
    m["graph.matrix_build_s"] = float(sum(s.duration for s in outer))
    lookups = c["graph.cache_lookups"]
    m["graph.matrix_hit_ratio"] = 1.0 - c["graph.matrix_builds"] / lookups if lookups else 0.0
    nb = [s.duration for s in of("graph.neighbors")]
    m["graph.neighbors_ms"] = mean("graph.neighbors") * 1e3
    m["graph.neighbors_max_ms"] = float(max(nb) * 1e3) if nb else 0.0
    m["graph.neighbors_calls"] = len(nb)

    m["persist.snapshot_write_s"] = mean("persist.snapshot_write")
    sizes = rec.samples.get("persist.snapshot_mb", [])
    m["persist.snapshot_mb"] = float(np.median(sizes)) if sizes else 0.0
    m["persist.snapshot_load_s"] = mean("persist.snapshot_load")
    m["persist.log_append_ms"] = mean("persist.log_append") * 1e3
    m["persist.log_replay_s"] = mean("persist.log_replay")
    m["persist.replay_records"] = c["persist.replay_records"]

    m["methods.operator_build_s"] = total("methods.operator_for")
    m["methods.operator_calls"] = len(of("methods.operator_for"))
    m["methods.spectral_solve_s"] = total("methods.spectral_solve")
    m["methods.spectral_iterations"] = c["methods.spectral_iterations"]

    m["linalg.push_s"] = total("linalg.push")
    m["linalg.push_calls"] = len(of("linalg.push"))
    m["linalg.push_iterations"] = c["linalg.push_iterations"]
    m["linalg.push_fallbacks"] = c["linalg.push_fallbacks"]
    m["linalg.batch_s"] = total("linalg.batch")
    m["linalg.batch_calls"] = len(of("linalg.batch"))
    m["linalg.batch_columns"] = c["linalg.batch_columns"]
    m["linalg.batch_sweeps"] = c["linalg.batch_sweeps"]
    m["linalg.incremental_s"] = total("linalg.incremental")
    m["linalg.incremental_calls"] = len(of("linalg.incremental"))

    m["shard.operator_build_s"] = total("shard.operator_for")
    m["shard.solve_s"] = total("shard.solve")
    m["shard.solve_rounds"] = c["shard.solve_rounds"]
    m["shard.push_local"] = counters["sharding.shard_push_local"]
    m["shard.push_fallback"] = counters["sharding.shard_push_fallback"]

    # The service's own request spans (plan / cache.commit / admission).
    by_name: dict[str, list[float]] = {}
    for s in raw["service_spans"]:
        by_name.setdefault(s.name, []).append(s.duration)

    def svc_ms(name):
        d = by_name.get(name, [])
        return float(np.mean(d) * 1e3) if d else 0.0

    submits = of("serving.submit")
    m["serving.plan_ms"] = svc_ms("plan")
    m["serving.self_ms"] = (
        float(np.mean([selfs[s.sid] for s in submits]) * 1e3) if submits else 0.0
    )
    m["serving.cache_hit_ratio"] = (
        counters["cache.hits"] / counters["cache.lookups"] if counters["cache.lookups"] else 0.0
    )
    m["serving.cache_commit_ms"] = svc_ms("cache.commit")
    flushes = counters["coalescer.flushes"]
    m["serving.coalescer_occupancy"] = counters["coalescer.columns"] / flushes if flushes else 0.0
    for cause in ("demand", "window", "age", "backlog"):
        m[f"serving.flushes_{cause}"] = counters[f"coalescer.{cause}"]
    m["serving.admission_wait_ms"] = svc_ms("admission")
    m["serving.admission_rejected"] = counters["admission.rejected"]
    for strategy in STRATEGIES:
        m[f"serving.strategy.{strategy}"] = counters[f"plan.{strategy}"]

    # Self time by layer, as a share of the benchmark's own operation spans.
    bench_total = sum(s.duration for s in spans if s.name.startswith("bench.") and s.parent is None)
    by_layer = Counter()
    for s in unit_spans:
        by_layer[s.name.split(".", 1)[0]] += selfs[s.sid]
    for layer in LAYERS:
        m[f"self.{layer}_pct"] = 100.0 * by_layer[layer] / bench_total if bench_total else 0.0
    m["unattributed_pct"] = 100.0 * by_layer["bench"] / bench_total if bench_total else 0.0

    # Split each restart: snapshot load, operator prebuild, the rest of
    # warm_start (state load, service construction, cache seeding) and
    # answering the query set; means per restart.
    for label in ("clean", "replay"):
        restarts = of(f"bench.restart_{label}")
        parts = Counter()
        for s in unit_spans:
            if top[s.sid].name != f"bench.restart_{label}":
                continue
            if s.name == "persist.snapshot_load":
                parts["load"] += s.duration
            elif s.name in ("methods.operator_for", "shard.operator_for") and _inside(
                    s, by_id, "serving.warm_start"):
                parts["prebuild"] += s.duration
            elif s.name == "serving.warm_start":
                parts["seed"] += selfs[s.sid]
            elif s.name == "serving.submit":
                parts["answer"] += s.duration
        for part in ("load", "prebuild", "seed", "answer"):
            m[f"restart.{label}_{part}_s"] = parts[part] / max(1, len(restarts))

    base = headline(plain)[headline_key]
    m["telemetry.trace_overhead_pct"] = 100.0 * (headline(traced)[headline_key] - base) / base
    m["telemetry.shims_restored"] = raw["shims"]
    return m


def _inside(span, by_id: dict, name: str) -> bool:
    """Whether ``span`` has an ancestor called ``name``."""
    node = by_id.get(span.parent)
    while node is not None:
        if node.name == name:
            return True
        node = by_id.get(node.parent)
    return False
