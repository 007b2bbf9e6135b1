#!/usr/bin/env bash
# Tier-1 CI gate: full test suite, the structural guards below, the
# stress suite under a watchdog, persistence and observability smokes,
# and a short run of the repository benchmark (perfbench/run.py) on each
# of its three workloads — serve-local (push, cache, deltas through the
# serving front), analytics-sweep (batched power iteration, coalescer,
# spectral methods) and restart-recover (checkpoint, warm restart,
# sharded solves) — each of which must report every answer correct and
# zero failed operations, so a broken serving, batch, persistence or
# sharding path fails CI.
# .github/workflows/ci.yml runs this script on every push; run it
# locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

TMPDIR_BASE="${TMPDIR:-/tmp}"

# Snapshot leakable artifacts so an unreleased resource fails the run:
# repro_mmap_* backend directories from mmap-backed graphs.
mmapdir_before=$(ls "$TMPDIR_BASE" 2>/dev/null | grep '^repro_mmap_' || true)

# One graph representation: the columnar store (plus the CSR derived
# from it) is the only adjacency.  Fail if the identifiers of the
# deleted per-node dict adjacency reappear, and print the graph layer's
# line count so size is tracked next to speed.
if grep -rnwE '_succ|_pred|_materialize|_coo_from_dicts|grow_slot|reset_slots' src/repro/; then
    echo "FAIL: per-node dict adjacency identifiers reappeared under src/repro/" >&2
    exit 1
fi
echo "src/repro/graph/ lines: $(cat src/repro/graph/*.py src/repro/graph/backends/*.py | wc -l)"

# One operator builder: the method registry (src/repro/methods/) is the
# only code that turns a group key into a transition, an operator bundle
# or a sharded operator.  Fail if the deleted parallel builders reappear,
# or if a graph-cache construction site (operator_bundle / cached) shows
# up outside the registry and the BaseGraph definitions in graph/base.py.
if grep -rnwE 'walk_operator|d2pr_sharded_operator|pagerank_transition' src/repro/; then
    echo "FAIL: a parallel operator builder reappeared under src/repro/" >&2
    exit 1
fi
if grep -rnE '(operator_bundle|\.cached)\(' src/repro/ \
        | grep -vE '^src/repro/(methods/[a-z_]+|graph/base)\.py:'; then
    echo "FAIL: operator construction outside src/repro/methods/" >&2
    exit 1
fi
echo "src/repro/methods/ + core/ lines: $(cat src/repro/methods/*.py src/repro/core/*.py | wc -l)"

# One strategy table: serving mechanisms without a measured win stay
# deleted — the planner's latency self-tuning, the coalescer's age and
# backlog triggers with their poll(), and the front's batch parking
# with its flush timer.  Print the serving layer's line count too.
if grep -rnE 'LatencyRecorder|effective_push_localization|max_age|backlog=|poll_interval|_resolve_parked|def poll' src/repro/serving/; then
    echo "FAIL: a deleted serving mechanism reappeared under src/repro/serving/" >&2
    exit 1
fi
echo "src/repro/serving/ lines: $(cat src/repro/serving/*.py | wc -l)"

# Frontier-local push epochs: an epoch gathers the active rows straight
# from the CSR arrays and scatters over the residual's slots, so it
# never costs O(n).  Fail if the dense scipy row-slice / transpose
# product comes back, and print the solver layer's line count.
if grep -nE 'mat\[active\]|sub\.T @' src/repro/linalg/push.py src/repro/linalg/incremental.py; then
    echo "FAIL: a dense per-epoch push product reappeared in src/repro/linalg/" >&2
    exit 1
fi
echo "src/repro/linalg/ lines: $(cat src/repro/linalg/*.py | wc -l)"

# Local finish: the push loop's local system is sparse and support-sized
# (one sparse LU on the support's out-closure).  Fail if a dense
# factorization or a densified local system appears in the push kernel.
if grep -nE '\.toarray\(|\.todense\(|np\.linalg\.solve' src/repro/linalg/push.py src/repro/linalg/incremental.py; then
    echo "FAIL: a dense local system or factorization appeared in the push kernel" >&2
    exit 1
fi

# One shard schedule, one partitioner, one admission queue: the shard
# worker pool with its shm/mmap substrates, label-propagation
# partitioning, the shard float32 phase and the admission class limits
# stay deleted.  Print the shard layer's line count.
if grep -rnE 'ShardWorkerPool|pool_substrate|shard_workers|labelprop|intra_f32|relax_block|limits=' src/repro/; then
    echo "FAIL: a deleted shard or admission mechanism reappeared under src/repro/" >&2
    exit 1
fi
echo "src/repro/shard/ lines: $(cat src/repro/shard/*.py | wc -l)"

# No inert bookkeeping: the shard plan's identity relabeling and its
# graph-cached plan, the coalescer's cross-flush warm start with its
# group LRU, and the warm-start paths no caller used stay deleted.
if grep -rnE 'prev_signature|max_groups|_evict_idle_groups|unpermute|def permute|shard_plan\(|warm_from|"chain"' src/repro/; then
    echo "FAIL: deleted shard-plan or warm-start bookkeeping reappeared under src/repro/" >&2
    exit 1
fi

# A cache hit builds nothing: the planner resolves shard state lazily,
# and warm_start builds no operator.  Fail if the service-side shard
# memo, the checkpoint's group-key list or the restart prebuild return.
if grep -rnE '_shard_ops|group_keys|pre-builds' src/repro/serving/; then
    echo "FAIL: the shard memo or the warm_start prebuild reappeared under src/repro/serving/" >&2
    exit 1
fi

python -m pytest -x -q

# Re-run the multi-threaded stress suite under a hard watchdog: a
# deadlock in the serving front must fail CI with stack dumps, not hang
# it.  pytest-timeout (per-test timeouts) is used when installed; the
# fallback is pytest's built-in faulthandler (all-thread stack dump
# after the timeout) fenced by coreutils `timeout` to actually kill the
# run.
if python -c "import pytest_timeout" 2>/dev/null; then
    timeout 300 python -m pytest tests/serving/test_stress.py -q \
        --timeout=120 --timeout-method=thread
else
    timeout 300 python -m pytest tests/serving/test_stress.py -q \
        -o faulthandler_timeout=120
fi

# Persistence roundtrip smoke: snapshot -> mutate+log -> warm restart
# must answer the original query certificate-equal after replay.
python - <<'EOF'
import shutil, tempfile
import numpy as np
from pathlib import Path
from repro.graph import Graph, GraphDelta
from repro.serving import RankingService
from repro.serving.planner import RankRequest

rng = np.random.default_rng(7)
n = 500
rows = rng.integers(0, n, 4000); cols = rng.integers(0, n, 4000)
keep = rows != cols
g = Graph()
g.add_nodes_from(range(n))
g.add_edges_arrays(rows[keep], cols[keep], np.ones(int(keep.sum())))

tmp = Path(tempfile.mkdtemp(prefix="repro_ci_persist_"))
try:
    svc = RankingService(g)
    req = RankRequest(p=0.0)
    base = svc.rank(req)
    svc.checkpoint(tmp / "ckpt")
    # No-delta restart serves the checkpointed answer as a pure hit.
    # (Must run before the delta below: apply_delta tees into the log
    # armed by checkpoint, making every later restart a replaying one.)
    warm2 = RankingService.warm_start(tmp / "ckpt")
    again = warm2.rank(req)
    assert again.plan.strategy == "cached", again.plan.strategy
    assert float(np.abs(base.scores.values - again.scores.values).sum()) == 0.0
    svc.apply_delta(GraphDelta.insert(
        np.array([0, 1], dtype=np.int64), np.array([9, 11], dtype=np.int64)))
    warm = RankingService.warm_start(tmp / "ckpt", backend="mmap")
    assert warm._warm_started["replayed"] == 1, warm._warm_started
    live = svc.rank(req)
    restored = warm.rank(req)
    l1 = float(np.abs(live.scores.values - restored.scores.values).sum())
    assert l1 <= 2 * req.tol, f"warm restart diverged: L1={l1:g}"
    print("persistence roundtrip smoke: OK")
finally:
    shutil.rmtree(tmp, ignore_errors=True)
EOF

# Observability smoke: a traced query stream through the front must
# yield traces covering admission -> plan -> solve -> cache commit
# (with solver convergence recorded, spectral katz included), and both
# exporters must round-trip through their own parsers.
python - <<'EOF'
import json
import numpy as np
from repro.graph import Graph
from repro.serving import RankingService, ServingFront
from repro.serving.planner import RankRequest
from repro.telemetry import parse_prometheus

rng = np.random.default_rng(11)
n = 300
rows = rng.integers(0, n, 3000); cols = rng.integers(0, n, 3000)
keep = rows != cols
g = Graph.from_arrays(rows[keep], cols[keep], num_nodes=n)

svc = RankingService(g, tracing=True, trace_capacity=128)
with ServingFront(svc, workers=3, capacity=128) as front:
    nodes = g.nodes()
    stream = [RankRequest(p=0.0, tol=1e-8)]
    stream += [
        RankRequest(p=0.0, seeds=(nodes[int(i)],), tol=1e-6)
        for i in rng.integers(0, n, 10)
    ]
    stream.append(RankRequest(method="katz", tol=1e-8))
    for req in stream:
        front.rank(req)
full = [
    t for t in svc.tracer.traces()
    if t.root.find("admission") is not None
    and t.root.find("plan") is not None
    and t.root.find("solve") is not None
    and t.root.find("cache.commit") is not None
]
assert full, "no trace covers admission+plan+solve+cache.commit"
solved = [
    t for t in full
    for rec in t.root.find("solve").annotations.get("solver", [])
    if rec.get("iterations") is not None and rec.get("residual") is not None
]
assert solved, "no trace recorded solver iterations + residual"
katz = [
    rec
    for t in full
    for rec in t.root.find("solve").annotations.get("solver", [])
    if rec["method"] == "katz"
]
assert katz and katz[0]["converged"] and katz[0]["residual"] <= 1e-8, (
    f"katz solve recorded no solver telemetry: {katz}"
)

samples = parse_prometheus(svc.telemetry.to_prometheus())
names = {name for name, _ in samples}
for family in (
    "serving_requests_total", "front_served_total",
    "admission_admitted_total", "cache_lookups_total",
    "coalescer_flushes_total", "serving_latency_seconds_count",
):
    assert family in names, f"missing {family} in Prometheus export"
doc = json.loads(svc.telemetry.to_json())
assert doc["format"] == "repro-telemetry/1"
assert "serving_requests_total" in doc["metrics"]
svc.close()
print(f"observability smoke: OK ({len(full)} full traces, "
      f"{len(names)} exported series)")
EOF

# Benchmark smoke: two seconds of each perfbench workload.  The last
# line of its output is the result object; every answer must pass the
# benchmark's independent checker and no operation may fail.
for workload in serve-local analytics-sweep restart-recover; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
        | tail -n 1 \
        | python3 -c '
import json, sys
name = sys.argv[1]
result = json.load(sys.stdin)
correct, failed = result["correct"], result["failed"]
if not (correct and failed == 0):
    sys.exit(f"FAIL: perfbench {name} smoke: correct={correct} failed={failed}")
print(f"perfbench {name} smoke: OK")
' "$workload"
done

fail=0
mmapdir_after=$(ls "$TMPDIR_BASE" 2>/dev/null | grep '^repro_mmap_' || true)
leaked=$(comm -13 <(sort <<<"$mmapdir_before") <(sort <<<"$mmapdir_after") | grep . || true)
if [ -n "$leaked" ]; then
    echo "FAIL: leaked mmap backend directories in $TMPDIR_BASE:" >&2
    echo "$leaked" >&2
    fail=1
fi
exit "$fail"
