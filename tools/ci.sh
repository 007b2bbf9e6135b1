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

# One graph representation: the CSR edge store is the only adjacency.
# Fail if the identifiers of the deleted per-node dict adjacency
# reappear, and print the graph layer's line count so size is tracked
# next to speed.
if grep -rnwE '_succ|_pred|_materialize|_coo_from_dicts|grow_slot|reset_slots' src/repro/; then
    echo "FAIL: per-node dict adjacency identifiers reappeared under src/repro/" >&2
    exit 1
fi
# The store is the CSR, so a delta splices it and drops every cache
# entry: nothing is left to patch.  Fail if the deferred cache refresh
# (its thunk, plan, patch table and chain bound), the COO decode hooks
# or a cached ("coo",) triple reappear.
if grep -rnE 'PendingRefresh|_RefreshPlan|_CHAIN_FRACTION|_patch_of|_coo_from_lazy|\("coo",\)' src/repro/; then
    echo "FAIL: the deferred cache refresh or a cached COO triple reappeared under src/repro/" >&2
    exit 1
fi
echo "src/repro/graph/ lines: $(cat src/repro/graph/*.py src/repro/graph/backends/*.py | wc -l)"

# One operator builder: the method registry (src/repro/methods/) is the
# only code that turns a group key into a transition, an operator bundle
# or a sharded operator.  Fail if the deleted parallel builders reappear,
# or if a graph-cache construction site (cached) shows up outside the
# registry and the BaseGraph definitions in graph/base.py.
if grep -rnwE 'walk_operator|d2pr_sharded_operator|pagerank_transition' src/repro/; then
    echo "FAIL: a parallel operator builder reappeared under src/repro/" >&2
    exit 1
fi
if grep -rnE '\.cached\(' src/repro/ \
        | grep -vE '^src/repro/(methods/[a-z_]+|graph/base)\.py:'; then
    echo "FAIL: operator construction outside src/repro/methods/" >&2
    exit 1
fi

# One graph-cache entry per matrix: a transition lives only inside its
# ("operator", ...) bundle and ("theta", w) holds theta alone, so each
# matrix is rebuilt once after a delta.  Fail if a separate transition or
# adjacency+theta key returns, or the code that carried one entry's
# correction over to its twin (the transpose seeding, the bundle refresh,
# the graph-level bundle wrapper).
if grep -rnE --include='*.py' '\("(d2pr_transition|fatigued_transition|adj_theta)"|seed_transpose_from|operator_bundle\(|_refresh_bundle' src/repro/; then
    echo "FAIL: a duplicate graph-cache entry or its refresh plumbing reappeared under src/repro/" >&2
    exit 1
fi
echo "src/repro/methods/ + core/ lines: $(cat src/repro/methods/*.py src/repro/core/*.py | wc -l)"

# The graph layer knows only the adjacency and theta: a delta splices
# the CSR store and drops every entry, and the method rebuilds its
# bundle from ("csr", w) and ("theta", w).  Fail if transition math or a
# bundle patch returns to src/repro/graph/ (the changed-row transition
# values, the bundle correction, the softmax, any repro.linalg import),
# or if LinearOperatorBundle grows a correction method again.
if grep -rnE 'transition_vals|\.corrected\(|segment_softmax_weights|(from|import) repro\.linalg' src/repro/graph/; then
    echo "FAIL: transition math or a bundle patch reappeared under src/repro/graph/" >&2
    exit 1
fi
if grep -n 'def corrected' src/repro/linalg/operator.py; then
    echo "FAIL: LinearOperatorBundle.corrected reappeared in src/repro/linalg/operator.py" >&2
    exit 1
fi

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

# One local kernel: personalised queries push through linalg/push.py
# whether or not the service shards, and the shard layer serves global
# solves only.  Fail if shard-local push (its ghost-node systems, its
# escaped-mass certificate, the planner's shard lookup) or the service's
# shard size-floor knob reappear.
if grep -rnE 'push_context|_solve_shard_push|_local_shard|shards_of|ghost_mass|shard_size_floor' src/repro/; then
    echo "FAIL: shard-local push or the shard size-floor knob reappeared under src/repro/" >&2
    exit 1
fi

# Chebyshev sweeps are sound only on a reversible transition, and only
# the method descriptor knows which transitions are: callers pass
# CentralityMethod.reversible(graph, group_key), never a literal.
if grep -rnE 'reversible=True' src/repro/; then
    echo "FAIL: a literal reversible=True appeared under src/repro/; pass the method predicate" >&2
    exit 1
fi

# One Perron-pair site: the spectral methods' cached Lanczos start
# (methods/spectral.py::_perron_start) is the library's only eigensolver
# call, so every spectral loop shares one pair per graph version.
if grep -rn 'eigsh(' src/repro/ | grep -v '^src/repro/methods/spectral\.py:'; then
    echo "FAIL: eigsh( appeared outside src/repro/methods/spectral.py; use _perron_start" >&2
    exit 1
fi

# One float64 batch kernel: batch sweeps run in double precision only.
# Fail if the deleted float32 phase (its matrix copy, switch tolerance
# and stall guard) or a precision= keyword reappears in the layers that
# solve or forward batched systems.
if grep -rnE 'mat_f32|_MIXED_SWITCH_TOL|stall_factor|precision=' \
        src/repro/linalg/ src/repro/serving/ src/repro/core/ src/repro/recsys/; then
    echo "FAIL: a batch precision mode reappeared under src/repro/" >&2
    exit 1
fi

# One recommender path: D2PRRecommender solves through solve_many (plus
# push for recommend_one and incremental correction for update).  Fail
# if its serving-layer client mode or its per-query solver fork
# reappears, and print the recommender layer's line count.
if grep -rnE 'RankingService|RankRequest|self\.service|config\.solver' src/repro/recsys/; then
    echo "FAIL: the recommender's service mode or solver fork reappeared under src/repro/recsys/" >&2
    exit 1
fi
echo "src/repro/recsys/ lines: $(cat src/repro/recsys/*.py | wc -l)"

# No option without a caller: the paper's Eq. (1) has two parameters, p
# and beta.  The theta clamp is fixed (1.0 unweighted, the smallest
# positive theta weighted), solvers report an exhausted budget through
# converged=False, and the service builds its own planner, cache and
# coalescer.  Fail if raise_on_failure returns under src/repro/, if
# clamp_min appears outside the paper-era builders in linalg/transition.py
# and their call in methods/stochastic.py, or if trace_sample returns to
# the serving layer.
if grep -rn --include='*.py' 'raise_on_failure' src/repro/; then
    echo "FAIL: raise_on_failure reappeared under src/repro/; report through converged" >&2
    exit 1
fi
if grep -rn --include='*.py' 'clamp_min' src/repro/ \
        | grep -vE '^src/repro/linalg/transition\.py:' \
        | grep -vE '^src/repro/methods/stochastic\.py:[0-9]+: .*theta=theta, clamp_min=(floor|1\.0)$'; then
    echo "FAIL: a clamp_min option reappeared under src/repro/" >&2
    exit 1
fi
if grep -rn --include='*.py' 'trace_sample' src/repro/serving/; then
    echo "FAIL: trace_sample reappeared under src/repro/serving/" >&2
    exit 1
fi

# One pooled batch path: a coalescer flush resolves each key's
# diag(r)·M·diag(c) factors through its method (CentralityMethod.factors),
# so a p grid solves as one block over one adjacency, and every batch
# sweep takes its column sums as one BLAS `ones @ block` (a strided
# .sum(axis=0) over a C-ordered n x K block costs ~4x as much).  Fail if
# serving/coalescer.py builds an operator itself, or if a .sum(axis=0)
# returns to linalg/batch.py.  The linalg/ line count is printed above.
if grep -n 'operator_for(' src/repro/serving/coalescer.py; then
    echo "FAIL: serving/coalescer.py calls operator_for; resolve factors through the method" >&2
    exit 1
fi
if grep -n 'sum(axis=0)' src/repro/linalg/batch.py; then
    echo "FAIL: a .sum(axis=0) column sum reappeared in src/repro/linalg/batch.py; use ones @ block" >&2
    exit 1
fi
# The pooled loop gathers columns with block.take(idx, axis=1), which
# returns C order directly; copying a fancy-indexed (Fortran-ordered)
# slice through ascontiguousarray costs 2-5x as much per compaction.
if grep -nE 'ascontiguousarray\([a-z_]+\[:, ' src/repro/linalg/batch.py; then
    echo "FAIL: src/repro/linalg/batch.py gathers columns through ascontiguousarray(block[:, idx]); use block.take(idx, axis=1)" >&2
    exit 1
fi

# Corrections and pushes read the transition factors: a delta captures
# the memoised (M, r, c), a push and a correction run on them, and the
# old system's residual is full - delta over the changed rows.  Fail if
# RankingService.apply_delta, _solve_push or _solve_incremental calls
# _bundle or operator_for (a materialised transition), or if
# linalg/incremental.py defines pre_delta_residual (the second full
# residual per corrected answer) again.
python - <<'EOF'
import ast
import sys

service = ast.parse(open("src/repro/serving/service.py").read())
paths = {"apply_delta", "_solve_push", "_solve_incremental"}
found, bad = set(), []
for cls in service.body:
    if isinstance(cls, ast.ClassDef) and cls.name == "RankingService":
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in paths:
                found.add(fn.name)
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        func = node.func
                        name = getattr(func, "attr", getattr(func, "id", None))
                        if name in ("_bundle", "operator_for"):
                            bad.append(f"service.py:{node.lineno}: "
                                       f"{fn.name} calls {name}")
if found != paths:
    bad.append(f"RankingService lacks {sorted(paths - found)}")
incremental = ast.parse(open("src/repro/linalg/incremental.py").read())
if any(isinstance(node, ast.FunctionDef) and node.name == "pre_delta_residual"
       for node in incremental.body):
    bad.append("linalg/incremental.py defines pre_delta_residual")
if bad:
    print("FAIL: the push/correction path builds a transition:", *bad,
          sep="\n  ", file=sys.stderr)
    sys.exit(1)
EOF

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
    # A tail of 3 localized deltas, as restart-recover replays.
    for lo in (0, 100, 200):
        svc.apply_delta(GraphDelta.insert(
            np.array([lo, lo + 1], dtype=np.int64),
            np.array([lo + 9, lo + 11], dtype=np.int64)))
    # Count the COO -> CSR conversions of the replaying restart and its
    # first read: the mapped snapshot is the CSR and each replayed delta
    # splices it, so there must be none.
    from scipy import sparse
    owner = next(c for c in sparse.coo_matrix.__mro__ if "tocsr" in vars(c))
    real_tocsr, converted = owner.tocsr, []

    def counting_tocsr(mat, *args, **kwargs):
        converted.append(mat.shape)
        return real_tocsr(mat, *args, **kwargs)

    owner.tocsr = counting_tocsr
    try:
        warm = RankingService.warm_start(tmp / "ckpt", backend="mmap")
        restored = warm.rank(req)
    finally:
        owner.tocsr = real_tocsr
    assert warm._warm_started["replayed"] == 3, warm._warm_started
    assert warm._warm_started["seeded"] == 1, warm._warm_started
    live = svc.rank(req)
    # The replayed edge deltas correct the seeded answer, no re-solve,
    # and the adjacency the correction read aliases the backend's
    # arrays: no conversion and no copy.
    assert restored.plan.strategy == "incremental", restored.plan.strategy
    assert converted == [], converted
    mat = warm.graph.to_csr(weighted=False)
    indptr, indices, _ = warm.graph.backend.csr
    assert np.shares_memory(mat.indptr, indptr), "indptr was copied"
    assert np.shares_memory(mat.indices, indices), "indices were copied"
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
