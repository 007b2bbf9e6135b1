"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-local --seed 1 --seconds 15 --trace 0

Workloads (each module states why it was chosen and which layers it
leaves idle): ``serve-local``, ``analytics-sweep``, ``restart-recover``.

The inputs are generated from ``--seed`` and handed to the library under
``src/`` through its public API.  Set-up runs ``harness.SETUPS`` times
(``setup_s`` is the median); units of the workload then run until their
timed wall time reaches ``--seconds``.  Every answer is re-verified by the
independent checker in ``perfbench/checker.py``; a failed operation is an
exception, an admission rejection, an unconverged answer, a checker
rejection or a leaked temp resource.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` reports the per-layer metrics: units alternate untraced and
traced, and the traced ones run under the shims of ``perfbench/tracing.py``.
Per-layer conventions: ``*_s`` are totals over the traced units (means
per call for snapshot/replay, the median for ``graph.ingest_s``), ``*_ms``
are means per call, ``*_pct`` are shares of the benchmark's own operation
spans, counts are totals over the traced units, and ``stage.*`` are
medians over the untraced units.

The last line of standard output is the result object; the line before
it is a report with provenance, sample counts and failures.  Spans and
the report are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: workload -> (module, the end-to-end metric the trace overhead is taken on)
WORKLOADS = {
    "serve-local": ("perfbench.serve_local", "request_p50_ms"),
    "analytics-sweep": ("perfbench.analytics_sweep", "cycle_s"),
    "restart-recover": ("perfbench.restart_recover", "cycle_s"),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A hung run must still end inside the 180 s budget, loudly.
    faulthandler.dump_traceback_later(170, exit=True)

    import importlib

    from perfbench import harness
    from perfbench.checker import self_test
    from perfbench.common import leaked_resources, provenance

    out_dir = ROOT / ".bench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # Everything the library writes to "the temp directory" (mmap stores,
    # shard pool files) and the checkpoints land inside the checkout.
    tempfile.tempdir = str(tmp)

    module_name, headline_key = WORKLOADS[args.workload]
    workload = importlib.import_module(module_name)
    failures = [f"checker self-test: {f}" for f in self_test()]
    raw = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    leaks = leaked_resources(tmp)
    shutil.rmtree(tmp, ignore_errors=True)

    units = raw["units"]
    checked = [raw["warmup"]] + [u for _, u in units]
    attempted = sum(u.attempted for u in checked) + 1
    failed = sum(len(u.failures) for u in checked) + len(leaks) + bool(failures)
    for u in checked:
        failures.extend(u.failures)
    failures.extend(f"leaked {name}" for name in leaks)

    plain = [u for traced, u in units if not traced]
    head = harness.headline(plain)
    stages = harness.stage_metrics(plain)
    if args.trace:
        values = harness.layer_metrics(raw, headline_key)
        for stage in ("checkpoint_s", "restart_clean_s", "restart_replay_s", "sweep_s"):
            values[f"stage.{stage}"] = stages.get(stage, 0.0)
        values["stage.delta_p50_ms"] = stages.get("delta_ms", 0.0)
        values["bench.error_rate"] = failed / attempted
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, u in harness.PER_LAYER.items()}
    else:
        import statistics

        values = dict(head)
        values["setup_s"] = statistics.median(raw["setup_s"])
        values["peak_rss_mb"] = raw["peak_rss_mb"]
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, (u, _) in harness.END_TO_END.items()}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(ROOT, args.seed),
        "setup_s": raw["setup_s"],
        "units": len(units),
        "timed_s": sum(u.wall for _, u in units),
        "requests": head["requests"],
        "beyond_p95": head["beyond_p95"],
        "stages": stages,
        "unit_walls": [round(u.wall, 4) for _, u in units],
        "counters": dict(sum((u.counters for traced, u in units if not traced), Counter())),
        "checked": raw["checker"].checked,
        "error_rate": failed / attempted,
        "failures": failures[:20],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {"report": report, "metrics": metrics}, indent=1, default=str))
    if raw["recorder"] is not None:
        raw["recorder"].dump(out_dir / f"{stem}.spans.tsv")
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    faulthandler.cancel_dump_traceback_later()
    return 0


if __name__ == "__main__":
    sys.exit(main())
