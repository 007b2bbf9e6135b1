"""Shared helpers: seeded graph generators, statistics, provenance, leaks.

Everything here runs outside the measured regions.  Generators draw only
from the numpy ``Generator`` they are handed, so one ``--seed`` fixes
every input a workload feeds the program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

TOL = 1e-8


def community_ring(n: int, community: int, reps: int, rng: np.random.Generator):
    """Edge arrays of a ring of dense ``community``-node blocks.

    Each node links to ``reps`` random peers inside its block and one
    bridge edge joins consecutive blocks, so personalised mass from a
    seed stays inside a few blocks (the regime forward push targets)
    while global mixing is slow.
    """
    u = np.repeat(np.arange(n, dtype=np.int64), reps)
    offsets = rng.integers(1, community, size=u.size)
    v = (u // community) * community + (u % community + offsets) % community
    bridge_u = np.arange(0, n, community, dtype=np.int64)
    bridge_v = (bridge_u + community) % n
    rows = np.concatenate([u, bridge_u])
    cols = np.concatenate([v, bridge_v])
    keep = rows != cols
    return rows[keep], cols[keep]


def pareto_weighted(n: int, m: int, shape: float, rng: np.random.Generator):
    """Edge arrays with Pareto(``shape``) endpoint popularity, weights 1-5.

    Both endpoints are drawn in proportion to a heavy-tailed popularity,
    so a few hubs collect a large share of the edges while most nodes
    keep a handful of links to those same hubs.  The popularities are the
    Pareto quantiles of an even grid, assigned to nodes in a seeded
    order: every seed gets the same hub sizes (a random Pareto sample's
    largest value swings by orders of magnitude between draws), only the
    wiring differs.
    """
    grid = (np.arange(n) + 0.5) / n
    popularity = rng.permutation((1.0 - grid) ** (-1.0 / shape))
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]
    u = np.minimum(np.searchsorted(cdf, rng.random(m)), n - 1)
    v = np.minimum(np.searchsorted(cdf, rng.random(m)), n - 1)
    w = rng.integers(1, 6, size=m).astype(np.float64)
    keep = u != v
    return u[keep], v[keep], w[keep]


def localized_rewire(graph, frac: float, community: int, rng):
    """A delta rewiring about ``frac`` of the edges inside one block.

    Streaming edits cluster (one site re-crawled, one user editing their
    list), so the delta deletes edges whose endpoints both lie in a
    random contiguous run of communities and inserts as many fresh
    intra-run edges.  The touched node set stays far below the service's
    localized-delta threshold, so cached answers are corrected, not
    evicted.
    """
    from repro.graph.delta import GraphDelta

    n = graph.number_of_nodes
    m = graph.number_of_edges
    span = max(community, int(2.2 * frac * n)) // community * community
    lo = int(rng.integers(0, n // community)) * community
    lo = min(lo, n - span)
    rows, cols, _ = graph.edge_arrays()
    inside = np.flatnonzero(
        (rows >= lo) & (rows < lo + span) & (cols >= lo) & (cols < lo + span)
    )
    k = min(inside.size // 2, int(frac * m) // 2)
    removed = rng.choice(inside, k, replace=False)
    ins_r = rng.integers(0, span, k)
    ins_c = (ins_r + rng.integers(1, community, k)) % span
    keep = ins_r != ins_c
    return GraphDelta.delete(rows[removed], cols[removed]) | GraphDelta.insert(
        ins_r[keep] + lo, ins_c[keep] + lo
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> str:
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            np.show_config()
    except Exception as exc:  # noqa: BLE001 - provenance is best effort
        return f"unavailable ({type(exc).__name__})"
    text = buf.getvalue()
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("name:"):
            return stripped.split(":", 1)[1].strip()
    return text.strip().splitlines()[0] if text.strip() else "unknown"


def _git(root: Path) -> dict:
    # Never walk above the checkout: outside a git checkout there is no
    # SHA to report, and an enclosing repository's would be wrong.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}

    def run(*args):
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=30, env=env,
        )
        if out.returncode != 0:
            raise OSError(out.stderr.strip())
        return out.stdout.strip()

    try:
        sha = run("rev-parse", "HEAD")
        dirty = bool(run("status", "--porcelain", "--", "src"))
        return {"sha": sha, "dirty": dirty}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "error": str(exc)[:200]}


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` file names and bytes (identifies the code
    under test when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git": _git(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def leaked_resources(tmp: Path) -> list[str]:
    """Shard pool files, mmap stores and checkpoint dirs left in ``tmp``.

    The benchmark points :mod:`tempfile` at ``tmp`` for the whole run, so
    every ``repro_shard_*.mmap`` substrate file and ``repro_mmap_*``
    store the library creates lands there; the workloads create their
    checkpoint directories there too and must have removed them.
    """
    return sorted(p.name for p in tmp.iterdir()) if tmp.exists() else []
