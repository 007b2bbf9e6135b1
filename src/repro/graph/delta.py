"""Batched streaming edge mutations and delta-aware cache refresh.

Every mutator on :class:`~repro.graph.base.BaseGraph` historically bumped
the mutation counter and evicted the *entire* derived-object cache — COO
arrays, CSR adjacency, transition matrices, operator bundles.  For a
streaming workload ("heavy traffic over graphs that change continuously",
the ROADMAP north star) that is catastrophic: one re-weighted edge forces
the next query to re-export 20M edges, re-run the log-space softmax over
every stored entry and re-derive the solver views, even though the delta
touched a handful of rows.

This module provides the streaming path:

* :class:`GraphDelta` — a batched, array-native description of edge
  inserts, deletes and re-weights (the first deletion support in the
  library; the classic mutators only ever add).
* :func:`apply_graph_delta` — the implementation behind
  :meth:`BaseGraph.apply_delta`: validates the delta, merges it into the
  canonical columnar edge store (compress + ``np.insert`` against the
  key-sorted arrays — no global re-sort), and **refreshes** the known
  derived caches instead of evicting them.

The graph cache patches only what the graph itself owns: the adjacency
``("csr", w)`` and ``θ`` under ``("theta", w)``.  The adjacency's
touched rows are spliced in from the store (untouched row runs are
block-copied) and the touched nodes' ``θ`` recomputed, both exactly
equal to a fresh build.  Every other entry — each operator bundle, the
raw COO triple, unknown keys — is dropped, so the refresh can never
serve a stale object.  A stochastic transition is a pure function of
the adjacency and ``θ`` (paper Eq. (1): ``T = diag(r)·M·diag(c)``), and
its method rebuilds it from the patched pair on the next read; this
module holds no transition math.

The patch is deferred to the entry's first read, and an entry still
unread at the next delta is *chained*: it keeps its last materialised
value and its plan widens to the union of the nodes both deltas touched,
on the current store, so one patch covers a run of deltas.  A chain is
dropped once its union passes a fixed share of the nodes
(``_CHAIN_FRACTION``), where a rebuild costs no more.

Refresh semantics
-----------------
The shared-object contract of the matrix cache is preserved exactly:
cached matrices are never mutated — a refresh *replaces* the cache entry
with a freshly assembled object, so callers still holding the old matrix
(or an operator bundle wrapping it) keep computing consistent answers
against the pre-delta snapshot, just as they would across a classic
mutation.  ``mutation_count`` still bumps once per applied delta.

The rows that change are the adjacency rows of every edge endpoint that
gains, loses or re-weights an out-edge (both endpoints for undirected
graphs, sources for directed ones); they also cover every ``θ`` change,
since ``θ`` is the out-degree / total out-weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import EdgeError, ParameterError

__all__ = ["GraphDelta", "apply_graph_delta"]


def _as_ops(
    rows: np.ndarray | None,
    cols: np.ndarray | None,
    weights: np.ndarray | None,
    *,
    with_weights: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Canonicalise one op group into int64/float64 arrays."""
    if rows is None or cols is None:
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
    rows = np.atleast_1d(np.asarray(rows))
    cols = np.atleast_1d(np.asarray(cols))
    if rows.ndim != 1 or cols.ndim != 1 or rows.shape != cols.shape:
        raise ParameterError(
            "delta rows and cols must be 1-D arrays of equal length, "
            f"got shapes {rows.shape} and {cols.shape}"
        )
    if rows.size and not (
        np.issubdtype(rows.dtype, np.integer)
        and np.issubdtype(cols.dtype, np.integer)
    ):
        raise ParameterError(
            "delta rows and cols must be integer node indices, "
            f"got dtypes {rows.dtype}, {cols.dtype}"
        )
    rows = rows.astype(np.int64, copy=False)
    cols = cols.astype(np.int64, copy=False)
    if not with_weights:
        if weights is not None:
            raise ParameterError("this delta operation takes no weights")
        return rows, cols, None
    if weights is None:
        data = np.ones(rows.shape[0], dtype=np.float64)
    else:
        data = np.atleast_1d(np.asarray(weights, dtype=np.float64))
        if data.shape != rows.shape:
            raise ParameterError(
                f"delta weights must have shape {rows.shape}, "
                f"got {data.shape}"
            )
    return rows, cols, data


def _empty_i() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _empty_f() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class GraphDelta:
    """A batched set of edge mutations against one graph snapshot.

    Build instances through the classmethods and combine them with ``|``:

    >>> import numpy as np
    >>> delta = (
    ...     GraphDelta.insert(np.array([0, 1]), np.array([2, 3]))
    ...     | GraphDelta.delete(np.array([4]), np.array([5]))
    ... )
    >>> delta.size
    3

    Semantics (applied by :meth:`repro.graph.base.BaseGraph.apply_delta`):

    * **deletes** apply first and must name existing edges;
    * **inserts** apply next and *upsert* — an insert of an existing pair
      re-weights it, duplicates within the batch keep the last weight
      (the :meth:`add_edges_arrays` contract);
    * **reweights** apply last and must name an edge that exists after
      the deletes/inserts — the "this edge must already be there" safety
      contract that a bare upsert cannot express.

    For undirected graphs each pair is canonicalised (order-insensitive),
    exactly like :meth:`Graph.add_edge`.

    **Node-level ops** (so the delta log can express every mutation the
    classic API allows):

    * **node inserts** apply before everything else and append new node
      objects (with optional attributes) at the next free indices — edge
      ops in the same delta may therefore reference them;
    * **node deletes** apply last; indices refer to the *post-insert*
      numbering, incident edges are dropped and the surviving nodes are
      compacted (indices above a deleted node shift down, preserving
      relative order).

    Node ops change the index space, so applying a delta that carries
    them evicts the graph's derived-object cache wholesale instead of
    refreshing it.
    """

    insert_rows: np.ndarray = field(default_factory=_empty_i)
    insert_cols: np.ndarray = field(default_factory=_empty_i)
    insert_weights: np.ndarray = field(default_factory=_empty_f)
    delete_rows: np.ndarray = field(default_factory=_empty_i)
    delete_cols: np.ndarray = field(default_factory=_empty_i)
    reweight_rows: np.ndarray = field(default_factory=_empty_i)
    reweight_cols: np.ndarray = field(default_factory=_empty_i)
    reweight_weights: np.ndarray = field(default_factory=_empty_f)
    #: ``((node, attrs_dict), ...)`` appended in order at the next free
    #: indices (before any other op in the delta is applied).
    node_inserts: tuple = ()
    #: Post-insert node indices to remove (incident edges dropped,
    #: survivors compacted).
    node_deletes: np.ndarray = field(default_factory=_empty_i)

    @classmethod
    def insert(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> "GraphDelta":
        """Delta inserting (or upserting) ``rows[k] -> cols[k]`` edges."""
        rows, cols, data = _as_ops(rows, cols, weights, with_weights=True)
        return cls(insert_rows=rows, insert_cols=cols, insert_weights=data)

    @classmethod
    def delete(cls, rows: np.ndarray, cols: np.ndarray) -> "GraphDelta":
        """Delta removing the (existing) edges ``rows[k] -> cols[k]``."""
        rows, cols, _ = _as_ops(rows, cols, None, with_weights=False)
        return cls(delete_rows=rows, delete_cols=cols)

    @classmethod
    def reweight(
        cls, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ) -> "GraphDelta":
        """Delta setting the weight of the (existing) edges to ``weights``."""
        rows, cols, data = _as_ops(rows, cols, weights, with_weights=True)
        return cls(
            reweight_rows=rows, reweight_cols=cols, reweight_weights=data
        )

    @classmethod
    def add_nodes(cls, nodes, attrs=None) -> "GraphDelta":
        """Delta appending new ``nodes`` (each with an optional attr dict).

        ``attrs`` is ``None`` or a sequence of ``{name: value}`` dicts
        aligned with ``nodes``.  The nodes must not already exist on the
        target graph; they receive the next free indices in order, so
        edge ops in the same delta may reference them.
        """
        nodes = list(nodes)
        if attrs is None:
            attrs = [{}] * len(nodes)
        else:
            attrs = [dict(a) if a else {} for a in attrs]
            if len(attrs) != len(nodes):
                raise ParameterError(
                    f"attrs must align with nodes: got {len(attrs)} attr "
                    f"dicts for {len(nodes)} nodes"
                )
        for node in nodes:
            try:
                hash(node)  # unhashable objects fail here, not at apply
            except TypeError:
                raise ParameterError(
                    f"node names must be hashable, got {type(node).__name__}"
                ) from None
        return cls(
            node_inserts=tuple(zip(nodes, attrs)),
        )

    @classmethod
    def remove_nodes(cls, indices) -> "GraphDelta":
        """Delta deleting the nodes at ``indices`` (post-insert numbering).

        Incident edges are dropped and the surviving nodes are compacted.
        """
        indices = np.atleast_1d(np.asarray(indices))
        if indices.ndim != 1:
            raise ParameterError(
                f"node indices must be 1-D, got shape {indices.shape}"
            )
        if indices.size and not np.issubdtype(indices.dtype, np.integer):
            raise ParameterError(
                f"node indices must be integers, got dtype {indices.dtype}"
            )
        return cls(node_deletes=indices.astype(np.int64, copy=False))

    def __or__(self, other: "GraphDelta") -> "GraphDelta":
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return GraphDelta(
            insert_rows=np.concatenate([self.insert_rows, other.insert_rows]),
            insert_cols=np.concatenate([self.insert_cols, other.insert_cols]),
            insert_weights=np.concatenate(
                [self.insert_weights, other.insert_weights]
            ),
            delete_rows=np.concatenate([self.delete_rows, other.delete_rows]),
            delete_cols=np.concatenate([self.delete_cols, other.delete_cols]),
            reweight_rows=np.concatenate(
                [self.reweight_rows, other.reweight_rows]
            ),
            reweight_cols=np.concatenate(
                [self.reweight_cols, other.reweight_cols]
            ),
            reweight_weights=np.concatenate(
                [self.reweight_weights, other.reweight_weights]
            ),
            node_inserts=self.node_inserts + other.node_inserts,
            node_deletes=np.concatenate(
                [self.node_deletes, other.node_deletes]
            ),
        )

    @property
    def size(self) -> int:
        """Total number of operations (edge and node) in the delta."""
        return (
            self.insert_rows.shape[0]
            + self.delete_rows.shape[0]
            + self.reweight_rows.shape[0]
            + len(self.node_inserts)
            + self.node_deletes.shape[0]
        )

    @property
    def has_node_ops(self) -> bool:
        """Whether the delta inserts or deletes nodes (index-space change)."""
        return bool(self.node_inserts) or self.node_deletes.shape[0] > 0

    def endpoints(self) -> np.ndarray:
        """Sorted unique node indices named by any operation."""
        return np.unique(
            np.concatenate(
                [
                    self.insert_rows,
                    self.insert_cols,
                    self.delete_rows,
                    self.delete_cols,
                    self.reweight_rows,
                    self.reweight_cols,
                ]
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GraphDelta insert={self.insert_rows.shape[0]} "
            f"delete={self.delete_rows.shape[0]} "
            f"reweight={self.reweight_rows.shape[0]} "
            f"node_insert={len(self.node_inserts)} "
            f"node_delete={self.node_deletes.shape[0]}>"
        )


# ----------------------------------------------------------------------
# delta application
# ----------------------------------------------------------------------
def _require_positive_weights(data: np.ndarray, what: str) -> None:
    if data.size:
        if not np.isfinite(data).all():
            raise EdgeError(f"{what} weights must be finite")
        if (data <= 0.0).any():
            raise EdgeError(f"{what} weights must be positive")


def _check_indices(
    graph, rows: np.ndarray, cols: np.ndarray, n_total: int, name_of
) -> None:
    from repro.errors import NodeNotFoundError

    if rows.size == 0:
        return
    low = min(int(rows.min()), int(cols.min()))
    high = max(int(rows.max()), int(cols.max()))
    if low < 0 or high >= n_total:
        raise NodeNotFoundError(low if low < 0 else high)
    loops = rows == cols
    if loops.any():
        offender = name_of(int(rows[np.argmax(loops)]))
        raise EdgeError(f"self-loop on {offender!r} is not allowed")


def _locate(
    rows0: np.ndarray, cols0: np.ndarray, keys: np.ndarray, n: np.int64
) -> tuple[np.ndarray, np.ndarray]:
    """Insertion positions of ``keys`` in the key-sorted store, and hits.

    The store is sorted by ``(row, col)``, so each key's row is one run
    of it: only the runs of the rows the keys name are read (found with
    ``searchsorted`` on ``rows0``), never the whole store.  A position
    is where the key sits, or would be inserted (before the entry
    there), in the store.
    """
    if rows0.size == 0:
        return (
            np.zeros(keys.size, dtype=np.int64),
            np.zeros(keys.size, dtype=bool),
        )
    want = keys // n
    runs = np.unique(want)
    lo = np.searchsorted(rows0, runs, side="left")
    lengths = np.searchsorted(rows0, runs, side="right") - lo
    offsets = np.cumsum(lengths) - lengths
    idx = np.repeat(lo - offsets, lengths) + np.arange(int(lengths.sum()))
    local = rows0[idx] * n + cols0[idx]
    at = np.searchsorted(local, keys)
    run = np.searchsorted(runs, want)
    pos = lo[run] + (at - offsets[run])
    hit = np.zeros(keys.size, dtype=bool)
    inside = at < local.size
    hit[inside] = local[at[inside]] == keys[inside]
    return pos, hit


def _missing(keys: np.ndarray, hit: np.ndarray, what: str, n, name_of):
    """Raise for the first key of ``keys`` not ``hit``."""
    if hit.all():
        return
    bad = keys[int(np.flatnonzero(~hit)[0])]
    u = name_of(int(bad // n))
    v = name_of(int(bad % n))
    raise EdgeError(f"cannot {what} missing edge {u!r} -> {v!r}")


def _splice(
    old: np.ndarray,
    lo: int,
    hi: int,
    keep: np.ndarray,
    fresh_at: np.ndarray,
    fresh: np.ndarray,
) -> np.ndarray:
    """``old`` with ``old[lo:hi]`` replaced by its kept entries and the
    fresh ones at their output places, in one concatenation."""
    middle = np.empty(keep.sum() + fresh.size, dtype=old.dtype)
    is_new = np.zeros(middle.size, dtype=bool)
    is_new[fresh_at] = True
    middle[is_new] = fresh
    middle[~is_new] = old[lo:hi][keep]
    return np.concatenate((old[:lo], middle, old[hi:]))


def apply_graph_delta(graph, delta: GraphDelta, *, log=None) -> dict:
    """Apply ``delta`` to ``graph`` with delta-aware cache refresh.

    Implementation of :meth:`repro.graph.base.BaseGraph.apply_delta`;
    see :class:`GraphDelta` for the operation semantics and the module
    docstring for the refresh contract.  Returns a small stats dict
    (op counts plus which cache entries were refreshed, chained or
    dropped).

    When ``log`` is given (a :class:`~repro.graph.persist.DeltaLog`),
    the delta is appended to it after — and only after — a successful
    commit, so replaying the log reproduces exactly the committed state.
    """
    graph._check_mutable()
    if not isinstance(delta, GraphDelta):
        raise ParameterError(
            f"apply_delta expects a GraphDelta, got {type(delta).__name__}"
        )
    stats = {
        "inserted": 0,
        "deleted": 0,
        "reweighted": 0,
        "nodes_inserted": 0,
        "nodes_deleted": 0,
        "refreshed": [],
        "chained": [],
        "dropped": [],
    }
    if delta.size == 0:
        return stats
    n = graph.number_of_nodes

    # -- node-op validation (pure: nothing is committed yet) -----------
    ins_nodes = delta.node_inserts
    for entry in ins_nodes:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise ParameterError(
                "node_inserts entries must be (node, attrs) pairs; "
                "build them with GraphDelta.add_nodes"
            )
    seen: set = set()
    for node, _attrs in ins_nodes:
        if node in graph._index:
            raise ParameterError(
                f"cannot insert node {node!r}: it already exists"
            )
        if node in seen:
            raise ParameterError(f"duplicate node insert {node!r}")
        seen.add(node)
    # All edge-op indices live in the post-insert space of n_total nodes.
    n_total = n + len(ins_nodes)
    del_idx = delta.node_deletes
    if del_idx.size:
        del_idx = np.unique(del_idx)
        if int(del_idx[0]) < 0 or int(del_idx[-1]) >= n_total:
            from repro.errors import NodeNotFoundError

            bad = int(del_idx[0]) if int(del_idx[0]) < 0 else int(del_idx[-1])
            raise NodeNotFoundError(bad)

    def name_of(idx: int):
        return (
            graph.node_at(idx) if idx < n else ins_nodes[idx - n][0]
        )

    ins_r, ins_c = graph._canonical_pairs(delta.insert_rows, delta.insert_cols)
    del_r, del_c = graph._canonical_pairs(delta.delete_rows, delta.delete_cols)
    rew_r, rew_c = graph._canonical_pairs(
        delta.reweight_rows, delta.reweight_cols
    )
    for r, c in ((ins_r, ins_c), (del_r, del_c), (rew_r, rew_c)):
        _check_indices(graph, r, c, n_total, name_of)
    _require_positive_weights(delta.insert_weights, "insert")
    _require_positive_weights(delta.reweight_weights, "reweight")

    n = n_total
    nn = np.int64(n)
    # The merge below is pure: the live store is only replaced at the
    # very end, so any validation error leaves the graph untouched.  It
    # resolves every op against the current store (deletes, then
    # upserts, then reweights, in that order), then writes each column
    # once: the store between the first and last changed position is
    # rebuilt, the rest is copied as two slices.
    rows0, cols0, w0 = graph._canonical_edges()
    m = rows0.shape[0]

    # 1. deletes (must exist)
    del_keys = np.unique(del_r * nn + del_c)
    del_pos, hit = _locate(rows0, cols0, del_keys, nn)
    _missing(del_keys, hit, "delete", n, name_of)
    stats["deleted"] = int(del_keys.shape[0])

    # 2. inserts (upsert, last wins).  A key deleted above is inserted
    # afresh; physically its store entry stays, with the new weight.
    ins_keys = ins_r * nn + ins_c
    sel = graph._dedup_last_wins(ins_keys)
    ins_keys, ins_w = ins_keys[sel], delta.insert_weights[sel]
    ins_pos, ins_hit = _locate(rows0, cols0, ins_keys, nn)
    revived = ins_hit & np.isin(ins_keys, del_keys)
    fresh = ~ins_hit
    stats["inserted"] = int(fresh.sum() + revived.sum())
    removed = np.setdiff1d(del_pos, ins_pos[revived], assume_unique=True)
    fresh_keys, fresh_at = ins_keys[fresh], ins_pos[fresh]
    fresh_w = ins_w[fresh]
    set_pos, set_w = ins_pos[ins_hit], ins_w[ins_hit]

    # 3. reweights (must exist after deletes + inserts)
    if rew_r.size:
        rew_keys = rew_r * nn + rew_c
        sel = graph._dedup_last_wins(rew_keys)
        rew_keys, rew_w = rew_keys[sel], delta.reweight_weights[sel]
        rew_pos, rew_hit = _locate(rows0, cols0, rew_keys, nn)
        gone = np.isin(rew_keys, del_keys) & ~np.isin(rew_keys, ins_keys)
        rew_hit &= ~gone
        new = np.searchsorted(fresh_keys, rew_keys)
        in_fresh = np.zeros(rew_keys.size, dtype=bool)
        ok = new < fresh_keys.size
        in_fresh[ok] = fresh_keys[new[ok]] == rew_keys[ok]
        _missing(rew_keys, rew_hit | in_fresh, "reweight", n, name_of)
        fresh_w[new[in_fresh]] = rew_w[in_fresh]
        set_pos = np.concatenate((set_pos, rew_pos[rew_hit]))
        set_w = np.concatenate((set_w, rew_w[rew_hit]))
        stats["reweighted"] = int(rew_keys.shape[0])

    if removed.size or fresh_at.size:
        # Output place of old position p: p, less the removals before
        # it, plus the fresh entries inserted at or before it.
        lo = int(min(removed.min(initial=m), fresh_at.min(initial=m)))
        hi = int(max(removed.max(initial=-1) + 1, fresh_at.max(initial=0)))
        hi = max(hi, lo)
        keep = np.ones(hi - lo, dtype=bool)
        keep[removed - lo] = False
        out_at = (
            fresh_at - lo - np.searchsorted(removed, fresh_at)
            + np.arange(fresh_at.size)
        )
        rows0 = _splice(rows0, lo, hi, keep, out_at, fresh_keys // nn)
        cols0 = _splice(cols0, lo, hi, keep, out_at, fresh_keys % nn)
        w0 = _splice(w0, lo, hi, keep, out_at, fresh_w)
        set_pos = (
            set_pos - np.searchsorted(removed, set_pos)
            + np.searchsorted(fresh_at, set_pos, side="right")
        )
    elif set_pos.size:
        w0 = np.array(w0)
    if set_pos.size:
        # A reweight of an upserted edge comes later and wins.
        last = graph._dedup_last_wins(set_pos)
        w0[set_pos[last]] = set_w[last]

    # Commit the new canonical store (key-sorted, each edge once), and
    # swap the derived-object cache under the graph's cache lock so a
    # concurrent reader resolving a cached entry never observes the
    # half-rewritten table (the serving layer additionally excludes
    # solves during a delta via its own write barrier).
    if delta.has_node_ops:
        _commit_with_node_ops(graph, delta, del_idx, rows0, cols0, w0, stats)
    else:
        touched = np.unique(np.concatenate(graph._delta_touched(delta)))
        with graph._cache_lock:
            graph._set_edge_store(rows0, cols0, w0)
            _refresh_caches(graph, touched, stats)
    if log is not None:
        log.append(delta)
    return stats


def _commit_with_node_ops(
    graph,
    delta: GraphDelta,
    del_idx: np.ndarray,
    rows0: np.ndarray,
    cols0: np.ndarray,
    w0: np.ndarray,
    stats: dict,
) -> None:
    """Commit a node-op delta: grow/compact the node table, swap the store.

    Node ops change the index space, so every cached derived object
    (including score vectors held by callers) is keyed to a dead
    numbering: the cache is evicted wholesale — no surgical refresh.
    The surviving-node remap is monotone, which keeps the merged edge
    arrays key-sorted (and ``lo < hi`` for undirected graphs) after
    re-indexing.
    """
    new_nodes = list(graph._nodes)
    attrs = graph._node_attrs
    for node, node_attrs in delta.node_inserts:
        idx = len(new_nodes)
        new_nodes.append(node)
        for name, value in node_attrs.items():
            attrs.setdefault(name, {})[idx] = value
    stats["nodes_inserted"] = len(delta.node_inserts)

    if del_idx.size:
        n_total = len(new_nodes)
        keep = np.ones(n_total, dtype=bool)
        keep[del_idx] = False
        remap = np.cumsum(keep, dtype=np.int64) - 1
        edge_keep = keep[rows0] & keep[cols0]
        rows0 = remap[rows0[edge_keep]]
        cols0 = remap[cols0[edge_keep]]
        w0 = w0[edge_keep]
        kept_idx = np.flatnonzero(keep)
        new_nodes = [new_nodes[i] for i in kept_idx.tolist()]
        for name in list(attrs):
            col = attrs[name]
            attrs[name] = {
                int(remap[i]): v for i, v in col.items() if keep[i]
            }
        stats["nodes_deleted"] = int(del_idx.shape[0])

    with graph._cache_lock:
        graph._nodes = new_nodes
        graph._index = {node: i for i, node in enumerate(new_nodes)}
        graph._set_edge_store(rows0, cols0, w0)
        stats["dropped"].extend(graph._cache)
        graph._cache.clear()
        graph._version += 1


#: A chained entry is evicted once the nodes touched since its last
#: materialisation pass this share of ``n``, so an entry only a rebuild
#: reads is not kept forever (timed on an 81,920-node ring, see
#: docs/performance.md § Streaming updates).
_CHAIN_FRACTION = 0.1


class _RefreshPlan:
    """Shared, lazily evaluated patch plan over one union of touched nodes.

    Snapshots the current canonical store (aliased — the columnar arrays
    are immutable once committed) plus ``touched``, the union of the
    nodes every delta since the entries' last materialisation touched,
    and computes the touched rows' scan only when the first pending entry
    is resolved.  All pending entries with one union share one plan, so
    the scan is paid at most once per plan however many entries exist —
    and not at all if nothing is read before the entries are dropped.
    """

    def __init__(
        self,
        *,
        directed: bool,
        n: int,
        store: tuple[np.ndarray, np.ndarray, np.ndarray],
        touched: np.ndarray,
    ) -> None:
        self.directed = directed
        self.n = n
        self.store = store
        self.touched = touched
        self._scan: tuple | None = None

    def _ensure_scan(self) -> tuple:
        """The current store's rows of the touched nodes, CSR-ordered."""
        if self._scan is not None:
            return self._scan
        n = self.n
        rows_c, cols_c, w_c = self.store
        # Sub-COO of the current adjacency restricted to the touched
        # rows, each row's columns ascending as in the CSR: the store is
        # key-sorted, and on an undirected graph the mirrored half
        # (hi, lo) goes first, so the stable sort by row keeps that.
        # The store is row-sorted, so the entries whose row is touched
        # are one bracket per node: no pass over the whole store.
        lo = np.searchsorted(rows_c, self.touched, side="left")
        span = np.searchsorted(rows_c, self.touched, side="right") - lo
        first = np.cumsum(span) - span
        sel = np.arange(span.sum()) + np.repeat(lo - first, span)
        if self.directed:
            r_sub, c_sub, w_sub = rows_c[sel], cols_c[sel], w_c[sel]
        else:
            member = np.zeros(n, dtype=bool)
            member[self.touched] = True
            sel_hi = member[cols_c]
            r_sub = np.concatenate([cols_c[sel_hi], rows_c[sel]])
            c_sub = np.concatenate([rows_c[sel_hi], cols_c[sel]])
            w_sub = np.concatenate([w_c[sel_hi], w_c[sel]])
        position = np.full(n, -1, dtype=np.int64)
        position[self.touched] = np.arange(self.touched.size, dtype=np.int64)
        seg = position[r_sub]
        order = np.argsort(seg, kind="stable")
        c_sub, w_sub = c_sub[order], w_sub[order]
        lengths = np.bincount(seg, minlength=self.touched.size)
        sub_indptr = np.zeros(self.touched.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=sub_indptr[1:])
        # Row sums as the CSR's own ``sum(axis=1)`` forms them (reduceat
        # over each non-empty row), so a patched θ matches a rebuild.
        sums = np.zeros(self.touched.size, dtype=np.float64)
        filled = lengths > 0
        if filled.any():
            sums[filled] = np.add.reduceat(w_sub, sub_indptr[:-1][filled])
        self._scan = (c_sub, w_sub, sub_indptr, lengths, sums)
        return self._scan

    def adjacency(self, mat: sparse.csr_matrix, weighted: bool):
        """``mat`` with the touched rows replaced by the current store's.

        A block splice: each run of untouched rows is copied as one
        slice and each run of touched rows from the scan, so the result
        equals a fresh build exactly at memcpy cost.
        """
        c_sub, w_sub, sub_indptr, lengths, _ = self._ensure_scan()
        rows = self.touched
        old_ptr = mat.indptr
        new_len = np.diff(old_ptr).astype(np.int64)
        new_len[rows] = lengths
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(new_len, out=indptr[1:])
        # Runs of consecutive touched rows, as positions in ``rows``.
        cuts = np.flatnonzero(np.diff(rows) != 1) + 1
        run_lo = np.concatenate([[0], cuts])
        run_hi = np.concatenate([cuts, [rows.size]])
        # Untouched blocks: before the first run, between runs, after
        # the last one.
        keep_lo = old_ptr[np.concatenate([[0], rows[run_hi - 1] + 1])].tolist()
        keep_hi = old_ptr[np.concatenate([rows[run_lo], [self.n]])].tolist()
        put_lo = sub_indptr[run_lo].tolist()
        put_hi = sub_indptr[run_hi].tolist()

        def splice(old: np.ndarray, new: np.ndarray) -> np.ndarray:
            parts = [old[keep_lo[0]:keep_hi[0]]]
            for a, b, c, d in zip(put_lo, put_hi, keep_lo[1:], keep_hi[1:]):
                parts += (new[a:b], old[c:d])
            return np.concatenate(parts)

        indices = splice(mat.indices, c_sub.astype(mat.indices.dtype))
        data = splice(mat.data, w_sub) if weighted else np.ones(indptr[-1])
        out = sparse.csr_matrix((data, indices, indptr), shape=mat.shape)
        out.has_canonical_format = True
        return out

    def theta(self, base: np.ndarray, weighted: bool) -> np.ndarray:
        """``base`` with the touched nodes' θ recomputed on the store."""
        _, _, _, lengths, sums = self._ensure_scan()
        got = base.copy()
        got[self.touched] = sums if weighted else lengths
        # Cached as ("theta", w): shared, so read-only like the build.
        got.flags.writeable = False
        return got


def _patch_of(key: tuple):
    """The ``(plan, base) -> value`` patch of a cache key, or ``None``.

    Two kinds are patched: the adjacency ``("csr", w)`` and
    ``("theta", w)``.  Everything else is dropped; an operator bundle is
    rebuilt from those two on its next read.
    """
    kind = key[0]
    if kind == "csr":
        return lambda plan, mat: plan.adjacency(mat, key[1])
    if kind == "theta":
        return lambda plan, theta: plan.theta(theta, key[1])
    return None


def _refresh_caches(graph, touched: np.ndarray, stats: dict) -> None:
    """Queue patched replacements for known cache entries; drop the rest.

    Entries with a patch (see :func:`_patch_of`) are replaced by
    :class:`~repro.graph.base.PendingRefresh` thunks, so ``apply_delta``
    itself pays only the canonical-store merge; each entry is patched on
    first access after the delta.  A materialised entry is deferred
    against a plan over this delta's ``touched`` nodes (``"refreshed"``).
    An entry *still pending* was not read since an earlier delta: it
    keeps its last materialised value and is re-deferred against the
    union of its plan's nodes and ``touched`` (``"chained"``), so it
    resolves as one patch over the whole run of deltas.  Entries pending
    on one plan move to one wider plan, so they still share one scan.
    A chain whose union passes ``_CHAIN_FRACTION`` of the nodes is
    dropped: past it a rebuild is as cheap, and a chain only a rebuild
    reads would otherwise grow forever.  Operator bundles, the raw
    ``("coo",)`` triple and unknown keys are dropped too (``"dropped"``).
    """
    from repro.graph.base import PendingRefresh

    old = graph._cache
    graph._cache = {}
    graph._version += 1
    if not old:
        return
    n = graph.number_of_nodes
    store = graph._store.columnar
    bound = max(1.0, _CHAIN_FRACTION * n)
    # One plan per previous plan (None: a materialised entry).
    plans: dict = {}

    def plan_after(prev):
        if prev not in plans:
            union = touched if prev is None else np.union1d(
                prev.touched, touched
            )
            plans[prev] = (
                None if prev is not None and union.size > bound
                else _RefreshPlan(
                    directed=graph.directed, n=n, store=store, touched=union
                )
            )
        return plans[prev]

    for key, value in old.items():
        patch = _patch_of(key)
        plan = None
        if patch is not None:
            if type(value) is PendingRefresh:
                plan, kind = plan_after(value.plan), "chained"
                value = value.base
            else:
                plan, kind = plan_after(None), "refreshed"
        if plan is None:
            stats["dropped"].append(key)
            continue
        graph._cache[key] = PendingRefresh(value, plan, patch)
        stats[kind].append(key)
