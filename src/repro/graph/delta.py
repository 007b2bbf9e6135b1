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

Refreshing is surgical and runs at C speed: for each cached matrix the
rows whose content can change are recomputed (they all share the
adjacency's sparsity, so one changed-row scan serves every entry), packed
into a sparse correction ``D`` holding ``new_row − old_row``, and the
replacement is assembled as ``M + D`` — one scipy merge pass over the
stored entries plus an ``eliminate_zeros`` sweep, instead of a from-
scratch export → sort → normalise rebuild.  Unrecognised cache entries
(and the raw COO triple, whose on-demand rebuild from the columnar store
costs the same as any eager patch) are dropped — classic eviction
semantics — so the refresh can never serve a stale object.

Refresh semantics
-----------------
The shared-object contract of the matrix cache is preserved exactly:
cached matrices are never mutated — a refresh *replaces* the cache entry
with a freshly assembled object, so callers still holding the old matrix
(or an operator bundle wrapping it) keep computing consistent answers
against the pre-delta snapshot, just as they would across a classic
mutation.  ``mutation_count`` still bumps once per applied delta.

Which rows change:

* the adjacency rows of every edge endpoint that gains/loses/re-weights
  an out-edge (both endpoints for undirected graphs, sources for
  directed ones) — these also cover every ``theta`` change, since
  ``theta`` is the out-degree / total out-weight;
* for degree de-coupled transitions, additionally every row with a
  ``theta``-changed node as *destination* (Equation 1 weights rows by
  destination theta), i.e. the in-neighbourhood of the touched nodes.

One superset (touched ∪ their in-neighbourhood) is used for every
matrix: rows recomputed without an actual change reproduce their old
values and cancel out of ``D`` (exactly, or to float round-off for
theta-dependent weights — far below solver tolerance either way).

A weighted D2PR transition cached under the scale-safe default
``clamp_min=None`` resolves its clamp from the global minimum positive
theta; a delta can move that minimum, which would silently re-weight
*every* row, so those entries are dropped instead of refreshed (they
rebuild on next use).
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


def _positions_of(
    keys_sorted: np.ndarray,
    want: np.ndarray,
    what: str,
    n_total: int,
    name_of,
) -> np.ndarray:
    """Positions of ``want`` keys in ``keys_sorted``, raising on absences."""
    n = np.int64(n_total)
    pos = np.searchsorted(keys_sorted, want)
    pos_c = np.minimum(pos, keys_sorted.size - 1)
    ok = (
        (pos < keys_sorted.size) & (keys_sorted[pos_c] == want)
        if keys_sorted.size
        else np.zeros(want.shape[0], dtype=bool)
    )
    if not ok.all():
        bad = want[int(np.flatnonzero(~ok)[0])]
        u = name_of(int(bad // n))
        v = name_of(int(bad % n))
        raise EdgeError(f"cannot {what} missing edge {u!r} -> {v!r}")
    return pos


def apply_graph_delta(graph, delta: GraphDelta, *, log=None) -> dict:
    """Apply ``delta`` to ``graph`` with delta-aware cache refresh.

    Implementation of :meth:`repro.graph.base.BaseGraph.apply_delta`;
    see :class:`GraphDelta` for the operation semantics and the module
    docstring for the refresh contract.  Returns a small stats dict
    (op counts plus which cache entries were refreshed vs dropped).

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
    # The store is sorted by (row, col), so its keys are sorted too.
    rows0, cols0, w0 = graph._canonical_edges()
    keys0 = rows0 * np.int64(n) + cols0
    # The merge below is pure: the live store is only replaced at the
    # very end, so any validation error leaves the graph untouched.
    # ``w_owned`` tracks whether ``w0`` is a private copy we may write.
    w_owned = False

    # 1. deletes (must exist)
    if del_r.size:
        del_keys = np.unique(del_r * np.int64(n) + del_c)
        pos = _positions_of(keys0, del_keys, "delete", n, name_of)
        keep = np.ones(keys0.shape[0], dtype=bool)
        keep[pos] = False
        keys0, rows0, cols0, w0 = (
            keys0[keep], rows0[keep], cols0[keep], w0[keep]
        )
        w_owned = True
        stats["deleted"] = int(del_keys.shape[0])

    # 2. inserts (upsert, last wins; merged without a global re-sort)
    if ins_r.size:
        ins_keys = ins_r * np.int64(n) + ins_c
        sel = graph._dedup_last_wins(ins_keys)
        ins_keys = ins_keys[sel]
        ins_rs, ins_cs = ins_r[sel], ins_c[sel]
        ins_w = delta.insert_weights[sel]
        pos = np.searchsorted(keys0, ins_keys)
        pos_c = np.minimum(pos, keys0.shape[0] - 1) if keys0.size else pos
        exists = (
            (pos < keys0.shape[0]) & (keys0[pos_c] == ins_keys)
            if keys0.size
            else np.zeros(ins_keys.shape[0], dtype=bool)
        )
        if exists.any():
            if not w_owned:
                w0 = w0.copy()
                w_owned = True
            w0[pos[exists]] = ins_w[exists]
        fresh = ~exists
        if fresh.any():
            at = pos[fresh]
            keys0 = np.insert(keys0, at, ins_keys[fresh])
            rows0 = np.insert(rows0, at, ins_rs[fresh])
            cols0 = np.insert(cols0, at, ins_cs[fresh])
            w0 = np.insert(w0, at, ins_w[fresh])
            w_owned = True
        stats["inserted"] = int(fresh.sum())

    # 3. reweights (must exist after deletes + inserts)
    if rew_r.size:
        rew_keys = rew_r * np.int64(n) + rew_c
        sel = graph._dedup_last_wins(rew_keys)
        rew_keys, rew_w = rew_keys[sel], delta.reweight_weights[sel]
        pos = _positions_of(keys0, rew_keys, "reweight", n, name_of)
        if not w_owned:
            w0 = w0.copy()
            w_owned = True
        w0[pos] = rew_w
        stats["reweighted"] = int(rew_keys.shape[0])

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


class _RefreshPlan:
    """Shared, lazily evaluated patch plan for one applied delta.

    Snapshots the *post-delta* canonical store (aliased — the columnar
    arrays are immutable once committed) plus the touched-row set, and
    computes the changed-row scan only when the first pending entry is
    resolved.  All pending entries of one delta share one plan, so the
    scan and the per-``weighted``-flag theta patches are paid at most
    once per delta regardless of how many cached matrices exist — and
    not at all if nothing is read before the next full invalidation.
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
        self._thetas: dict[bool, np.ndarray] = {}
        # Correction matrices remembered per transition cache key, so the
        # operator-bundle refresh can patch the cached transpose in place
        # (old.t_csr + D.T) instead of lazily rebuilding it from scratch.
        self._corrections: dict[tuple, sparse.csr_matrix] = {}

    # -- changed-row scan ------------------------------------------------
    def _ensure_scan(self) -> tuple:
        if self._scan is not None:
            return self._scan
        n = self.n
        rows_c, cols_c, w_c = self.store
        # Changed-row superset: touched rows plus every row with a
        # touched node as destination (their theta enters the
        # transition weights).
        is_touched = np.zeros(n, dtype=bool)
        is_touched[self.touched] = True
        if self.directed:
            preds = rows_c[is_touched[cols_c]]
        else:
            preds = np.concatenate(
                [rows_c[is_touched[cols_c]], cols_c[is_touched[rows_c]]]
            )
        changed = np.unique(np.concatenate([self.touched, preds]))

        # Sub-COO of the new adjacency restricted to the changed rows,
        # in row-segment order (cols unsorted within a row — the D
        # assembly canonicalises, the softmax only needs row segments).
        member = np.zeros(n, dtype=bool)
        member[changed] = True
        if self.directed:
            sel = member[rows_c]
            r_sub, c_sub, w_sub = rows_c[sel], cols_c[sel], w_c[sel]
        else:
            sel_lo = member[rows_c]
            sel_hi = member[cols_c]
            r_sub = np.concatenate([rows_c[sel_lo], cols_c[sel_hi]])
            c_sub = np.concatenate([cols_c[sel_lo], rows_c[sel_hi]])
            w_sub = np.concatenate([w_c[sel_lo], w_c[sel_hi]])
        pos_in_changed = np.full(n, -1, dtype=np.int64)
        pos_in_changed[changed] = np.arange(changed.size, dtype=np.int64)
        seg = pos_in_changed[r_sub]
        order = np.argsort(seg, kind="stable")
        seg, c_sub, w_sub = seg[order], c_sub[order], w_sub[order]
        r_sub = changed[seg]
        lengths = np.bincount(seg, minlength=changed.size)
        sums = np.bincount(seg, weights=w_sub, minlength=changed.size)
        sub_indptr = np.empty(changed.size + 1, dtype=np.int64)
        sub_indptr[0] = 0
        np.cumsum(lengths, out=sub_indptr[1:])
        touched_pos = pos_in_changed[self.touched]
        self._scan = (
            changed, r_sub, c_sub, w_sub, sub_indptr,
            lengths, sums, touched_pos,
        )
        return self._scan

    # -- building blocks -------------------------------------------------
    def patched(
        self,
        mat: sparse.csr_matrix,
        new_vals: np.ndarray,
        remember: tuple | None = None,
    ):
        """``mat`` with the changed rows replaced by ``new_vals``.

        Assembled as ``mat + D`` with ``D = new_rows − old_rows`` — one
        scipy C merge over the stored entries; exact cancellations
        (rows recomputed without an actual change, deleted entries) are
        pruned so row emptiness still identifies dangling nodes.
        ``remember`` keeps the correction ``D`` under a cache key so the
        matching operator-bundle refresh can patch its cached transpose
        as ``old.t_csr + D.T`` (see :func:`_refresh_bundle`).
        """
        changed, r_sub, c_sub, _, _, _, _, _ = self._ensure_scan()
        old_sub = mat[changed].tocoo()
        d_rows = np.concatenate([changed[old_sub.row], r_sub])
        d_cols = np.concatenate([old_sub.col.astype(np.int64), c_sub])
        d_data = np.concatenate([-old_sub.data, new_vals])
        correction = sparse.csr_matrix(
            (d_data, (d_rows, d_cols)), shape=mat.shape
        )
        if remember is not None:
            self._corrections[remember] = correction
        out = mat + correction
        out.eliminate_zeros()
        return out

    def correction(self, key: tuple) -> sparse.csr_matrix | None:
        """The remembered correction ``D`` of a refreshed transition."""
        return self._corrections.get(key)

    def theta(self, weighted: bool, old_theta: np.ndarray | None):
        got = self._thetas.get(weighted)
        if got is None:
            n = self.n
            rows_c, cols_c, w_c = self.store
            _, _, _, _, _, lengths, sums, touched_pos = self._ensure_scan()
            if old_theta is not None:
                got = old_theta.copy()
            else:
                if weighted:
                    got = np.bincount(rows_c, weights=w_c, minlength=n)
                    if not self.directed:
                        got += np.bincount(cols_c, weights=w_c, minlength=n)
                else:
                    got = np.bincount(rows_c, minlength=n).astype(np.float64)
                    if not self.directed:
                        got += np.bincount(cols_c, minlength=n)
                got = got.astype(np.float64, copy=False)
            got[self.touched] = (
                sums[touched_pos] if weighted else lengths[touched_pos]
            )
            self._thetas[weighted] = got
        return got

    def adjacency_vals(self, weighted: bool) -> np.ndarray:
        _, _, _, w_sub, _, _, _, _ = self._ensure_scan()
        return w_sub if weighted else np.ones_like(w_sub)

    def transition_vals(self, key: tuple) -> np.ndarray:
        """New changed-row values for a cached transition entry."""
        from repro.linalg.transition import segment_softmax_weights

        _, _, c_sub, w_sub, sub_indptr, lengths, sums, _ = (
            self._ensure_scan()
        )
        # ("d2pr_transition", p, beta, weighted, clamp_min); the
        # conventional walk is its p = 0 (beta = 1 when weighted) point.
        _, p, beta, weighted, clamp_min = key
        blend = weighted and beta != 0.0
        if blend:
            sum_rep = np.repeat(sums, lengths)
            strength = w_sub / np.where(sum_rep > 0.0, sum_rep, 1.0)
            if beta == 1.0:
                return strength
        resolved = 1.0 if clamp_min is None else float(clamp_min)
        theta = self.theta(bool(weighted), None)
        log_theta = np.log(np.maximum(theta, resolved))
        decoupled = segment_softmax_weights(
            log_theta[c_sub], sub_indptr, float(p)
        )
        if blend:
            return beta * strength + (1.0 - beta) * decoupled
        return decoupled


def _resolve(value):
    """Materialise a possibly-pending cache value (chained deltas nest)."""
    from repro.graph.base import PendingRefresh

    if type(value) is PendingRefresh:
        return value.resolve()
    return value


def _resolve_entry(graph, key: tuple):
    value = _resolve(graph._cache[key])
    graph._cache[key] = value
    return value


def _refresh_bundle(graph, plan: _RefreshPlan, trans_key: tuple, old_bundle):
    """Rebuild an operator bundle over its refreshed transition.

    Resolving the transition entry first materialises its patched matrix
    (and remembers the correction ``D`` on the plan); if the predecessor
    bundle had already built its CSR transpose, the new bundle's is
    seeded in place as ``old.t_csr + D.T`` — the ROADMAP follow-up that
    spares the power-iteration fallback the full post-delta
    ``P.T.tocsr()`` rebuild.
    """
    from repro.linalg.operator import LinearOperatorBundle

    mat = _resolve_entry(graph, trans_key)
    bundle = LinearOperatorBundle.of(mat)
    correction = plan.correction(trans_key)
    if correction is not None:
        bundle.seed_transpose_from(old_bundle, correction)
    return bundle


def _refresh_caches(graph, touched: np.ndarray, stats: dict) -> None:
    """Queue patched replacements for known cache entries; drop the rest.

    Entries are replaced by :class:`~repro.graph.base.PendingRefresh`
    thunks sharing one :class:`_RefreshPlan`, so ``apply_delta`` itself
    pays only the canonical-store merge; each cached matrix is patched
    on first access after the delta.  An entry *still pending* when the
    next delta lands was not read in between — it is evicted rather than
    chained, which caps retained plan state at one layer per entry (a
    chain would hold one store snapshot per delta and replay every
    deferred patch on first access).  The raw ``("coo",)`` triple is
    dropped rather than patched: rebuilding it on demand from the
    columnar store costs the same pass.
    """
    from repro.graph.base import PendingRefresh
    from repro.linalg.operator import LinearOperatorBundle

    old = graph._cache
    graph._cache = {}
    graph._version += 1
    if not old:
        return
    plan = _RefreshPlan(
        directed=graph.directed,
        n=graph.number_of_nodes,
        store=graph._store.columnar,
        touched=touched,
    )

    def defer(build) -> PendingRefresh:
        return PendingRefresh(build)

    from repro.graph.base import PendingRefresh as _Pending

    transition_keys: set[tuple] = set()
    # Operators last: they must only survive when their transition entry
    # did (a dropped weighted/default-clamp transition drops its bundle).
    ordered = sorted(old.items(), key=lambda kv: kv[0][0] == "operator")
    for key, value in ordered:
        kind = key[0]
        new_value = None
        if type(value) is _Pending:
            # Still unresolved since the previous delta: nobody read this
            # entry in between, so it is not hot — evict instead of
            # chaining (a chain would retain one O(m) store snapshot per
            # delta and pay every deferred patch pass on first access).
            stats["dropped"].append(key)
            continue
        if kind == "csr":
            weighted = key[1]
            new_value = defer(
                lambda value=value, weighted=weighted: plan.patched(
                    _resolve(value), plan.adjacency_vals(weighted)
                )
            )
        elif kind == "adj_theta":
            weighted = key[1]
            if ("csr", weighted) in old:
                new_value = defer(
                    lambda value=value, weighted=weighted: (
                        _resolve_entry(graph, ("csr", weighted)),
                        plan.theta(bool(weighted), _resolve(value)[1]),
                    )
                )
        elif kind == "d2pr_transition":
            _, p, beta, weighted, clamp_min = key
            if weighted and clamp_min is None and p != 0.0 and beta != 1.0:
                # Scale-safe default clamp depends on the global minimum
                # positive theta, which the delta may have moved: every
                # row could change, so evict this entry instead.  (At
                # p = 0 or beta = 1 the clamp cannot reach the matrix.)
                new_value = None
            else:
                transition_keys.add(key)
                new_value = defer(
                    lambda value=value, key=key: plan.patched(
                        _resolve(value), plan.transition_vals(key),
                        remember=key,
                    )
                )
        elif kind == "operator":
            # ("operator", "d2pr", *params) wraps ("d2pr_transition",
            # *params); other bundles are dropped.
            trans_key = ("d2pr_transition", *key[2:])
            if key[1] == "d2pr" and trans_key in transition_keys:
                new_value = defer(
                    lambda trans_key=trans_key, old=value: _refresh_bundle(
                        graph, plan, trans_key, old
                    )
                )
        if new_value is None:
            stats["dropped"].append(key)
            continue
        graph._cache[key] = new_value
        stats["refreshed"].append(key)
