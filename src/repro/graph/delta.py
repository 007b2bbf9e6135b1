"""Batched streaming edge mutations spliced into the CSR edge store.

Every mutator on :class:`~repro.graph.base.BaseGraph` bumps the
mutation counter and evicts the derived-object cache.  For a streaming
workload the cost that matters is the store write itself: re-sorting
20M edges because a handful of rows changed would dominate every
update.  This module provides the streaming path:

* :class:`GraphDelta` — a batched, array-native description of edge
  inserts, deletes and re-weights (plus node inserts/deletes).
* :func:`apply_graph_delta` — the implementation behind
  :meth:`BaseGraph.apply_delta`: validates the delta and splices it
  into the graph's CSR edge store (see
  :mod:`repro.graph.backends.base`) without a global re-sort.

The store is the adjacency ``M`` of paper Eq. (1) as one row-major CSR
over arcs.  Every op is located within its row by ``indptr`` bounds
(only the rows the delta names are read), an undirected op touches both
arcs of its edge, and ``indices`` and ``weights`` are each written once:
the span between the first and last changed arc is rebuilt from its
kept entries and the fresh ones, the two untouched ends are copied as
slices, and ``indptr`` shifts by the per-row count changes.  A delta
that only re-weights shares ``indptr`` and ``indices`` with the old
store.  Old arrays are never mutated, so matrices (and the factors a
pending answer correction holds) built on the previous store stay
valid.

Every derived cache entry is dropped (``stats["dropped"]``): the
``("csr", w)`` wrappers come back in O(1) from the spliced store, the
pattern ``θ`` is ``np.diff(indptr)`` and the weighted ``θ`` one row
sum, and each method rebuilds its operator from them; this module holds
no transition math.  Node ops change the index space and fold through
the same merge bulk ingestion uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

    Node ops change the index space; like every delta, applying one
    evicts the graph's derived-object cache.
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
    indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray, n: np.int64
) -> tuple[np.ndarray, np.ndarray]:
    """Arc positions of the sorted arc ``keys`` in the CSR, and hits.

    A key ``row * n + col`` can only sit in row ``row``, so only the
    rows the keys name are read (their bounds come from ``indptr``),
    never the whole store.  A position is where the arc sits, or would
    be inserted (before the arc there), in ``indices``.
    """
    want = keys // n
    runs = np.unique(want)
    lo = indptr[runs].astype(np.int64)
    lengths = indptr[runs + 1] - lo
    offsets = np.cumsum(lengths) - lengths
    idx = np.repeat(lo - offsets, lengths) + np.arange(int(lengths.sum()))
    local = np.repeat(runs, lengths) * n + indices[idx]
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
    """Apply ``delta`` to ``graph`` by splicing its CSR edge store.

    Implementation of :meth:`repro.graph.base.BaseGraph.apply_delta`;
    see :class:`GraphDelta` for the operation semantics and the module
    docstring for the store contract.  Returns a small stats dict (op
    counts plus the dropped cache keys).

    When ``log`` is given (a :class:`~repro.graph.persist.DeltaLog`),
    the delta is appended to it after — and only after — a successful
    commit, so replaying the log reproduces exactly the committed state.
    """
    from repro.graph.base import index_dtype, pad_indptr

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

    for r, c in (
        (delta.insert_rows, delta.insert_cols),
        (delta.delete_rows, delta.delete_cols),
        (delta.reweight_rows, delta.reweight_cols),
    ):
        _check_indices(graph, r, c, n_total, name_of)
    _require_positive_weights(delta.insert_weights, "insert")
    _require_positive_weights(delta.reweight_weights, "reweight")

    # Every op as arcs: an undirected op names both orientations, side
    # by side, so the arcs keep the op order (last-wins picks the same
    # op for both arcs of an edge) and every count below is twice the
    # edge count.  The minimum arc key of an edge is its canonical one,
    # so a missing edge is reported as (lo, hi), as before.
    halves = 1 if graph.directed else 2

    def arcs(rows, cols, *weights):
        if halves == 1:
            return (rows, cols, *weights)
        return (
            np.column_stack([rows, cols]).ravel(),
            np.column_stack([cols, rows]).ravel(),
            *(np.repeat(w, 2) for w in weights),
        )

    ins_r, ins_c, ins_w = arcs(
        delta.insert_rows, delta.insert_cols, delta.insert_weights
    )
    del_r, del_c = arcs(delta.delete_rows, delta.delete_cols)
    rew_r, rew_c, rew_w = arcs(
        delta.reweight_rows, delta.reweight_cols, delta.reweight_weights
    )

    n = n_total
    nn = np.int64(n)
    # The merge below is pure: the live store is only replaced at the
    # very end, so any validation error leaves the graph untouched.  It
    # resolves every op against the current store (deletes, then
    # upserts, then reweights, in that order), then writes each array
    # once.
    indptr, indices, w0 = graph._csr_arrays()
    indptr = pad_indptr(indptr, n)
    m = indices.shape[0]

    # 1. deletes (must exist)
    del_keys = np.unique(del_r * nn + del_c)
    del_pos, hit = _locate(indptr, indices, del_keys, nn)
    _missing(del_keys, hit, "delete", n, name_of)
    stats["deleted"] = int(del_keys.shape[0]) // halves

    # 2. inserts (upsert, last wins).  An arc deleted above is inserted
    # afresh; physically its store entry stays, with the new weight.
    ins_keys = ins_r * nn + ins_c
    sel = graph._dedup_last_wins(ins_keys)
    ins_keys, ins_w = ins_keys[sel], ins_w[sel]
    ins_pos, ins_hit = _locate(indptr, indices, ins_keys, nn)
    revived = ins_hit & np.isin(ins_keys, del_keys)
    fresh = ~ins_hit
    stats["inserted"] = int(fresh.sum() + revived.sum()) // halves
    gone = ~np.isin(del_keys, ins_keys)
    removed, removed_rows = del_pos[gone], del_keys[gone] // nn
    fresh_keys, fresh_at = ins_keys[fresh], ins_pos[fresh]
    fresh_w = ins_w[fresh]
    set_pos, set_w = ins_pos[ins_hit], ins_w[ins_hit]

    # 3. reweights (must exist after deletes + inserts)
    if rew_r.size:
        rew_keys = rew_r * nn + rew_c
        sel = graph._dedup_last_wins(rew_keys)
        rew_keys, rew_w = rew_keys[sel], rew_w[sel]
        rew_pos, rew_hit = _locate(indptr, indices, rew_keys, nn)
        rew_hit &= ~(np.isin(rew_keys, del_keys) & ~np.isin(rew_keys, ins_keys))
        new = np.searchsorted(fresh_keys, rew_keys)
        in_fresh = np.zeros(rew_keys.size, dtype=bool)
        ok = new < fresh_keys.size
        in_fresh[ok] = fresh_keys[new[ok]] == rew_keys[ok]
        _missing(rew_keys, rew_hit | in_fresh, "reweight", n, name_of)
        fresh_w[new[in_fresh]] = rew_w[in_fresh]
        set_pos = np.concatenate((set_pos, rew_pos[rew_hit]))
        set_w = np.concatenate((set_w, rew_w[rew_hit]))
        stats["reweighted"] = int(rew_keys.shape[0]) // halves

    if removed.size or fresh_at.size:
        # Output place of old position p: p, less the removals before
        # it, plus the fresh arcs inserted at or before it.
        lo = int(min(removed.min(initial=m), fresh_at.min(initial=m)))
        hi = int(max(removed.max(initial=-1) + 1, fresh_at.max(initial=0)))
        hi = max(hi, lo)
        keep = np.ones(hi - lo, dtype=bool)
        keep[removed - lo] = False
        out_at = (
            fresh_at - lo - np.searchsorted(removed, fresh_at)
            + np.arange(fresh_at.size)
        )
        indices = _splice(indices, lo, hi, keep, out_at, fresh_keys % nn)
        w0 = _splice(w0, lo, hi, keep, out_at, fresh_w)
        set_pos = (
            set_pos - np.searchsorted(removed, set_pos)
            + np.searchsorted(fresh_at, set_pos, side="right")
        )
        change = np.bincount(fresh_keys // nn + 1, minlength=n + 1)
        change -= np.bincount(removed_rows + 1, minlength=n + 1)
        indptr = indptr + np.cumsum(change)
        dtype = index_dtype(n, indices.shape[0])
        indptr = indptr.astype(dtype)
        indices = indices.astype(dtype, copy=False)
    elif set_pos.size:
        w0 = np.array(w0)
    if set_pos.size:
        # A reweight of an upserted arc comes later and wins.
        last = graph._dedup_last_wins(set_pos)
        w0[set_pos[last]] = set_w[last]

    new_nodes = None
    if delta.has_node_ops:
        new_nodes, (indptr, indices, w0) = _node_ops(
            graph, delta, del_idx, (indptr, indices, w0), stats
        )
    # Commit the new store and drop the derived-object cache under the
    # graph's cache lock, so a concurrent reader never pairs the new
    # store with a stale entry (the serving layer additionally excludes
    # solves during a delta via its own write barrier).
    with graph._cache_lock:
        if new_nodes is not None:
            graph._nodes = new_nodes
            graph._index = {node: i for i, node in enumerate(new_nodes)}
        graph._set_edge_store(indptr, indices, w0)
        stats["dropped"] = list(graph._cache)
        graph._invalidate()
    if log is not None:
        log.append(delta)
    return stats


def _node_ops(graph, delta: GraphDelta, del_idx: np.ndarray, store, stats):
    """Grow/compact the node table; the store over the surviving nodes.

    Node ops change the index space.  Inserted nodes were given empty
    rows above; a delete drops the incident edges and compacts the
    survivors with a monotone remap, which keeps the canonical edges
    key-sorted (and ``lo < hi`` on a Graph), so they fold back through
    the same merge bulk ingestion uses.  Returns the new node list and
    store; committing them is the caller's.
    """
    new_nodes = list(graph._nodes)
    attrs = graph._node_attrs
    for node, node_attrs in delta.node_inserts:
        idx = len(new_nodes)
        new_nodes.append(node)
        for name, value in node_attrs.items():
            attrs.setdefault(name, {})[idx] = value
    stats["nodes_inserted"] = len(delta.node_inserts)
    if not del_idx.size:
        return new_nodes, store

    n_total = len(new_nodes)
    keep = np.ones(n_total, dtype=bool)
    keep[del_idx] = False
    remap = np.cumsum(keep, dtype=np.int64) - 1
    rows, cols, w = graph._edges_of(*store)
    edge_keep = keep[rows] & keep[cols]
    kept_idx = np.flatnonzero(keep)
    new_nodes = [new_nodes[i] for i in kept_idx.tolist()]
    for name in list(attrs):
        col = attrs[name]
        attrs[name] = {
            int(remap[i]): v for i, v in col.items() if keep[i]
        }
    stats["nodes_deleted"] = int(del_idx.shape[0])
    return new_nodes, graph._encode(
        remap[rows[edge_keep]], remap[cols[edge_keep]], w[edge_keep],
        len(new_nodes),
    )
