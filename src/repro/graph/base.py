"""Core graph data structures used across the library.

The library deliberately ships its own small graph substrate instead of
depending on :mod:`networkx`: the algorithms in :mod:`repro.core` only need
adjacency with weights, stable integer indexing and fast export to
``scipy.sparse`` matrices, and owning the data structure keeps the transition
matrix construction (the heart of the paper) self-contained and auditable.

Two classes are provided:

* :class:`Graph` — undirected, optionally weighted.
* :class:`DiGraph` — directed, optionally weighted.

Both map arbitrary hashable node objects to dense integer indices
(``0 .. n-1`` in insertion order).  All numeric kernels operate on those
indices; the mapping is exposed through :meth:`BaseGraph.index_of` and
:meth:`BaseGraph.node_at`.

Design notes
------------
Edges live in exactly one place: the **columnar store**, a
``(rows, cols, weights)`` triple held by the graph's storage backend with
one entry per edge (``row < col`` for undirected graphs), sorted by
``(row, col)``.  Everything else is derived from it:

* **Point queries** — :meth:`BaseGraph.has_edge` and
  :meth:`BaseGraph.edge_weight` binary-search the store;
  :meth:`BaseGraph.neighbors` and :meth:`BaseGraph.degree` slice one row
  of the cached CSR export (:meth:`BaseGraph.to_csr`), and
  :meth:`DiGraph.predecessors` / :meth:`DiGraph.in_degree` one row of
  its transpose.  Neighbour lists therefore come back in ascending index
  order.
* **Per-edge mutation** — :meth:`BaseGraph.add_edge` and
  :meth:`BaseGraph.increment_edge` write into a small staging map keyed
  by the orientation-canonical index pair.  The map is folded into the
  store (the same last-weight-wins merge bulk ingestion uses) the next
  time a read needs the arrays, so per-edge loops stay linear.
* **Bulk ingestion** — :meth:`BaseGraph.add_edges_arrays` /
  :meth:`BaseGraph.from_arrays` validate and de-duplicate whole numpy
  arrays and merge them into the store with no per-edge Python calls.
  All heavy producers (generators, IO, dataset builders) route through
  this path.
* **Invalidation-aware caching** — every structural mutation bumps a
  monotonic counter (:attr:`BaseGraph.mutation_count`) and clears a per-graph
  cache that memoises COO/CSR exports and the transition matrices derived
  from them (see :meth:`BaseGraph.cached`).  Repeated solves and parameter
  sweeps on an unmutated graph therefore never rebuild identical matrices.
  Cached arrays/matrices are shared, so callers must treat them as
  read-only; :meth:`BaseGraph.invalidate_caches` is the manual escape hatch.

Node attributes live in per-name columns (``{name: {index: value}}``) so
that attribute vectors align with node indices and can be handed directly
to numpy.

See ``docs/performance.md`` for the full cache-keying and bulk-ingestion
contract, and ``docs/storage.md`` for the backend contract.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable, Iterable, Iterator
from itertools import chain
from typing import Any

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.errors import (
    EdgeError,
    EmptyGraphError,
    FrozenGraphError,
    NodeNotFoundError,
    ParameterError,
)

Node = Hashable

__all__ = ["Graph", "DiGraph", "Node"]


class PendingRefresh:
    """A deferred delta-aware cache patch (see :mod:`repro.graph.delta`).

    :meth:`BaseGraph.apply_delta` stores these in place of evicting cache
    entries; :meth:`BaseGraph.cached` resolves them transparently on
    first access, so the patch cost is paid only for entries a caller
    actually touches after the delta.  ``base`` is the entry's last
    materialised value and ``plan`` covers the union of the nodes every
    delta since then touched, on the current store: a later delta
    re-defers the entry with a wider plan, so however many deltas pass
    unread, resolving is one ``patch(plan, base)``.
    """

    __slots__ = ("base", "plan", "_patch")

    def __init__(
        self, base: Any, plan: Any, patch: Callable[[Any, Any], Any]
    ) -> None:
        self.base = base
        self.plan = plan
        self._patch = patch

    def resolve(self) -> Any:
        return self._patch(self.plan, self.base)


class BaseGraph:
    """Shared machinery for :class:`Graph` and :class:`DiGraph`.

    Not part of the public API; use the concrete subclasses.
    """

    #: Whether edges are directed.  Set by subclasses.
    directed: bool = False

    def __init__(self, *, backend=None) -> None:
        from repro.graph.backends import resolve_backend

        self._index: dict[Node, int] = {}
        self._nodes: list[Node] = []
        # Storage engine: owns the columnar edge store and the
        # node-attribute columns.  ``backend`` accepts a registry name
        # ("memory", "mmap"), an instance or a class; see
        # repro.graph.backends.
        self._store = resolve_backend(backend).bind()
        self._num_edges = 0
        # Per-edge writes not yet merged into the columnar store,
        # {(row, col): weight} with orientation-canonical keys.  Written
        # and folded under _cache_lock.
        self._staged: dict[tuple[int, int], float] = {}
        # Structural version counter + derived-object cache (COO arrays,
        # CSR matrices, transition matrices).  Any mutation bumps the
        # version and clears the cache.
        self._version = 0
        self._cache: dict[tuple, Any] = {}
        # Serialises derived-object cache access so concurrent readers
        # (the serving layer's worker threads) can share one graph.
        # Crucial for PendingRefresh resolution: a deferred delta patch
        # may mutate a retained object in place exactly once — two
        # threads racing into the same first access must not both apply
        # it.  Reentrant because builders may consult the cache.
        self._cache_lock = threading.RLock()
        self._cache_hits = 0
        self._cache_misses = 0
        # Shared-instance guard: freeze() flips this and every mutator
        # raises FrozenGraphError from then on (see BaseGraph.freeze).
        self._frozen = False

    # ------------------------------------------------------------------
    # storage delegation
    # ------------------------------------------------------------------
    @property
    def backend(self):
        """The :class:`~repro.graph.backends.GraphBackend` storing this graph."""
        return self._store

    @property
    def _node_attrs(self) -> dict[str, dict[int, Any]]:
        return self._store.node_attrs

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    @property
    def mutation_count(self) -> int:
        """Monotonic counter bumped on every structural mutation.

        Derived objects (CSR exports, transition matrices) are cached per
        graph and keyed implicitly by this counter: any mutation clears
        the cache, so a cached object is always consistent with the
        current structure.
        """
        return self._version

    def cached(self, key: tuple, builder: Callable[[], Any]) -> Any:
        """Return ``builder()`` memoised under ``key`` until the next mutation.

        The cache is invalidated wholesale whenever the graph structure
        changes through the classic mutators (node added, edge
        added/re-weighted, bulk ingestion), so ``key`` only needs to
        encode the *parameters* of the derived object — e.g.
        ``("operator", "d2pr", p, beta, weighted)`` — not the graph state.
        Each matrix has one entry: a transition lives only inside its
        operator bundle, and ``("theta", weighted)`` holds only theta,
        not the ``("csr", weighted)`` adjacency beside it.
        The streaming path (:meth:`apply_delta`) instead *refreshes*
        the adjacency and theta entries and drops the rest: it stores
        deferred patch thunks that this method resolves transparently on
        first access, so a refreshed entry is always consistent with the
        current structure.  A thunk still unread at the next delta is
        chained, not rebuilt: it resolves as one patch over every delta
        since its value was last materialised (see
        :class:`PendingRefresh`).  Cached values are shared between
        callers and must be treated as read-only.
        """
        with self._cache_lock:
            try:
                value = self._cache[key]
            except KeyError:
                self._cache_misses += 1
                value = builder()
                self._cache[key] = value
                return value
            if type(value) is PendingRefresh:
                # A delta-aware patch queued by apply_delta: materialise
                # it now (still far cheaper than builder() from scratch)
                # and keep the result for everyone else.
                value = value.resolve()
                self._cache[key] = value
            self._cache_hits += 1
            return value

    def invalidate_caches(self) -> None:
        """Drop all cached derived objects and bump the mutation counter.

        Escape hatch for callers that mutate internals directly (nothing in
        the library does); normal mutations invalidate automatically.
        """
        self._invalidate()

    def apply_delta(self, delta, *, log=None) -> dict:
        """Apply a batched :class:`~repro.graph.delta.GraphDelta`.

        The streaming mutation path: edge inserts (upserts), deletes and
        re-weights are validated and folded into the columnar edge store
        in one vectorised pass, and — unlike the classic mutators, which
        evict the whole derived-object cache — the CSR adjacency and
        theta vectors are **refreshed** with surgically patched
        replacements: only rows the delta actually touches are
        recomputed, untouched rows are block-copied.  Operator bundles
        and every other entry are dropped; their methods rebuild them
        from the refreshed adjacency and theta.  ``mutation_count`` still
        bumps once, and cached objects are never mutated (holders of
        pre-delta matrices stay consistent).  Node-level ops
        (insert/delete) change the index space and therefore evict the
        derived-object cache wholesale instead of refreshing it.

        When ``log`` (a :class:`~repro.graph.persist.DeltaLog`) is given,
        the delta is appended to it *after* a successful apply, so the
        log replays to exactly the committed state.

        Returns a stats dict with op counts and the refreshed, chained
        and dropped cache keys.  Raises
        :class:`~repro.errors.FrozenGraphError` on frozen (shared)
        graphs, :class:`~repro.errors.EdgeError` for deletes/re-weights
        of missing edges, and the usual validation errors for bad
        indices or weights.  See
        ``docs/performance.md`` ("Streaming updates") and
        ``docs/storage.md`` (delta log) for the contract.
        """
        from repro.graph.delta import apply_graph_delta

        return apply_graph_delta(self, delta, log=log)

    def _canonical_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columnar store: ``(rows, cols, weights)``, each edge once.

        Folds staged per-edge writes in first, so the result is complete
        and sorted by ``(row, col)``.  Unlike :meth:`edge_arrays` this
        aliases the store — callers must not mutate the result.
        """
        with self._cache_lock:
            if self._staged:
                self._merge_edges()
            return self._store.columnar

    def _merge_edges(self, *batch: np.ndarray) -> None:
        """Merge staged writes, then ``batch``, into the columnar store.

        ``batch`` is an optional orientation-canonical ``(rows, cols,
        weights)`` triple.  Duplicate pairs keep the *last* weight (store,
        then staged writes, then ``batch``), which is the result of
        applying every write in order.  Caller holds the cache lock.
        """
        parts = [self._store.columnar]
        staged = self._staged
        if staged:
            pairs = np.fromiter(
                chain.from_iterable(staged), dtype=np.int64,
                count=2 * len(staged),
            ).reshape(-1, 2)
            weights = np.fromiter(
                staged.values(), dtype=np.float64, count=len(staged)
            )
            parts.append((pairs[:, 0], pairs[:, 1], weights))
        if batch:
            parts.append(batch)
        rows, cols, data = (np.concatenate(column) for column in zip(*parts))
        sel = self._dedup_last_wins(rows * np.int64(self.number_of_nodes) + cols)
        self._set_edge_store(rows[sel], cols[sel], data[sel])
        self._staged = {}

    def _canonical_pairs(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Orientation-canonical form of index pair arrays."""
        if not self.directed:
            return np.minimum(rows, cols), np.maximum(rows, cols)
        return rows, cols

    def _delta_touched(self, delta) -> tuple[np.ndarray, ...]:
        """Index arrays of rows whose adjacency/theta a delta changes."""
        if not self.directed:
            return (
                delta.insert_rows, delta.insert_cols,
                delta.delete_rows, delta.delete_cols,
                delta.reweight_rows, delta.reweight_cols,
            )
        return (delta.insert_rows, delta.delete_rows, delta.reweight_rows)

    def _set_edge_store(
        self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> None:
        """Replace the edge store with canonical, key-sorted arrays."""
        self._store.set_columnar(rows, cols, data)
        self._num_edges = rows.shape[0]

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters and current cache size (for tests/diagnostics)."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "entries": len(self._cache),
            "version": self._version,
        }

    def _invalidate(self) -> None:
        with self._cache_lock:
            self._version += 1
            if self._cache:
                self._cache.clear()

    # ------------------------------------------------------------------
    # freezing (shared-instance protection)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """Whether the graph rejects structural mutation (see :meth:`freeze`)."""
        return self._frozen

    def freeze(self) -> "BaseGraph":
        """Permanently reject all further mutation of this instance.

        Cached, shared graphs (e.g. the memoised dataset loader
        :func:`repro.experiments.sweep.get_data_graph`) are frozen before
        being handed out, so one caller's ``add_edge`` cannot silently
        corrupt every other caller's results.  After freezing, any
        structural mutation — node or edge insertion, re-weighting, bulk
        ingestion — and any node-attribute write raises
        :class:`~repro.errors.FrozenGraphError`.  Read access (including
        folding edges staged before the freeze into the store) is
        unaffected, and :meth:`copy` / :meth:`subgraph` return ordinary
        *unfrozen* graphs to mutate freely.

        Freezing is idempotent and returns ``self`` for chaining.
        """
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise FrozenGraphError(
                "graph is frozen (a shared cached instance); "
                "mutate a private graph.copy() instead"
            )

    # ------------------------------------------------------------------
    # node handling
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **attrs: Any) -> int:
        """Add ``node`` (a hashable) and return its integer index.

        Adding an existing node is a no-op apart from merging ``attrs``.
        """
        self._check_mutable()
        idx = self._index.get(node)
        if idx is None:
            idx = len(self._nodes)
            self._index[node] = idx
            self._nodes.append(node)
            self._invalidate()
        for name, value in attrs.items():
            self._node_attrs.setdefault(name, {})[idx] = value
        return idx

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def _add_integer_nodes(self, n: int) -> None:
        """Fast path: populate an *empty* graph with nodes ``0 .. n-1``."""
        self._check_mutable()
        if self._nodes:
            raise ParameterError(
                "_add_integer_nodes requires an empty graph"
            )
        ids = range(n)
        self._nodes = list(ids)
        self._index = {i: i for i in ids}
        self._invalidate()

    def has_node(self, node: Node) -> bool:
        """Return ``True`` when ``node`` is part of the graph."""
        return node in self._index

    def index_of(self, node: Node) -> int:
        """Return the dense integer index of ``node``.

        Raises
        ------
        NodeNotFoundError
            If the node has never been added.
        """
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_at(self, index: int) -> Node:
        """Return the node object stored at integer ``index``."""
        try:
            return self._nodes[index]
        except IndexError:
            raise NodeNotFoundError(index) from None

    def nodes(self) -> list[Node]:
        """Return all node objects in index order (a fresh list)."""
        return list(self._nodes)

    @property
    def number_of_nodes(self) -> int:
        """Number of nodes currently in the graph."""
        return len(self._nodes)

    @property
    def number_of_edges(self) -> int:
        """Number of edges (each undirected edge counted once)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    # ------------------------------------------------------------------
    # node attributes
    # ------------------------------------------------------------------
    def set_node_attr(self, node: Node, name: str, value: Any) -> None:
        """Attach attribute ``name=value`` to ``node``."""
        self._check_mutable()
        idx = self.index_of(node)
        self._node_attrs.setdefault(name, {})[idx] = value

    def node_attr(self, node: Node, name: str, default: Any = None) -> Any:
        """Return attribute ``name`` of ``node`` (or ``default``)."""
        idx = self.index_of(node)
        return self._node_attrs.get(name, {}).get(idx, default)

    def node_attrs(self, node: Node) -> dict[str, Any]:
        """Return every attribute set on ``node`` as a fresh dict."""
        idx = self.index_of(node)
        return self._attrs_at(idx)

    def _attrs_at(self, idx: int) -> dict[str, Any]:
        return {
            name: values[idx]
            for name, values in self._node_attrs.items()
            if idx in values
        }

    def node_attr_array(self, name: str, default: float = np.nan) -> np.ndarray:
        """Return attribute ``name`` for every node as a float array.

        Missing values are filled with ``default``.  The array is aligned
        with node indices, which makes it directly comparable with score
        vectors returned by :mod:`repro.core`.
        """
        values = self._node_attrs.get(name, {})
        out = np.full(self.number_of_nodes, default, dtype=float)
        for idx, value in values.items():
            out[idx] = value
        return out

    def attribute_names(self) -> list[str]:
        """Names of all node attributes ever set on this graph."""
        return sorted(self._node_attrs)

    # ------------------------------------------------------------------
    # edge handling
    # ------------------------------------------------------------------
    def _require_weight(self, weight: float) -> float:
        weight = float(weight)
        if not np.isfinite(weight):
            raise EdgeError(f"edge weight must be finite, got {weight!r}")
        if weight <= 0.0:
            raise EdgeError(f"edge weight must be positive, got {weight!r}")
        return weight

    def _pair(self, ui: int, vi: int) -> tuple[int, int]:
        """Orientation-canonical key of one index pair."""
        if self.directed or ui < vi:
            return ui, vi
        return vi, ui

    def _weight_at(self, row: int, col: int) -> float | None:
        """Weight of the canonical pair ``(row, col)``, or ``None``.

        Staged writes first, then a binary search of the columnar store:
        ``rows`` brackets the row's run, ``cols`` is sorted within it.
        """
        weight = self._staged.get((row, col))
        if weight is not None:
            return weight
        rows, cols, data = self._store.columnar
        start = int(np.searchsorted(rows, row))
        stop = int(np.searchsorted(rows, row, side="right"))
        pos = start + int(np.searchsorted(cols[start:stop], col))
        if pos < stop and cols[pos] == col:
            return float(data[pos])
        return None

    def _stage(self, key: tuple[int, int], weight: float, *, is_new: bool) -> None:
        with self._cache_lock:
            self._staged[key] = weight
            self._num_edges += is_new
            self._invalidate()

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Add (or re-weight) the edge ``u -> v`` (``u -- v`` for a Graph).

        Missing endpoints are added.  Self-loops are rejected: none of the
        graphs studied by the paper contain them and they would silently
        distort degree statistics.
        """
        self._check_mutable()
        if u == v:
            raise EdgeError(f"self-loop on {u!r} is not allowed")
        weight = self._require_weight(weight)
        key = self._pair(self.add_node(u), self.add_node(v))
        self._stage(key, weight, is_new=self._weight_at(*key) is None)

    def increment_edge(self, u: Node, v: Node, delta: float = 1.0) -> None:
        """Add ``delta`` to the weight of edge ``u -> v``, creating it if absent.

        This is the operation used by bipartite projections, where the edge
        weight counts shared affiliations.
        """
        self._check_mutable()
        if u == v:
            raise EdgeError(f"self-loop on {u!r} is not allowed")
        key = self._pair(self.add_node(u), self.add_node(v))
        current = self._weight_at(*key)
        weight = self._require_weight(
            (0.0 if current is None else current) + delta
        )
        self._stage(key, weight, is_new=current is None)

    def add_edges_from(
        self, edges: Iterable[tuple[Node, Node] | tuple[Node, Node, float]]
    ) -> None:
        """Add edges from ``(u, v)`` or ``(u, v, weight)`` tuples."""
        for edge in edges:
            if len(edge) == 2:
                u, v = edge  # type: ignore[misc]
                self.add_edge(u, v)
            else:
                u, v, w = edge  # type: ignore[misc]
                self.add_edge(u, v, weight=w)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` when the edge ``u -> v`` (or ``u -- v``) exists."""
        ui = self._index.get(u)
        vi = self._index.get(v)
        if ui is None or vi is None:
            return False
        return self._weight_at(*self._pair(ui, vi)) is not None

    def edge_weight(self, u: Node, v: Node) -> float:
        """Return the weight of edge ``u -> v``.

        Raises
        ------
        EdgeError
            If the edge does not exist.
        """
        ui, vi = self.index_of(u), self.index_of(v)
        weight = self._weight_at(*self._pair(ui, vi))
        if weight is None:
            raise EdgeError(f"no edge {u!r} -> {v!r}")
        return weight

    @staticmethod
    def _row(mat: sparse.csr_matrix, index: int) -> np.ndarray:
        return mat.indices[mat.indptr[index]:mat.indptr[index + 1]]

    def neighbors(self, node: Node) -> list[Node]:
        """Return the (out-)neighbours of ``node``, by ascending index."""
        row = self._row(self.to_csr(), self.index_of(node))
        return [self._nodes[j] for j in row.tolist()]

    def neighbor_indices(self, index: int) -> list[int]:
        """Return (out-)neighbour integer indices of node ``index``, ascending."""
        if not 0 <= index < self.number_of_nodes:
            raise NodeNotFoundError(index)
        return self._row(self.to_csr(), index).tolist()

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over edges once each as ``(u, v, weight)``.

        Edges come in ascending ``(u-index, v-index)`` order; for a Graph
        each edge is listed once with u-index < v-index.
        """
        rows, cols, data = self._canonical_edges()
        nodes = self._nodes
        for i, j, w in zip(rows.tolist(), cols.tolist(), data.tolist()):
            yield nodes[i], nodes[j], w

    # ------------------------------------------------------------------
    # bulk ingestion
    # ------------------------------------------------------------------
    def _validate_edge_arrays(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised validation shared by the bulk ingestion paths.

        Checks shapes, integer dtypes, index bounds, self-loops and weight
        positivity/finiteness in whole-array operations, mirroring the
        per-edge checks of :meth:`add_edge`.
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.ndim != 1 or cols.ndim != 1 or rows.shape != cols.shape:
            raise ParameterError(
                "rows and cols must be 1-D arrays of equal length, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if rows.size and not (
            np.issubdtype(rows.dtype, np.integer)
            and np.issubdtype(cols.dtype, np.integer)
        ):
            raise ParameterError(
                "rows and cols must be integer node indices "
                f"(got dtypes {rows.dtype}, {cols.dtype}); add nodes first "
                "and map them with index_of, or use from_arrays"
            )
        rows = rows.astype(np.int64, copy=False)
        cols = cols.astype(np.int64, copy=False)
        n = self.number_of_nodes
        if rows.size:
            low = min(int(rows.min()), int(cols.min()))
            high = max(int(rows.max()), int(cols.max()))
            if low < 0 or high >= n:
                bad = low if low < 0 else high
                raise NodeNotFoundError(bad)
            loops = rows == cols
            if loops.any():
                offender = self._nodes[int(rows[np.argmax(loops)])]
                raise EdgeError(f"self-loop on {offender!r} is not allowed")
        if weights is None:
            data = np.ones(rows.shape[0], dtype=np.float64)
        else:
            data = np.asarray(weights, dtype=np.float64)
            if data.shape != rows.shape:
                raise ParameterError(
                    f"weights must have shape {rows.shape}, got {data.shape}"
                )
            if data.size:
                if not np.isfinite(data).all():
                    raise EdgeError("edge weights must be finite")
                if (data <= 0.0).any():
                    raise EdgeError("edge weights must be positive")
        return rows, cols, data

    @staticmethod
    def _dedup_last_wins(
        keys: np.ndarray,
    ) -> np.ndarray:
        """Indices of the *last* occurrence of each unique key (key-sorted)."""
        _, first_in_reversed = np.unique(keys[::-1], return_index=True)
        return keys.shape[0] - 1 - first_in_reversed

    def add_edges_arrays(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Bulk-add edges ``rows[k] -> cols[k]`` from integer index arrays.

        Each edge gets weight ``weights[k]`` (default 1.0); for a Graph the
        edges are undirected.  Indices must refer to already-added nodes
        (use :meth:`add_node` / :meth:`add_nodes_from` first, or
        :meth:`from_arrays`).  Duplicate pairs — for a Graph in either
        orientation — keep the last weight, matching a sequential
        :meth:`add_edge` loop.  Validation and de-duplication are
        vectorised; no per-edge Python calls are made.
        """
        self._check_mutable()
        rows, cols, data = self._validate_edge_arrays(rows, cols, weights)
        if rows.size == 0:
            return
        rows, cols = self._canonical_pairs(rows, cols)
        with self._cache_lock:
            self._merge_edges(rows, cols, data)
            self._invalidate()

    @classmethod
    def from_arrays(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        nodes: Iterable[Node] | None = None,
        num_nodes: int | None = None,
        backend=None,
    ):
        """Build a graph directly from COO-style numpy arrays.

        ``nodes`` supplies node objects (indices refer to positions in the
        iterable); ``num_nodes`` creates integer nodes ``0 .. num_nodes-1``;
        with neither, integer nodes up to the largest index are created.
        ``backend`` selects the storage backend (name, instance or class;
        default in-memory — see :mod:`repro.graph.backends`).
        """
        g = cls(backend=backend)
        if nodes is not None:
            g.add_nodes_from(nodes)
        else:
            if num_nodes is None:
                rows_a = np.asarray(rows)
                cols_a = np.asarray(cols)
                num_nodes = (
                    int(max(rows_a.max(), cols_a.max())) + 1
                    if rows_a.size
                    else 0
                )
            g._add_integer_nodes(num_nodes)
        g.add_edges_arrays(rows, cols, weights)
        return g

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node] | tuple[Node, Node, float]],
        *,
        nodes: Iterable[Node] | None = None,
    ):
        """Build a graph from an edge iterable (and optional isolated nodes)."""
        g = cls()
        if nodes is not None:
            g.add_nodes_from(nodes)
        g.add_edges_from(edges)
        return g

    def subgraph(self, nodes: Iterable[Node]):
        """Return the subgraph induced by ``nodes`` (attributes preserved)."""
        kept = sorted({self.index_of(node) for node in nodes})
        sub = type(self)()
        for i in kept:
            sub.add_node(self._nodes[i], **self._attrs_at(i))
        rows, cols, data = self._canonical_edges()
        if rows.size:
            # Monotone remap: canonical (row < col) pairs stay canonical.
            remap = np.full(self.number_of_nodes, -1, dtype=np.int64)
            remap[kept] = np.arange(len(kept), dtype=np.int64)
            new_rows = remap[rows]
            new_cols = remap[cols]
            mask = (new_rows >= 0) & (new_cols >= 0)
            sub.add_edges_arrays(new_rows[mask], new_cols[mask], data[mask])
        return sub

    def copy(self):
        """Return a deep structural copy of the graph."""
        return self.subgraph(self._nodes)

    # ------------------------------------------------------------------
    # numpy / scipy export
    # ------------------------------------------------------------------
    def _coo_from_lazy(
        self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError  # pragma: no cover - subclass hook

    @staticmethod
    def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
        for arr in arrays:
            arr.setflags(write=False)
        return arrays

    def to_coo_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(rows, cols, weights)`` arrays of the adjacency.

        For undirected graphs both orientations of every edge are present,
        mirroring the symmetric adjacency matrix.  The arrays are cached
        until the next mutation and marked read-only; copy before writing.
        """
        return self.cached(
            ("coo",),
            lambda: self._freeze(*self._coo_from_lazy(*self._canonical_edges())),
        )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(rows, cols, weights)`` with each edge listed once.

        For undirected graphs each edge appears with ``row < col``; for
        directed graphs this is identical to :meth:`to_coo_arrays`.  The
        returned arrays are fresh copies, safe to mutate.
        """
        rows, cols, data = self.to_coo_arrays()
        if not self.directed:
            once = rows < cols
            return rows[once].copy(), cols[once].copy(), data[once].copy()
        return rows.copy(), cols.copy(), data.copy()

    def to_csr(self, *, weighted: bool = True) -> sparse.csr_matrix:
        """Return the adjacency matrix as ``scipy.sparse.csr_matrix``.

        Row ``i`` holds the out-edges of node ``i`` (for undirected graphs
        the matrix is symmetric).  With ``weighted=False`` all stored
        weights are replaced by ``1.0``.  The matrix is cached until the
        next mutation and shared between callers: treat it as read-only
        (every consumer in :mod:`repro.linalg` copies before mutating).
        """
        def build() -> sparse.csr_matrix:
            n = self.number_of_nodes
            # The store is key-sorted with each edge once, so the CSR
            # needs no sort and no duplicate sum.  On an undirected graph
            # the mirrored half (hi, lo) goes first: the stable row
            # bucketing of COO -> CSR then leaves every row's columns
            # ascending.
            rows, cols, data = self._canonical_edges()
            if not weighted:
                data = np.ones_like(data)
            if not self.directed:
                rows, cols = (
                    np.concatenate([cols, rows]), np.concatenate([rows, cols])
                )
                data = np.concatenate([data, data])
            coo = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
            coo.has_canonical_format = True  # tocsr skips sum_duplicates
            mat = coo.tocsr()
            mat.has_canonical_format = True
            return mat

        return self.cached(("csr", bool(weighted)), build)

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------
    def out_degree_vector(self, *, weighted: bool = False) -> np.ndarray:
        """Out-degree (or total out-weight) per node index.

        For undirected graphs this equals the ordinary degree vector.
        """
        n = self.number_of_nodes
        rows, _, data = self.to_coo_arrays()
        return np.bincount(
            rows, weights=data if weighted else None, minlength=n
        ).astype(float)

    def degree(self, node: Node) -> int:
        """Number of (out-)edges incident on ``node``."""
        idx = self.index_of(node)
        indptr = self.to_csr().indptr
        return int(indptr[idx + 1] - indptr[idx])

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def require_nonempty(self) -> None:
        """Raise :class:`EmptyGraphError` when the graph has no nodes."""
        if self.number_of_nodes == 0:
            raise EmptyGraphError("operation requires a non-empty graph")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DiGraph" if self.directed else "Graph"
        return (
            f"<{kind} nodes={self.number_of_nodes} "
            f"edges={self.number_of_edges}>"
        )


class Graph(BaseGraph):
    """An undirected, optionally weighted graph.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge("a", "b", weight=2.0)
    >>> g.degree("a")
    1
    >>> g.edge_weight("b", "a")
    2.0
    """

    directed = False

    def _coo_from_lazy(
        self, lo: np.ndarray, hi: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.concatenate([lo, hi]),
            np.concatenate([hi, lo]),
            np.concatenate([data, data]),
        )

    def degree_vector(self, *, weighted: bool = False) -> np.ndarray:
        """Degree (or strength when ``weighted``) of every node, by index."""
        return self.out_degree_vector(weighted=weighted)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def connected_components(self) -> list[list[Node]]:
        """Return connected components as lists of node objects.

        Components are sorted by decreasing size (ties broken by smallest
        member index) so ``components[0]`` is the giant component.  The
        labelling runs on the cached CSR via ``scipy.sparse.csgraph``.
        """
        n = self.number_of_nodes
        if n == 0:
            return []
        n_comp, labels = csgraph.connected_components(
            self.to_csr(weighted=False), directed=False
        )
        sizes = np.bincount(labels, minlength=n_comp)
        # Stable argsort groups members by label while keeping indices
        # ascending within each component.
        by_label = np.argsort(labels, kind="stable")
        groups = np.split(by_label, np.cumsum(sizes)[:-1])
        order = sorted(
            range(n_comp), key=lambda c: (-int(sizes[c]), int(groups[c][0]))
        )
        return [[self._nodes[i] for i in groups[c].tolist()] for c in order]

    def largest_connected_component(self) -> "Graph":
        """Return the subgraph induced by the largest connected component."""
        self.require_nonempty()
        return self.subgraph(self.connected_components()[0])

    def to_directed(self) -> "DiGraph":
        """Return a :class:`DiGraph` with both orientations of every edge."""
        d = DiGraph()
        for i, node in enumerate(self._nodes):
            d.add_node(node, **self._attrs_at(i))
        rows, cols, data = self.to_coo_arrays()
        d.add_edges_arrays(rows, cols, data)
        return d


class DiGraph(BaseGraph):
    """A directed, optionally weighted graph.

    Examples
    --------
    >>> g = DiGraph()
    >>> g.add_edge("a", "b")
    >>> g.out_degree("a"), g.in_degree("b")
    (1, 1)
    """

    directed = True

    def _coo_from_lazy(
        self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if not rows.flags.writeable:
            # Already-immutable views (mmap backend): alias them, the
            # read-only COO contract holds without a copy.
            return rows, cols, data
        return rows.copy(), cols.copy(), data.copy()

    def _transpose(self) -> sparse.csr_matrix:
        """Cached CSR of the reversed adjacency (row ``j`` = in-edges of ``j``).

        The transpose of the graph-cached adjacency bundle the spectral
        methods iterate: a repeat read is one cache lookup.
        """
        from repro.methods.spectral import adjacency_bundle

        return adjacency_bundle(self, weighted=True).t_csr

    def out_degree(self, node: Node) -> int:
        """Number of edges leaving ``node``."""
        return self.degree(node)

    def in_degree(self, node: Node) -> int:
        """Number of edges entering ``node``."""
        idx = self.index_of(node)
        indptr = self._transpose().indptr
        return int(indptr[idx + 1] - indptr[idx])

    def in_degree_vector(self, *, weighted: bool = False) -> np.ndarray:
        """In-degree (or total in-weight) per node index."""
        n = self.number_of_nodes
        _, cols, data = self.to_coo_arrays()
        return np.bincount(
            cols, weights=data if weighted else None, minlength=n
        ).astype(float)

    def predecessors(self, node: Node) -> list[Node]:
        """Return nodes with an edge into ``node``, by ascending index."""
        row = self._row(self._transpose(), self.index_of(node))
        return [self._nodes[j] for j in row.tolist()]

    def dangling_mask(self) -> np.ndarray:
        """Boolean array marking nodes without outgoing edges."""
        return self.out_degree_vector() == 0.0

    def to_undirected(self) -> Graph:
        """Collapse directions; anti-parallel edge weights are summed."""
        g = Graph()
        for i, node in enumerate(self._nodes):
            g.add_node(node, **self._attrs_at(i))
        rows, cols, data = self.to_coo_arrays()
        if rows.size:
            lo = np.minimum(rows, cols)
            hi = np.maximum(rows, cols)
            keys = lo * np.int64(self.number_of_nodes) + hi
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=data)
            g.add_edges_arrays(
                (uniq // self.number_of_nodes).astype(np.int64),
                (uniq % self.number_of_nodes).astype(np.int64),
                sums,
            )
        return g
