"""Bipartite (two-mode) graphs and co-membership projections.

Every data graph in the paper's evaluation is a projection of a two-mode
affiliation structure:

* movie–contributor  →  movie-movie (shared contributors) and actor-actor
  (shared movies),
* article–author     →  article-article and author-author,
* listener–artist    →  artist-artist (shared listeners),
* commenter–product  →  commenter-commenter and product-product.

This module provides a :class:`BipartiteGraph` holding ``left`` and ``right``
node sets plus :func:`project`, which builds the one-mode co-membership
graph.  Projection weights count shared affiliations — exactly the edge
weights the paper uses in its weighted-graph experiments ("# of common
movies", "# of shared products", ...).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro.errors import GraphError, NodeNotFoundError, ParameterError
from repro.graph.base import Graph, Node

__all__ = ["BipartiteGraph", "project"]


def row_segments(
    sources: np.ndarray, n_rows: int
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Group entry positions by source row for segment-wise bulk updates.

    Returns the stable sort order of ``sources`` plus ``(row, start, stop)``
    triples delimiting each occupied row's slice of the order-sorted arrays.
    """
    order = np.argsort(sources, kind="stable")
    counts = np.bincount(sources, minlength=n_rows)
    occupied = np.flatnonzero(counts)
    stops = np.cumsum(counts[occupied])
    starts = stops - counts[occupied]
    return order, list(
        zip(occupied.tolist(), starts.tolist(), stops.tolist())
    )


class BipartiteGraph:
    """A two-mode graph with disjoint ``left`` and ``right`` node sets.

    Edges connect a left node to a right node; within-side edges are
    rejected.  Node attributes are supported on both sides.
    """

    def __init__(self) -> None:
        self._left_index: dict[Node, int] = {}
        self._right_index: dict[Node, int] = {}
        self._left_nodes: list[Node] = []
        self._right_nodes: list[Node] = []
        # adjacency: left index -> set of right indices, and the transpose
        self._left_adj: list[set[int]] = []
        self._right_adj: list[set[int]] = []
        self._left_attrs: dict[str, dict[int, Any]] = {}
        self._right_attrs: dict[str, dict[int, Any]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_left(self, node: Node, **attrs: Any) -> int:
        """Add a node to the left side and return its left index."""
        if node in self._right_index:
            raise GraphError(f"{node!r} already exists on the right side")
        idx = self._left_index.get(node)
        if idx is None:
            idx = len(self._left_nodes)
            self._left_index[node] = idx
            self._left_nodes.append(node)
            self._left_adj.append(set())
        for name, value in attrs.items():
            self._left_attrs.setdefault(name, {})[idx] = value
        return idx

    def add_right(self, node: Node, **attrs: Any) -> int:
        """Add a node to the right side and return its right index."""
        if node in self._left_index:
            raise GraphError(f"{node!r} already exists on the left side")
        idx = self._right_index.get(node)
        if idx is None:
            idx = len(self._right_nodes)
            self._right_index[node] = idx
            self._right_nodes.append(node)
            self._right_adj.append(set())
        for name, value in attrs.items():
            self._right_attrs.setdefault(name, {})[idx] = value
        return idx

    def add_edge(self, left: Node, right: Node) -> None:
        """Connect ``left`` (left side) with ``right`` (right side)."""
        li = self.add_left(left)
        ri = self.add_right(right)
        if ri not in self._left_adj[li]:
            self._left_adj[li].add(ri)
            self._right_adj[ri].add(li)
            self._num_edges += 1

    def add_edges_from(self, edges: Iterable[tuple[Node, Node]]) -> None:
        """Add ``(left, right)`` pairs."""
        for left, right in edges:
            self.add_edge(left, right)

    def add_edges_arrays(
        self, lefts: np.ndarray, rights: np.ndarray
    ) -> None:
        """Bulk-connect ``lefts[k] -- rights[k]`` by integer side indices.

        Both sides must already contain the referenced nodes (use
        :meth:`add_left` / :meth:`add_right` first).  Duplicate pairs are
        de-duplicated vectorised; the per-pair set updates run at C speed.
        """
        lefts = np.asarray(lefts)
        rights = np.asarray(rights)
        if lefts.ndim != 1 or rights.ndim != 1 or lefts.shape != rights.shape:
            raise ParameterError(
                "lefts and rights must be 1-D arrays of equal length, "
                f"got shapes {lefts.shape} and {rights.shape}"
            )
        if lefts.size == 0:
            return
        if not (
            np.issubdtype(lefts.dtype, np.integer)
            and np.issubdtype(rights.dtype, np.integer)
        ):
            raise ParameterError(
                "lefts and rights must be integer side indices "
                f"(got dtypes {lefts.dtype}, {rights.dtype})"
            )
        for indices, limit in (
            (lefts, self.number_of_left),
            (rights, self.number_of_right),
        ):
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or high >= limit:
                raise NodeNotFoundError(low if low < 0 else high)
        n_right = self.number_of_right
        keys = np.unique(
            lefts.astype(np.int64) * np.int64(n_right)
            + rights.astype(np.int64)
        )
        li = keys // n_right
        ri = keys % n_right
        for adj, sources, targets in (
            (self._left_adj, li, ri),
            (self._right_adj, ri, li),
        ):
            order, segments = row_segments(sources, len(adj))
            targets_l = targets[order].tolist()
            for i, s, e in segments:
                adj[i].update(targets_l[s:e])
        self._num_edges = sum(map(len, self._left_adj))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def number_of_left(self) -> int:
        """Number of left-side nodes."""
        return len(self._left_nodes)

    @property
    def number_of_right(self) -> int:
        """Number of right-side nodes."""
        return len(self._right_nodes)

    @property
    def number_of_edges(self) -> int:
        """Number of bipartite edges."""
        return self._num_edges

    def left_nodes(self) -> list[Node]:
        """Left-side node objects in insertion order."""
        return list(self._left_nodes)

    def right_nodes(self) -> list[Node]:
        """Right-side node objects in insertion order."""
        return list(self._right_nodes)

    def neighbors_of_left(self, node: Node) -> list[Node]:
        """Right-side neighbours of a left node."""
        try:
            li = self._left_index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return [self._right_nodes[r] for r in sorted(self._left_adj[li])]

    def neighbors_of_right(self, node: Node) -> list[Node]:
        """Left-side neighbours of a right node."""
        try:
            ri = self._right_index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return [self._left_nodes[l] for l in sorted(self._right_adj[ri])]

    def left_degree_vector(self) -> np.ndarray:
        """Degree of each left node (number of affiliations)."""
        return np.array([len(s) for s in self._left_adj], dtype=float)

    def right_degree_vector(self) -> np.ndarray:
        """Degree of each right node (number of members)."""
        return np.array([len(s) for s in self._right_adj], dtype=float)

    def left_attr_array(self, name: str, default: float = np.nan) -> np.ndarray:
        """Left-side attribute vector aligned with left indices."""
        values = self._left_attrs.get(name, {})
        out = np.full(self.number_of_left, default, dtype=float)
        for idx, value in values.items():
            out[idx] = value
        return out

    def right_attr_array(self, name: str, default: float = np.nan) -> np.ndarray:
        """Right-side attribute vector aligned with right indices."""
        values = self._right_attrs.get(name, {})
        out = np.full(self.number_of_right, default, dtype=float)
        for idx, value in values.items():
            out[idx] = value
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BipartiteGraph left={self.number_of_left} "
            f"right={self.number_of_right} edges={self.number_of_edges}>"
        )


def project(
    bipartite: BipartiteGraph,
    side: str = "left",
    *,
    min_shared: int = 1,
    copy_attrs: bool = True,
) -> Graph:
    """Project a bipartite graph onto one of its sides.

    Two same-side nodes are connected iff they share at least ``min_shared``
    neighbours on the opposite side; the edge weight is the number of shared
    neighbours.  This is the construction behind every data graph in the
    paper (e.g. actor-actor edges weighted by "# of common movies").

    Parameters
    ----------
    bipartite:
        The two-mode graph.
    side:
        ``"left"`` or ``"right"`` — which side becomes the node set of the
        projection.
    min_shared:
        Minimum number of shared opposite-side neighbours for an edge.
    copy_attrs:
        Copy the projected side's node attributes onto the result.

    Notes
    -----
    Complexity is ``O(sum_over_opposite(deg^2))``: each opposite-side node of
    degree ``d`` contributes ``d(d-1)/2`` co-membership pairs.  Hub nodes on
    the opposite side therefore dominate the cost — identical to the density
    behaviour visible in the paper's Table 3 (e.g. artist-artist is dense
    because popular artists have many listeners).
    """
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    if min_shared < 1:
        raise ParameterError(f"min_shared must be >= 1, got {min_shared}")

    if side == "left":
        nodes = bipartite.left_nodes()
        own_adj = bipartite._left_adj
        opp_adj = bipartite._right_adj
        attrs = bipartite._left_attrs
    else:
        nodes = bipartite.right_nodes()
        own_adj = bipartite._right_adj
        opp_adj = bipartite._left_adj
        attrs = bipartite._right_attrs

    g = Graph()
    for i, node in enumerate(nodes):
        if copy_attrs:
            node_attrs = {
                name: values[i] for name, values in attrs.items() if i in values
            }
            g.add_node(node, **node_attrs)
        else:
            g.add_node(node)

    # Count shared-neighbour pairs by iterating opposite-side memberships:
    # each opposite node of degree d contributes its d(d-1)/2 co-membership
    # pairs via one triu_indices call; the pair keys are then tallied with
    # a single unique(return_counts=True) pass.
    n_own = len(nodes)
    pair_keys: list[np.ndarray] = []
    for members in opp_adj:
        if len(members) < 2:
            continue
        ms = np.fromiter(sorted(members), dtype=np.int64, count=len(members))
        a_pos, b_pos = np.triu_indices(ms.shape[0], k=1)
        pair_keys.append(ms[a_pos] * np.int64(n_own) + ms[b_pos])
    if pair_keys:
        keys, counts = np.unique(np.concatenate(pair_keys), return_counts=True)
        strong = counts >= min_shared
        keys, counts = keys[strong], counts[strong]
        g.add_edges_arrays(
            keys // n_own, keys % n_own, counts.astype(np.float64)
        )

    # `own_adj` is intentionally unused beyond validation: isolated nodes on
    # the projected side stay isolated in the projection.
    del own_adj
    return g
