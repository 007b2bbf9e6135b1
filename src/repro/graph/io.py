"""Reading and writing graphs.

Supports the two formats used throughout the repository:

* **Edge lists** (``.tsv`` / ``.txt``): one edge per line, whitespace
  separated, optional third column with the weight, ``#`` comments.  This is
  the format of the public SNAP / hetrec dumps the paper used, so users with
  access to the original data can load it directly.
* **JSON graphs**: a self-describing format that round-trips node
  attributes, weights and directedness; used to cache generated datasets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TextIO

import numpy as np

from repro.errors import GraphError
from repro.graph.base import BaseGraph, DiGraph, Graph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_json_graph",
    "write_json_graph",
]


def _parse_edge_line(line: str, lineno: int) -> tuple[str, str, float] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) == 2:
        return parts[0], parts[1], 1.0
    if len(parts) == 3:
        try:
            weight = float(parts[2])
        except ValueError:
            raise GraphError(
                f"line {lineno}: third column is not a number: {parts[2]!r}"
            ) from None
        return parts[0], parts[1], weight
    raise GraphError(
        f"line {lineno}: expected 2 or 3 columns, got {len(parts)}"
    )


def read_edge_list(
    path: str | Path | TextIO,
    *,
    directed: bool = False,
) -> Graph | DiGraph:
    """Read a whitespace-separated edge list.

    Lines are ``u v`` or ``u v weight``; ``#``-prefixed lines and blank
    lines are skipped.  Node names are kept as strings.
    """
    graph: Graph | DiGraph = DiGraph() if directed else Graph()
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []

    def _consume(handle: TextIO) -> None:
        # add_node is idempotent and returns the index, so it doubles as
        # the name→index mapping while preserving first-appearance order;
        # the edges themselves are ingested in one bulk call below.
        for lineno, line in enumerate(handle, start=1):
            parsed = _parse_edge_line(line, lineno)
            if parsed is None:
                continue
            u, v, w = parsed
            rows.append(graph.add_node(u))
            cols.append(graph.add_node(v))
            weights.append(w)

    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8") as handle:
            _consume(handle)
    else:
        _consume(path)
    graph.add_edges_arrays(
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )
    return graph


_WRITE_CHUNK = 65_536


def write_edge_list(graph: BaseGraph, path: str | Path) -> None:
    """Write ``graph`` as ``u v weight`` lines (one per edge).

    Streams the canonical columnar arrays in chunks — no per-edge
    ``write`` call — so dumping a large graph never pulls the whole
    edge list through Python objects at once.
    """
    path = Path(path)
    rows, cols, data = graph._canonical_edges()
    nodes = graph.nodes()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# nodes={graph.number_of_nodes} edges={graph.number_of_edges}\n"
        )
        handle.write(f"# directed={graph.directed}\n")
        for start in range(0, rows.shape[0], _WRITE_CHUNK):
            stop = start + _WRITE_CHUNK
            handle.write(
                "".join(
                    f"{nodes[i]}\t{nodes[j]}\t{w:g}\n"
                    for i, j, w in zip(
                        rows[start:stop].tolist(),
                        cols[start:stop].tolist(),
                        data[start:stop].tolist(),
                    )
                )
            )


def write_json_graph(graph: BaseGraph, path: str | Path) -> None:
    """Serialise ``graph`` (structure + node attributes) to JSON.

    Edges are read straight from the canonical columnar arrays (one
    ``tolist`` per column) and attributes from the per-name columns, so
    serialisation does no per-node ``node_attr`` lookups; JSON stays
    the small-graph interchange format,
    :func:`repro.graph.persist.save_snapshot` the bulk one.
    """
    nodes = graph.nodes()
    attr_rows: list[dict] = [{} for _ in nodes]
    for name in graph.attribute_names():
        for idx, value in graph._node_attrs[name].items():
            if value is not None:
                attr_rows[idx][name] = value
    rows, cols, data = graph._canonical_edges()
    payload = {
        "directed": graph.directed,
        "nodes": [
            {"id": node, "attrs": attrs}
            for node, attrs in zip(nodes, attr_rows)
        ],
        "edges": [
            {"source": nodes[i], "target": nodes[j], "weight": w}
            for i, j, w in zip(rows.tolist(), cols.tolist(), data.tolist())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def read_json_graph(path: str | Path) -> Graph | DiGraph:
    """Load a graph written by :func:`write_json_graph`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        directed = bool(payload["directed"])
        node_records = payload["nodes"]
        edge_records = payload["edges"]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed JSON graph file {path}: {exc}") from exc

    graph: Graph | DiGraph = DiGraph() if directed else Graph()
    for record in node_records:
        graph.add_node(record["id"], **record.get("attrs", {}))
    # One pass over the records, resolving endpoints through the live
    # index dict (add_node only for names the node table missed) instead
    # of three generator sweeps of per-edge add_node calls.
    index = graph._index
    m = len(edge_records)
    rows = np.empty(m, dtype=np.int64)
    cols = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    add_node = graph.add_node
    for k, record in enumerate(edge_records):
        source, target = record["source"], record["target"]
        i = index.get(source)
        rows[k] = add_node(source) if i is None else i
        j = index.get(target)
        cols[k] = add_node(target) if j is None else j
        weights[k] = record.get("weight", 1.0)
    graph.add_edges_arrays(rows, cols, weights)
    return graph
