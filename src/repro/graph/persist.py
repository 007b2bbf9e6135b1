"""Snapshot + delta-log persistence for graphs.

Two complementary durability primitives (see ``docs/storage.md``):

* **Snapshots** — :func:`save_snapshot` writes a graph's canonical
  columnar arrays and node table to a directory in one binary pass
  (``np.save`` per array + a small ``meta.json``; node objects and
  attributes are pickled only when present — integer-indexed graphs,
  the bulk-ingestion norm, serialise without touching Python objects).
  :func:`load_snapshot` reconstructs the graph; with ``backend="mmap"``
  the edge arrays are *attached* by mapping the snapshot files directly
  (three ``mmap(2)`` calls, no body read), which is what makes a warm
  restart of a 100M-edge service cheap.
* **Delta logs** — :class:`DeltaLog` is an append-only record stream of
  :class:`~repro.graph.delta.GraphDelta` batches.  ``apply_delta(...,
  log=...)`` tees each successfully committed delta; replaying
  ``snapshot + log`` reproduces the live graph exactly (the roundtrip
  property the test suite checks against random mutation histories).

The snapshot layout is a directory::

    meta.json            format/version, directedness, counts, flags,
                         and a random snapshot_id naming this write
    edges-rows.npy       canonical int64 source indices (key-sorted)
    edges-cols.npy       canonical int64 target indices
    edges-weights.npy    float64 weights
    nodes.pkl            node objects (absent for integer-range nodes)
    attrs.pkl            {name: {index: value}} (absent when empty)

Log records are length-prefixed, CRC-checked frames so a torn final
write (crash mid-append) is detected and — by default — tolerated by
:meth:`DeltaLog.replay` as "the last delta never committed".
"""

from __future__ import annotations

import json
import pickle
import struct
import uuid
import zlib
from pathlib import Path

import numpy as np

from repro.errors import GraphError, ParameterError
from repro.graph.base import BaseGraph, DiGraph, Graph
from repro.graph.delta import GraphDelta

__all__ = [
    "DeltaLog",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "load_snapshot",
    "save_snapshot",
    "snapshot_id",
]

SNAPSHOT_FORMAT = "repro-graph-snapshot"
SNAPSHOT_VERSION = 1

_EDGE_FILES = ("edges-rows.npy", "edges-cols.npy", "edges-weights.npy")


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
def save_snapshot(graph: BaseGraph, path: str | Path) -> Path:
    """Write ``graph`` to the snapshot directory ``path`` (created/overwritten).

    The columnar edge store is written as-is: it is sorted by
    ``(row, col)``, so a loaded snapshot keeps the sorted-store
    invariant the point queries and the streaming delta merge rely on.
    Frozen state is recorded and restored by :func:`load_snapshot`.
    Every write gets a fresh random :func:`snapshot_id`, so state
    certified against one write can tell it from a later rewrite of the
    same directory.  Returns the snapshot directory.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    n = graph.number_of_nodes
    rows, cols, data = graph._canonical_edges()
    for name, arr in zip(_EDGE_FILES, (rows, cols, data)):
        np.save(path / name, arr)

    nodes = graph.nodes()
    integer_nodes = nodes == list(range(n))
    if not integer_nodes:
        with open(path / "nodes.pkl", "wb") as handle:
            pickle.dump(nodes, handle, protocol=pickle.HIGHEST_PROTOCOL)
    attrs = {
        name: dict(col) for name, col in graph._node_attrs.items() if col
    }
    if attrs:
        with open(path / "attrs.pkl", "wb") as handle:
            pickle.dump(attrs, handle, protocol=pickle.HIGHEST_PROTOCOL)

    meta = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "directed": graph.directed,
        "nodes": n,
        "edges": int(rows.shape[0]),
        "integer_nodes": integer_nodes,
        "frozen": graph.frozen,
        "has_attrs": bool(attrs),
        "snapshot_id": uuid.uuid4().hex,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=1))
    return path


def load_snapshot(
    path: str | Path,
    *,
    backend=None,
    restore_frozen: bool = True,
) -> Graph | DiGraph:
    """Reconstruct the graph stored by :func:`save_snapshot` at ``path``.

    ``backend`` selects the storage backend of the loaded graph (name,
    instance or class — see :mod:`repro.graph.backends`).  With the
    ``"mmap"`` backend the snapshot's edge files are attached zero-copy:
    the arrays stay on disk and page in on demand, so load time is
    independent of edge count.  ``restore_frozen=False`` returns an
    unfrozen graph even when the snapshot recorded a frozen one.
    """
    path = Path(path)
    meta = _read_meta(path)
    cls = DiGraph if meta["directed"] else Graph
    graph = cls(backend=backend)
    store = graph._store
    n = int(meta["nodes"])

    if meta["integer_nodes"]:
        if n:
            graph._add_integer_nodes(n)
    else:
        with open(path / "nodes.pkl", "rb") as handle:
            nodes = pickle.load(handle)
        if len(nodes) != n:
            raise GraphError(
                f"snapshot {path} is inconsistent: meta says {n} nodes, "
                f"node table has {len(nodes)}"
            )
        graph._nodes = list(nodes)
        graph._index = {node: i for i, node in enumerate(graph._nodes)}
    if meta.get("has_attrs"):
        with open(path / "attrs.pkl", "rb") as handle:
            attrs = pickle.load(handle)
        for name, col in attrs.items():
            store.node_attrs[name] = {int(i): v for i, v in col.items()}

    num_edges = int(meta["edges"])
    if num_edges:
        mmap_mode = "r" if store.name == "mmap" else None
        arrays = tuple(
            np.load(path / name, mmap_mode=mmap_mode, allow_pickle=False)
            for name in _EDGE_FILES
        )
        if any(a.shape != (num_edges,) for a in arrays):
            raise GraphError(
                f"snapshot {path} is inconsistent: edge arrays do not "
                f"match meta edge count {num_edges}"
            )
        if mmap_mode is not None:
            # Zero-copy: the snapshot files *are* the columnar store.
            store.attach(*arrays)
        else:
            store.set_columnar(*arrays)
        graph._num_edges = num_edges
        graph._invalidate()
    if meta.get("frozen") and restore_frozen:
        graph.freeze()
    return graph


def snapshot_id(path: str | Path) -> str | None:
    """The random id :func:`save_snapshot` gave the snapshot at ``path``.

    ``None`` for a snapshot written before ids existed.
    """
    return _read_meta(Path(path)).get("snapshot_id")


def _read_meta(path: Path) -> dict:
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise GraphError(f"no snapshot at {path} (missing meta.json)")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise GraphError(
            f"{path} is not a graph snapshot (format={meta.get('format')!r})"
        )
    if int(meta.get("version", -1)) > SNAPSHOT_VERSION:
        raise GraphError(
            f"snapshot {path} has version {meta['version']}, newer than "
            f"this library supports ({SNAPSHOT_VERSION})"
        )
    return meta


# ----------------------------------------------------------------------
# delta log
# ----------------------------------------------------------------------
_LOG_MAGIC = b"RPRDLOG1"
_REC_MAGIC = b"DREC"
_REC_HEADER = struct.Struct("<4sIQ")  # magic, crc32(payload), payload len

_ARRAY_FIELDS = (
    "insert_rows",
    "insert_cols",
    "insert_weights",
    "delete_rows",
    "delete_cols",
    "reweight_rows",
    "reweight_cols",
    "reweight_weights",
    "node_deletes",
)


def _encode_delta(delta: GraphDelta) -> bytes:
    record = {name: getattr(delta, name) for name in _ARRAY_FIELDS}
    record["node_inserts"] = delta.node_inserts
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_delta(payload: bytes) -> GraphDelta:
    record = pickle.loads(payload)
    return GraphDelta(**record)


class DeltaLog:
    """Append-only, replayable log of :class:`GraphDelta` batches.

    Records are ``DREC | crc32 | length | payload`` frames after an
    8-byte file magic; :meth:`append` flushes each frame (pass
    ``durable=True`` to also ``fsync``, trading latency for
    power-failure durability).  Iteration yields the recorded deltas in
    order; :meth:`replay` applies them to a graph.  A truncated trailing
    frame — a crash mid-append — is treated as "never committed" by
    default; a corrupt CRC always raises.
    """

    def __init__(
        self, path: str | Path, *, durable: bool = False
    ) -> None:
        self.path = Path(path)
        self.durable = bool(durable)
        self._handle = None
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as handle:
                handle.write(_LOG_MAGIC)
        else:
            with open(self.path, "rb") as handle:
                if handle.read(len(_LOG_MAGIC)) != _LOG_MAGIC:
                    raise GraphError(
                        f"{self.path} is not a delta log (bad magic)"
                    )

    # -- writing -------------------------------------------------------
    def append(self, delta: GraphDelta) -> int:
        """Append one delta; returns the frame size in bytes."""
        if not isinstance(delta, GraphDelta):
            raise ParameterError(
                f"DeltaLog.append expects a GraphDelta, "
                f"got {type(delta).__name__}"
            )
        payload = _encode_delta(delta)
        frame = (
            _REC_HEADER.pack(_REC_MAGIC, zlib.crc32(payload), len(payload))
            + payload
        )
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(frame)
        self._handle.flush()
        if self.durable:
            import os

            os.fsync(self._handle.fileno())
        return len(frame)

    @property
    def size(self) -> int:
        """Record payload bytes on disk (0 right after :meth:`truncate`).

        ``append`` flushes every frame, so the on-disk size is current
        without closing the handle; the serving layer's log-compaction
        policy compares this against the snapshot's byte size.
        """
        try:
            return max(0, self.path.stat().st_size - len(_LOG_MAGIC))
        except FileNotFoundError:
            return 0

    def truncate(self) -> None:
        """Reset the log to empty (a checkpoint superseded its records)."""
        self.close()
        with open(self.path, "wb") as handle:
            handle.write(_LOG_MAGIC)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -------------------------------------------------------
    def records(self, *, strict: bool = False) -> list[GraphDelta]:
        """All recorded deltas, in append order.

        ``strict=True`` raises on a truncated trailing frame instead of
        treating it as an uncommitted append.
        """
        out: list[GraphDelta] = []
        with open(self.path, "rb") as handle:
            if handle.read(len(_LOG_MAGIC)) != _LOG_MAGIC:
                raise GraphError(f"{self.path} is not a delta log (bad magic)")
            while True:
                header = handle.read(_REC_HEADER.size)
                if not header:
                    break
                if len(header) < _REC_HEADER.size:
                    if strict:
                        raise GraphError(
                            f"{self.path}: truncated record header at "
                            f"offset {handle.tell() - len(header)}"
                        )
                    break
                magic, crc, length = _REC_HEADER.unpack(header)
                if magic != _REC_MAGIC:
                    raise GraphError(
                        f"{self.path}: bad record magic at offset "
                        f"{handle.tell() - _REC_HEADER.size}"
                    )
                payload = handle.read(length)
                if len(payload) < length:
                    if strict:
                        raise GraphError(
                            f"{self.path}: truncated record payload "
                            f"(wanted {length}, got {len(payload)})"
                        )
                    break
                if zlib.crc32(payload) != crc:
                    raise GraphError(
                        f"{self.path}: record CRC mismatch at offset "
                        f"{handle.tell() - length}"
                    )
                out.append(_decode_delta(payload))
        return out

    def __iter__(self):
        return iter(self.records())

    def __len__(self) -> int:
        return len(self.records())

    def replay(self, target, *, strict: bool = False) -> dict:
        """Apply every recorded delta to ``target``; returns op totals.

        ``target`` is a graph, or anything with a graph's
        ``apply_delta`` — a :class:`~repro.serving.RankingService`
        replays through its own delta path, so its cached answers
        follow the graph.
        """
        totals = {
            "records": 0,
            "inserted": 0,
            "deleted": 0,
            "reweighted": 0,
            "nodes_inserted": 0,
            "nodes_deleted": 0,
        }
        for delta in self.records(strict=strict):
            stats = target.apply_delta(delta)
            totals["records"] += 1
            for key in (
                "inserted",
                "deleted",
                "reweighted",
                "nodes_inserted",
                "nodes_deleted",
            ):
                totals[key] += stats[key]
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DeltaLog path={str(self.path)!r}>"
