"""Storage backend contract behind :class:`~repro.graph.base.BaseGraph`.

A graph instance owns its *identity* — the node objects, their dense
integer indexing and the frozen/mutation-counter bookkeeping — and
delegates *storage* to a :class:`GraphBackend`:

* the **edge store**: the adjacency ``M`` as one row-major CSR over
  arcs, ``(indptr, indices, weights)``.  Row ``i`` lists the out-arcs
  of node ``i`` with ascending, unique columns; an undirected edge is
  two arcs of equal weight, so the store of a ``Graph`` is symmetric.
  ``indptr`` and ``indices`` share one index dtype (int32 where it
  fits, as scipy picks), so ``to_csr`` wraps the arrays without a
  copy.  It is the graph's only adjacency;
* the **node-attribute columns** (``{name: {index: value}}``).

Two implementations ship:

* :class:`~repro.graph.backends.memory.InMemoryBackend` — plain numpy
  arrays in RAM; the default.
* :class:`~repro.graph.backends.mmapped.MmapBackend` — the CSR arrays
  live in ``.npy`` files opened through ``np.load(mmap_mode=...)`` so
  graphs larger than RAM page from disk, snapshots can be attached
  zero-copy, and other processes can map the same files without
  fork-inherited ``shared_memory``.

Stored arrays are read-only and never mutated: a write replaces all
three, so a matrix built on an old store stays valid.  Attribute
columns are Python-object structures and therefore always RAM-resident
regardless of backend.  See ``docs/storage.md`` for the full contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.errors import ParameterError

__all__ = ["GraphBackend"]

#: The stored CSR: (indptr, indices, weights).
CSRArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class GraphBackend(ABC):
    """Abstract storage engine for one graph instance.

    A backend instance is single-owner: :meth:`bind` is called exactly
    once by the graph constructor (binding a backend to a second graph
    raises).  All mutation ordering, validation, freezing and cache
    invalidation stay in :class:`~repro.graph.base.BaseGraph`; the
    backend only stores what it is told.
    """

    #: Registry name of the backend ("memory", "mmap").
    name: str = "abstract"

    def __init__(self) -> None:
        self.node_attrs: dict[str, dict[int, Any]] = {}
        self._bound = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bind(self) -> "GraphBackend":
        """Attach this backend to one graph instance (called by ``__init__``)."""
        if self._bound:
            raise ParameterError(
                "backend instance is already bound to a graph; "
                "construct a fresh backend per graph"
            )
        self._bound = True
        return self

    def close(self) -> None:
        """Release backend resources (files, mappings).  Idempotent."""

    # ------------------------------------------------------------------
    # the CSR edge store
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def csr(self) -> CSRArrays:
        """The stored ``(indptr, indices, weights)`` (read-only arrays).

        ``indptr`` may be shorter than ``number_of_nodes + 1``: nodes
        added since the last write have no arcs yet.
        """

    @abstractmethod
    def set_csr(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        """Replace the store with a row-major CSR over arcs.

        ``indptr``/``indices`` share one integer dtype, ``weights`` is
        float64; columns are ascending and unique within each row.  The
        backend may retain the arrays by reference (marking them
        read-only) or persist copies; callers must treat previously
        returned arrays as stale after this call.
        """

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Backend identity and residency facts (for ``stats()``/logs)."""
        return {"backend": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} bound={self._bound}>"


def _read_only(*arrays: np.ndarray) -> CSRArrays:
    """Contiguous read-only forms of the three CSR arrays."""
    out = tuple(np.ascontiguousarray(arr) for arr in arrays)
    for arr in out:
        arr.flags.writeable = False
    return out


def _empty_csr() -> CSRArrays:
    """The store of a graph with no nodes."""
    return _read_only(
        np.zeros(1, dtype=np.int32),
        np.empty(0, dtype=np.int32),
        np.empty(0, dtype=np.float64),
    )
