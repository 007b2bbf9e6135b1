"""Storage backend contract behind :class:`~repro.graph.base.BaseGraph`.

A graph instance owns its *identity* — the node objects, their dense
integer indexing and the frozen/mutation-counter bookkeeping — and
delegates *storage* to a :class:`GraphBackend`:

* the **columnar edge store**: de-duplicated ``(rows, cols, weights)``
  arrays holding one entry per edge (``lo < hi`` for undirected graphs),
  sorted by ``(row, col)``.  It is the graph's only adjacency: point
  queries binary-search it or slice the CSR exported from it;
* the **node-attribute columns** (``{name: {index: value}}``).

Two implementations ship:

* :class:`~repro.graph.backends.memory.InMemoryBackend` — plain numpy
  arrays in RAM; the default and the behaviour every pre-backend release
  had.
* :class:`~repro.graph.backends.mmapped.MmapBackend` — the columnar
  arrays live in ``.npy`` files opened through ``np.load(mmap_mode=...)``
  so graphs larger than RAM page from disk, snapshots can be attached
  zero-copy, and other processes can map the same files without
  fork-inherited ``shared_memory``.

Attribute columns are Python-object structures and therefore always
RAM-resident regardless of backend.  See ``docs/storage.md`` for the
full contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.errors import ParameterError

__all__ = ["GraphBackend"]

#: Canonical columnar triple: (rows, cols, weights).
Columnar = tuple[np.ndarray, np.ndarray, np.ndarray]


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
    # canonical columnar edge store
    # ------------------------------------------------------------------
    @property
    @abstractmethod
    def columnar(self) -> Columnar:
        """The canonical edge triple (empty arrays for an edgeless graph)."""

    @abstractmethod
    def set_columnar(
        self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> None:
        """Replace the columnar store with canonical arrays.

        ``rows``/``cols`` are int64, ``data`` float64, all equal-length
        1-D, de-duplicated, one entry per edge, sorted by ``(row, col)``.
        The backend may retain the arrays by reference or persist copies;
        callers must treat previously returned triples as stale after
        this call.
        """

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Backend identity and residency facts (for ``stats()``/logs)."""
        return {"backend": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} bound={self._bound}>"


def _as_columnar(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray
) -> Columnar:
    """Normalise a columnar triple to contiguous canonical dtypes."""
    return (
        np.ascontiguousarray(rows, dtype=np.int64),
        np.ascontiguousarray(cols, dtype=np.int64),
        np.ascontiguousarray(data, dtype=np.float64),
    )


def _empty_columnar() -> Columnar:
    """The columnar triple of a graph with no edges."""
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )
