"""The default in-RAM storage backend (pre-backend behaviour, extracted)."""

from __future__ import annotations

import numpy as np

from repro.graph.backends.base import (
    Columnar,
    GraphBackend,
    _as_columnar,
    _empty_columnar,
)

__all__ = ["InMemoryBackend"]


class InMemoryBackend(GraphBackend):
    """Columnar edge store held as plain numpy arrays in RAM.

    A pure extraction of the storage that used to live inline in
    ``BaseGraph``: :meth:`set_columnar` retains the (canonicalised)
    arrays by reference, so the zero-copy aliasing contracts of
    ``BaseGraph._canonical_edges`` and ``apply_delta`` are exactly what
    they were before the backend split.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._columnar: Columnar = _empty_columnar()

    @property
    def columnar(self) -> Columnar:
        return self._columnar

    def set_columnar(
        self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray
    ) -> None:
        self._columnar = _as_columnar(rows, cols, data)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "resident": "ram",
            "columnar_bytes": int(sum(arr.nbytes for arr in self._columnar)),
        }
