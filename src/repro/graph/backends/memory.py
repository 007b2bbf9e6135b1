"""The default in-RAM storage backend."""

from __future__ import annotations

import numpy as np

from repro.graph.backends.base import (
    CSRArrays,
    GraphBackend,
    _empty_csr,
    _read_only,
)

__all__ = ["InMemoryBackend"]


class InMemoryBackend(GraphBackend):
    """The CSR edge store held as plain numpy arrays in RAM.

    :meth:`set_csr` retains the arrays by reference and marks them
    read-only, so ``to_csr`` and a delta splice alias them without a
    copy.
    """

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._csr: CSRArrays = _empty_csr()

    @property
    def csr(self) -> CSRArrays:
        return self._csr

    def set_csr(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        self._csr = _read_only(indptr, indices, weights)

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "resident": "ram",
            "csr_bytes": int(sum(arr.nbytes for arr in self._csr)),
        }
