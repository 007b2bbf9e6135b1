"""Memory-mapped storage: the CSR edge store lives in ``.npy`` files.

The graph's ``(indptr, indices, weights)`` arrays are persisted to
``np.save`` files and mapped back with ``np.load(mmap_mode="r")``, so

* graphs larger than RAM page from disk on demand (the OS page cache
  keeps the hot range resident),
* a snapshot directory can be *attached* zero-copy — loading a 100M-edge
  snapshot costs three ``mmap(2)`` calls, not a read of the file bodies,
  and the mapped arrays are the adjacency ``to_csr`` wraps.

Every mutation that rewrites the store writes a fresh file generation
and unlinks the previous one; open views keep the unlinked inodes alive
(POSIX), so pre-mutation matrices handed to callers stay valid.  Files
live in a ``repro_mmap_*`` temp directory unless the caller supplies
one; ``tools/ci.sh`` fails on leaked directories.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np

from repro.graph.backends.base import (
    CSRArrays,
    GraphBackend,
    _empty_csr,
    _read_only,
)

__all__ = ["MMAP_DIR_PREFIX", "MmapBackend"]

#: Temp-directory prefix; mirrored by the leak check in tools/ci.sh.
MMAP_DIR_PREFIX = "repro_mmap_"

_STEMS = ("indptr", "indices", "weights")


def _cleanup(state: dict) -> None:
    """Best-effort removal of generation files (and an owned tempdir)."""
    for name in state["files"]:
        try:
            os.unlink(name)
        except OSError:
            pass
    state["files"].clear()
    owned = state.get("dir")
    if owned:
        shutil.rmtree(owned, ignore_errors=True)


class MmapBackend(GraphBackend):
    """The CSR edge store resident in memory-mapped ``.npy`` files.

    Parameters
    ----------
    directory:
        Where generation files are written.  ``None`` (default) creates a
        private ``repro_mmap_*`` temp directory that is removed when the
        backend is closed or garbage-collected; an explicit directory is
        created if missing and left in place on close (only the
        generation files themselves are deleted).
    """

    name = "mmap"

    def __init__(self, directory: str | Path | None = None) -> None:
        super().__init__()
        if directory is None:
            self.directory = Path(tempfile.mkdtemp(prefix=MMAP_DIR_PREFIX))
            owns_dir = True
        else:
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
            owns_dir = False
        self._generation = 0
        self._views: CSRArrays = _empty_csr()
        # Shared with the GC finalizer (which must not retain self).
        self._state: dict = {
            "files": [],
            "dir": str(self.directory) if owns_dir else None,
        }
        self._finalizer = weakref.finalize(self, _cleanup, self._state)

    # ------------------------------------------------------------------
    # the CSR store
    # ------------------------------------------------------------------
    @property
    def csr(self) -> CSRArrays:
        return self._views

    def set_csr(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        if indices.size == 0:
            # A zero-length mmap is not portable; a store without arcs
            # keeps its small indptr in RAM and needs no file at all.
            self._adopt(_read_only(indptr, indices, weights), ())
            return
        self._generation += 1
        paths: list[Path] = []
        views: list[np.ndarray] = []
        for stem, arr in zip(_STEMS, (indptr, indices, weights)):
            path = self.directory / (
                f"edges-{self._generation:08d}-{stem}.npy"
            )
            np.save(path, arr)
            views.append(np.load(path, mmap_mode="r"))
            paths.append(path)
        self._adopt(tuple(views), tuple(paths))

    def attach(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        """Adopt already-mapped arrays (e.g. snapshot files) zero-copy.

        The arrays are used as the CSR store without rewriting them;
        the backend does **not** own the underlying files, so a later
        mutation writes its own generation here and leaves the attached
        files untouched.  Used by
        :func:`repro.graph.persist.load_snapshot`.
        """
        self._adopt((indptr, indices, weights), ())

    def _adopt(
        self, views: CSRArrays, paths: tuple[Path, ...]
    ) -> None:
        stale = list(self._state["files"])
        self._state["files"][:] = [str(p) for p in paths]
        self._views = views
        for name in stale:
            try:
                os.unlink(name)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # lifecycle / diagnostics
    # ------------------------------------------------------------------
    def close(self) -> None:
        self._views = _empty_csr()
        self._finalizer()

    def describe(self) -> dict:
        return {
            "backend": self.name,
            "resident": "disk",
            "directory": str(self.directory),
            "files": list(self._state["files"]),
            "csr_bytes": int(sum(arr.nbytes for arr in self._views)),
        }
