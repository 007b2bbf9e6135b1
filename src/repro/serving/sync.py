"""Synchronisation primitives for the concurrent serving layer.

The serving front's concurrency model needs exactly one non-standard
primitive: a **readers/writer barrier** separating solves from
mutations.  Query execution — push, sharded solve, batch flush,
incremental correction — reads graph matrices and operator bundles
out of the graph cache that
:meth:`~repro.serving.RankingService.apply_delta` rewrites (the
delta-aware refresh swaps in patched entries and drops the rest).
Readers therefore share; the mutation door excludes.  ``threading`` offers no
reader/writer lock, so :class:`ReadWriteLock` implements the minimal
contract the service needs:

* **shared (read) side** — any number of concurrent holders; reentrant
  per thread, and a no-op for the thread currently holding the write
  side (so the mutation path can call back into read-guarded helpers,
  e.g. draining outstanding microbatches resolves tickets through the
  normal read-locked path);
* **exclusive (write) side** — waits for active readers to drain and
  blocks new ones while waiting (writer preference: a steady stream of
  cheap queries cannot starve a delta), reentrant per thread;
* **no upgrades** — acquiring write while holding only read raises
  instead of deadlocking two upgraders against each other.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.errors import ReproError

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Reader-shared / writer-exclusive lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0  # threads holding the read side (once each)
        self._writer: int | None = None  # ident of the active writer
        self._writer_depth = 0
        self._writers_waiting = 0
        self._local = threading.local()

    def _held_reads(self) -> int:
        return getattr(self._local, "reads", 0)

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or self._held_reads() > 0:
                # Reentrant read, or read inside our own write hold.
                self._local.reads = self._held_reads() + 1
                return
            while self._writer is not None or self._writers_waiting > 0:
                self._cond.wait()
            self._readers += 1
            self._local.reads = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            reads = self._held_reads()
            if reads <= 0:
                raise ReproError("release_read without a matching acquire")
            self._local.reads = reads - 1
            if self._writer == me:
                return  # nested inside our write hold: nothing counted
            if self._local.reads == 0:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._held_reads() > 0:
                raise ReproError(
                    "cannot upgrade a read hold to a write hold; release "
                    "the read side first"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers > 0:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me or self._writer_depth <= 0:
                raise ReproError("release_write without a matching acquire")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    # ------------------------------------------------------------------
    # context managers
    # ------------------------------------------------------------------
    @contextmanager
    def read(self):
        """``with lock.read():`` — hold the shared side for the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """``with lock.write():`` — hold the exclusive side for the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()
