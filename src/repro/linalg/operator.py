"""Cached solver-operator views of a transition matrix.

Every single-query solver needs the same derived objects of the transition
``P`` on every call: the CSR-converted transpose ``P.T`` (the matvec
operand), the CSC transpose view (linear-system solvers), the dangling-row
mask and the dangling redistribution target.  Before this module each
solver re-derived them per call — ``P.T.tocsr()`` alone costs hundreds of
milliseconds at 1M nodes / 20M edges, re-paid on *every* ``power_iteration``
call even though the transition itself was cached on the graph.

:class:`LinearOperatorBundle` memoises those views per transition matrix:

* views are built **lazily** on first use and cached on the bundle, so a
  solver that never touches a view never pays for it;
* :meth:`LinearOperatorBundle.of` attaches the bundle to the matrix object
  itself, so repeated solves against the *same* matrix object — exactly
  what the graph's mutation-counter matrix cache hands out — share one
  bundle with zero extra bookkeeping, and the bundle's lifetime is the
  matrix's lifetime (a graph mutation rebuilds the transition, which
  abandons the old bundle with it);
* graph-level callers go through
  :meth:`repro.methods.CentralityMethod.operator`, which caches the
  bundle as the matrix's one entry in the graph's mutation-aware cache.
  A graph delta drops that entry, and the method rebuilds the bundle
  from the graph's new adjacency and ``θ`` on the next read.

:class:`Factors` is the same transition before it is materialised,
``P = diag(r)·M·diag(c)`` over one cached adjacency bundle ``M`` (paper
Eq. 1).  The push and correction solvers read it directly;
:meth:`Factors.bundle` materialises it, and on a symmetric ``M`` the
transpose ``diag(c)·M·diag(r)`` shares ``M``'s index arrays too
(:func:`scaled_transition`).

Cached views are shared between callers and must be treated as read-only —
the same copy-before-mutate contract as the graph matrix cache
(``docs/performance.md``).
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.errors import ParameterError

__all__ = [
    "DANGLING_STRATEGIES",
    "Factors",
    "LinearOperatorBundle",
    "dangling_target",
    "patch_dangling",
    "scaled_transition",
]

DANGLING_STRATEGIES = ("teleport", "uniform", "self")

#: Attribute under which :meth:`LinearOperatorBundle.of` memoises the bundle
#: on the matrix object itself.
_BUNDLE_ATTR = "_repro_operator_bundle"

#: Entries kept in the per-bundle patched-matrix memo before the oldest is
#: evicted.  The patched matrix depends on ``(strategy, teleport)``, so the
#: memo is keyed by a digest of the teleport vector; the cap keeps callers
#: that sweep many distinct teleports from accumulating dense rows.
_PATCHED_CAP = 8


def dangling_target(
    strategy: str, teleport: np.ndarray, n: int
) -> np.ndarray | None:
    """Redistribution target for dangling-row mass, or ``None`` for "self".

    ``"teleport"`` returns the caller's (normalised) teleport vector,
    ``"uniform"`` an even spread, ``"self"`` keeps the mass in place (the
    solvers handle that in-loop).
    """
    if strategy == "teleport":
        return teleport
    if strategy == "uniform":
        return np.full(n, 1.0 / n)
    if strategy == "self":
        return None  # handled in-loop: mass stays put
    raise ParameterError(
        f"unknown dangling strategy {strategy!r}; "
        f"expected one of {DANGLING_STRATEGIES}"
    )


def patch_dangling(
    transition: sparse.spmatrix,
    teleport: np.ndarray | None = None,
    *,
    dangling: str = "teleport",
) -> sparse.csr_matrix:
    """Return ``P`` with dangling rows replaced by an explicit distribution.

    This densifies only the dangling rows, enabling solvers that need a
    fully stochastic matrix (Gauss–Seidel, direct solve).  Intended for the
    small graphs those solvers target.
    """
    mat = sparse.csr_matrix(transition, dtype=np.float64).copy()
    n = mat.shape[0]
    if teleport is None:
        teleport = np.full(n, 1.0 / n)
    else:
        teleport = np.asarray(teleport, dtype=np.float64)
        teleport = teleport / teleport.sum()
    dangle_mask = np.diff(mat.indptr) == 0
    if not dangle_mask.any():
        return mat
    target = dangling_target(dangling, teleport, n)
    rows = np.flatnonzero(dangle_mask)
    if target is None:  # "self"
        fix = sparse.csr_matrix(
            (np.ones(rows.size), (rows, rows)), shape=(n, n)
        )
    else:
        data = np.tile(target, rows.size)
        indices = np.tile(np.arange(n), rows.size)
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[rows + 1] = n
        indptr = np.cumsum(indptr)
        fix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    return sparse.csr_matrix(mat + fix)


def _digest(vec: np.ndarray) -> bytes:
    return hashlib.sha1(
        np.ascontiguousarray(vec, dtype=np.float64).tobytes()
    ).digest()


class LinearOperatorBundle:
    """Lazily memoised solver views of one row-stochastic transition ``P``.

    Built from (and permanently tied to) one transition matrix; all views
    are derived on first access and cached for the bundle's lifetime, so
    the bundle must only ever wrap matrices that are not mutated afterwards
    — which is the existing contract for everything the graph matrix cache
    hands out.

    Views
    -----
    ``mat``
        The canonical ``csr_matrix`` (float64) of the transition.
    ``t_csr``
        ``P.T`` converted to CSR — the operand of every power-iteration
        matvec.  This property is the *only* place in the library that
        performs the CSC→CSR transpose conversion.
    ``t_csc``
        ``P.T`` as the free CSC view (shares the CSR's buffers).
    ``dangle_mask`` / ``dangle_idx`` / ``has_dangling``
        Dangling-row (no out-edges) bookkeeping shared by every solver.
    """

    __slots__ = (
        "_mat",
        "_t_csr",
        "_t_build",
        "_symmetric",
        "_unit",
        "_dangle_mask",
        "_dangle_idx",
        "_uniform",
        "_patched",
        "_fingerprint",
    )

    def __init__(
        self,
        transition: sparse.spmatrix,
        *,
        symmetric: bool = False,
        transpose=None,
    ) -> None:
        if (
            sparse.issparse(transition)
            and transition.format == "csr"
            and transition.dtype == np.float64
        ):
            # Keep the caller's object: graph caches hand out canonical
            # CSR float64 matrices and the bundle must alias, not copy.
            mat = transition
        else:
            mat = sparse.csr_matrix(transition, dtype=np.float64)
        if mat.shape[0] != mat.shape[1]:
            raise ParameterError(
                f"transition must be square, got {mat.shape}"
            )
        if mat.shape[0] == 0:
            raise ParameterError("transition matrix must be non-empty")
        self._mat = mat
        # Fingerprint of the wrapped matrix: scipy's sparse setitem
        # replaces the index/data arrays, so a changed buffer identity
        # (or nnz) reveals structural in-place edits, and the value
        # checksum catches the sneakier failure of mutating `.data`
        # through the same buffer (same sparsity pattern) — which used
        # to serve a stale cached transpose.  `of` rebuilds on any
        # mismatch.  The checksum is O(nnz) in the sum plus a fixed-size
        # sampled digest, so compensating edits confined to unsampled
        # positions remain theoretically undetectable — the
        # wrap-only-immutable-matrices contract still stands; the
        # fingerprint is a guard rail, not a licence to mutate.
        self._fingerprint = self._fingerprint_of(mat)
        # A symmetric matrix is its own transpose; ``transpose`` is a
        # zero-argument builder of ``P.T`` in CSR form, called on first
        # use instead of the CSC→CSR conversion.
        self._symmetric = bool(symmetric)
        self._t_csr: sparse.csr_matrix | None = mat if symmetric else None
        self._t_build = transpose
        self._unit: bool | None = None
        self._dangle_mask: np.ndarray | None = None
        self._dangle_idx: np.ndarray | None = None
        self._uniform: np.ndarray | None = None
        # (strategy, teleport-digest) -> patched CSR / CSC pair, capped.
        self._patched: dict[tuple[str, bytes], tuple] = {}

    @staticmethod
    def _fingerprint_of(mat: sparse.csr_matrix) -> tuple:
        """Cheap identity + value checksum of a CSR matrix.

        Buffer identities and ``nnz`` detect structural edits; the exact
        data sum plus a SHA-1 of ≤ 65 strided samples detects in-place
        value mutation through the same buffers.
        """
        data = mat.data
        if data.size:
            stride = max(1, data.size // 64)
            sample = np.ascontiguousarray(data[::stride])
            value_sum = float(data.sum())
            digest = hashlib.sha1(sample.tobytes()).digest()
        else:
            value_sum = 0.0
            digest = b""
        return (id(data), id(mat.indices), mat.nnz, value_sum, digest)

    @classmethod
    def of(
        cls,
        transition: "sparse.spmatrix | LinearOperatorBundle",
        **views,
    ) -> "LinearOperatorBundle":
        """Return the memoised bundle of ``transition`` (building one once).

        The bundle is attached to the matrix object itself, so every call
        with the same object — e.g. a transition held in a graph's matrix
        cache — returns the same bundle, and the bundle dies with the
        matrix.  Matrices that reject attribute assignment simply get a
        fresh (uncached) bundle.  A fingerprint mismatch — structural
        setitem *or* in-place value mutation of ``.data`` (see
        :meth:`_fingerprint_of`) — rebuilds instead of serving stale
        derived views.  ``views`` (``symmetric=``, ``transpose=``) go to
        the constructor when a bundle is built.
        """
        if isinstance(transition, cls):
            return transition
        bundle = getattr(transition, _BUNDLE_ATTR, None)
        if (
            isinstance(bundle, cls)
            and bundle._fingerprint == cls._fingerprint_of(bundle._mat)
        ):
            return bundle
        bundle = cls(transition, **views)
        try:
            setattr(transition, _BUNDLE_ATTR, bundle)
        except AttributeError:  # pragma: no cover - exotic matrix types
            pass
        return bundle

    @classmethod
    def resolve(
        cls,
        transition: "sparse.spmatrix | None",
        operator: "LinearOperatorBundle | None",
    ) -> "LinearOperatorBundle":
        """Resolve a solver's ``(transition, operator)`` argument pair.

        The one shared entry point for every solver: with no ``operator``
        the memoised bundle of ``transition`` is used; with both given the
        shapes must agree — a mismatched pair means the caller wired up
        the wrong graph's cached bundle, and silently solving the wrong
        system is exactly the failure this check exists to turn into an
        exception.
        """
        if operator is None:
            if transition is None:
                raise ParameterError(
                    "either a transition matrix or an operator bundle "
                    "is required"
                )
            return cls.of(transition)
        if transition is not None and transition.shape != operator.shape:
            raise ParameterError(
                f"operator bundle shape {operator.shape} does not match "
                f"transition shape {transition.shape}"
            )
        return operator

    # ------------------------------------------------------------------
    # shape / matrix views
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes (rows/columns of the transition)."""
        return self._mat.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self._mat.shape

    @property
    def mat(self) -> sparse.csr_matrix:
        """The canonical float64 CSR of ``P`` (read-only by contract)."""
        return self._mat

    @property
    def symmetric(self) -> bool:
        """Whether the wrapped matrix was declared symmetric (``P.T = P``)."""
        return self._symmetric

    @property
    def unit(self) -> bool:
        """Whether every stored value is 1 (a 0/1 pattern); checked once."""
        if self._unit is None:
            self._unit = bool((self._mat.data == 1.0).all())
        return self._unit

    @property
    def t_csr(self) -> sparse.csr_matrix:
        """``P.T`` in CSR form — built once, reused by every solve."""
        if self._t_csr is None:
            if self._t_build is not None:
                self._t_csr = self._t_build()
            else:
                # The cached construction site: the one transpose
                # conversion the single-query pipeline performs per
                # matrix.
                self._t_csr = self._mat.T.tocsr()
        return self._t_csr

    @property
    def t_csc(self) -> sparse.csc_matrix:
        """``P.T`` as the free CSC view of the CSR buffers."""
        return self._mat.T

    # ------------------------------------------------------------------
    # dangling bookkeeping
    # ------------------------------------------------------------------
    @property
    def dangle_mask(self) -> np.ndarray:
        """Boolean mask of rows with no out-edges (read-only)."""
        if self._dangle_mask is None:
            mask = np.diff(self._mat.indptr) == 0
            mask.setflags(write=False)
            self._dangle_mask = mask
        return self._dangle_mask

    @property
    def dangle_idx(self) -> np.ndarray:
        """Indices of dangling rows (read-only)."""
        if self._dangle_idx is None:
            idx = np.flatnonzero(self.dangle_mask)
            idx.setflags(write=False)
            self._dangle_idx = idx
        return self._dangle_idx

    @property
    def has_dangling(self) -> bool:
        return self.dangle_idx.size > 0

    def dangling_target(
        self, strategy: str, teleport: np.ndarray
    ) -> np.ndarray | None:
        """Per-call dangling target; the uniform spread is cached."""
        if strategy == "uniform":
            if self._uniform is None:
                uniform = np.full(self.n, 1.0 / self.n)
                uniform.setflags(write=False)
                self._uniform = uniform
            return self._uniform
        return dangling_target(strategy, teleport, self.n)

    # ------------------------------------------------------------------
    # patched views (Gauss–Seidel / direct solve)
    # ------------------------------------------------------------------
    def _patched_pair(
        self, strategy: str, teleport: np.ndarray
    ) -> tuple[sparse.csr_matrix, sparse.csc_matrix | None]:
        # Only the "teleport" strategy's patched rows depend on the
        # teleport vector; "uniform" and "self" share one entry so that
        # teleport sweeps cannot thrash the cap.
        key = (
            strategy,
            _digest(teleport) if strategy == "teleport" else b"",
        )
        pair = self._patched.get(key)
        if pair is None:
            if len(self._patched) >= _PATCHED_CAP:
                self._patched.pop(next(iter(self._patched)))
            patched = patch_dangling(self._mat, teleport, dangling=strategy)
            pair = [patched, None]
            self._patched[key] = pair
        return pair

    def patched(
        self, strategy: str, teleport: np.ndarray
    ) -> sparse.csr_matrix:
        """``P`` with dangling rows densified (memoised per teleport)."""
        return self._patched_pair(strategy, teleport)[0]

    def patched_csc(
        self, strategy: str, teleport: np.ndarray
    ) -> sparse.csc_matrix:
        """CSC conversion of :meth:`patched` (memoised alongside it)."""
        pair = self._patched_pair(strategy, teleport)
        if pair[1] is None:
            pair[1] = pair[0].tocsc()
        return pair[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = [
            name
            for name, value in (
                ("t_csr", self._t_csr),
                ("dangle", self._dangle_mask),
            )
            if value is not None
        ]
        return (
            f"<LinearOperatorBundle n={self.n} nnz={self._mat.nnz} "
            f"built={built}>"
        )


def scaled_transition(
    adjacency: LinearOperatorBundle,
    row: np.ndarray,
    col: np.ndarray | None,
    *,
    transpose: bool = False,
) -> sparse.csr_matrix:
    """``diag(row)·M·diag(col)`` over ``M``'s own index arrays.

    ``M`` is the matrix of the ``adjacency`` bundle.
    ``col=None`` means unit column scales.  With ``transpose=True`` and a
    symmetric ``M`` the result is the transpose ``diag(col)·M·diag(row)``
    instead, each entry rounded exactly like its mirror in the plain
    call — ``(row_j·col_i)·M_ij`` — so it equals ``P.T.tocsr()`` array
    for array.  Either result shares ``M.indices``/``M.indptr`` and is
    read-only by contract.
    """
    mat = adjacency.mat
    lengths = np.diff(mat.indptr)
    # Products commute exactly, so M_ij·row_i·col_j is formed in the
    # cheapest order; a 0/1 pattern's factor 1 is skipped.
    if transpose:
        data = row.take(mat.indices)
        if col is not None:
            data *= np.repeat(col, lengths)
    else:
        data = np.repeat(row, lengths)
        if col is not None:
            data *= col.take(mat.indices)
    if not adjacency.unit:
        data *= mat.data
    out = sparse.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)
    out.has_canonical_format = True
    return out


class Factors(NamedTuple):
    """A transition as ``P = diag(row)·M·diag(col)``.

    ``pool`` is the key of the block the transition's columns solve in:
    keys with one pool share ``mat`` (``M``'s
    :class:`LinearOperatorBundle`) and may share one batched block.
    ``row``/``col`` are ``(n,)`` scale vectors, or, from
    :meth:`~repro.methods.base.CentralityMethod.pooled_factors`,
    ``(n, G)`` blocks with one column per key (an ``(n,)`` vector there
    is shared by every key); the unfactored form is the materialised
    bundle with ``row = col = None`` (unit scales, no scale passes), and
    ``col = None`` alone means unit column scales.  ``row`` is zero
    exactly on ``M``'s empty rows, so the dangling rows of ``P`` are
    those of ``M``.
    """

    pool: tuple | None
    mat: LinearOperatorBundle
    row: np.ndarray | None
    col: np.ndarray | None

    @classmethod
    def resolve(
        cls,
        transition: "sparse.spmatrix | None",
        operator: "Factors | LinearOperatorBundle | None",
    ) -> "Factors":
        """A solver's ``(transition, operator)`` pair as factors.

        ``operator`` may be factors or a bundle; a bundle or a bare
        matrix is the unfactored form.  Shapes are checked as in
        :meth:`LinearOperatorBundle.resolve`.
        """
        if isinstance(operator, cls):
            LinearOperatorBundle.resolve(transition, operator.mat)
            return operator
        bundle = LinearOperatorBundle.resolve(transition, operator)
        return cls(None, bundle, None, None)

    @property
    def n(self) -> int:
        return self.mat.n

    def bundle(self) -> LinearOperatorBundle:
        """The bundle of the materialised transition.

        The unfactored form is its own bundle.  A factored one is built
        here, uncached (the method layer caches it), and on a symmetric
        ``M`` its transpose is built from the factors too.
        """
        if self.row is None:
            return self.mat
        adjacency, row, col = self.mat, self.row, self.col
        transpose = None
        if adjacency.symmetric:
            def transpose() -> sparse.csr_matrix:
                return scaled_transition(adjacency, row, col, transpose=True)
        return LinearOperatorBundle.of(
            scaled_transition(adjacency, row, col), transpose=transpose
        )
