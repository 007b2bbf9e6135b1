"""Method descriptors: the identity of a centrality measure.

Every layer of the stack used to branch on a method *string* —
``RankRequest`` validation hard-coded ``("pagerank", "d2pr")``, the
coalescer called ``d2pr_operator`` directly, ``core/hits.py`` bypassed
the serving layer entirely.  A :class:`CentralityMethod` descriptor
replaces those branches with one object that owns, per method:

* the **parameter vocabulary** — which request fields the method
  interprets (``p``, ``alpha``, ``beta``, ``fatigue``, ``dangling``,
  seeds) and their validation; out-of-vocabulary fields must stay at
  their defaults, so a nonsensical request (seeds on eigenvector
  centrality, ``p`` on Katz) fails loudly instead of being silently
  ignored;
* the **transition-group key** — the tuple identifying the operator the
  method solves against.  The leading element is the method *family*
  tag, so requests of different families can never pool into one
  microbatch, while ``pagerank`` and ``d2pr`` (one family) keep sharing
  transitions, cache lines and warm starts exactly as before;
* **operator construction** against the graph's mutation-aware cache —
  the only place in the library that turns a group key into a matrix:
  :meth:`transition` builds the row-stochastic matrix, :meth:`operator`
  wraps it in the :class:`~repro.linalg.operator.LinearOperatorBundle`
  and :meth:`sharded_operator` block-partitions that bundle (spectral
  methods return their adjacency bundle from :meth:`operator` and run
  the direct power method in :meth:`solve`);
* the **convergence-certificate semantics**: ``"l1"`` — successive L1
  residual of a contraction at rate α (PageRank-shaped; the cache,
  push and incremental certificates all build on it) — or ``"eigen"``
  — the normalised eigen-residual ``‖Ax − λx‖₁ / λ`` of a power
  method on a non-stochastic operator;
* **capability flags** the planner and service consult instead of
  string checks: ``supports_push`` / ``supports_incremental`` /
  ``supports_sharding`` (pagerank-family strategies), ``batchable``
  (poolable through :func:`~repro.linalg.batch.power_iteration_batch`)
  and ``supports_seeds`` (personalisation).

``docs/methods.md`` documents the contract and how to add a method;
:mod:`repro.methods.registry` holds the name → descriptor table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, ReproError
from repro.linalg.operator import (
    DANGLING_STRATEGIES,
    Factors,
    LinearOperatorBundle,
)

__all__ = ["CERTIFICATES", "CentralityMethod", "Factors", "MethodParams"]

CERTIFICATES = ("l1", "eigen")

#: Neutral value of every vocabulary field — a method that does not
#: interpret a field requires it to sit exactly here.
_FIELD_DEFAULTS = {
    "p": 0.0,
    "alpha": 0.85,
    "beta": 0.0,
    "fatigue": 0.0,
    "dangling": "teleport",
}


@dataclass(frozen=True)
class MethodParams:
    """Normalised parameter view of one ranking request.

    The common currency between the request vocabularies of the engine
    (:class:`~repro.core.engine.RankQuery`) and the serving layer
    (:class:`~repro.serving.planner.RankRequest`): both flatten into
    this view before asking their method to validate or to build a
    group key, so parameter semantics can never diverge between layers.
    """

    p: float = 0.0
    alpha: float = 0.85
    beta: float = 0.0
    weighted: bool = False
    dangling: str = "teleport"
    fatigue: float = 0.0
    has_seeds: bool = False


class CentralityMethod:
    """One centrality measure: vocabulary, operators, certificate, flags.

    Subclasses override the class attributes below plus
    :meth:`group_key` and either :meth:`transition` (batchable methods;
    the bundle and the sharded operator come from this base class) or
    :meth:`operator` and :meth:`solve` (spectral methods).  Instances
    are stateless; one instance per method lives in the registry.
    """

    #: Registry name (``RankRequest.method`` / ``RankQuery.method``).
    name: str = ""
    #: Transition-family tag — the leading element of every group key.
    #: Methods sharing a family share operators, microbatch windows and
    #: cache digests (``pagerank`` and ``d2pr`` are one family).
    family: str = ""
    #: ``"l1"`` (successive L1 residual, contraction rate α) or
    #: ``"eigen"`` (normalised eigen-residual of a power method).
    certificate: str = "l1"
    #: Poolable through ``power_iteration_batch`` — i.e. the method's
    #: operator is row-stochastic and its fixed point is the standard
    #: ``x = α·Tᵀx + (1−α)·t`` teleport system.
    batchable: bool = True
    #: Eligible for the forward-push strategy (sparse seeds).
    supports_push: bool = False
    #: Cached answers survive localized deltas by residual correction;
    #: methods without it are evicted (and re-solved) instead.
    supports_incremental: bool = False
    #: Has a block-partitioned (sharded) operator construction.
    supports_sharding: bool = False
    #: Accepts a personalisation (seed) vector.
    supports_seeds: bool = True
    #: Request fields this method interprets; everything else must stay
    #: at its default (see ``_FIELD_DEFAULTS``).
    vocabulary: frozenset = frozenset()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self, params: MethodParams) -> None:
        """Raise :class:`ParameterError` on out-of-vocabulary settings."""
        if "alpha" in self.vocabulary and not 0.0 <= params.alpha < 1.0:
            raise ParameterError(
                f"alpha must be in [0, 1), got {params.alpha}"
            )
        if "p" in self.vocabulary and not np.isfinite(params.p):
            raise ParameterError(f"p must be finite, got {params.p}")
        if (
            "beta" in self.vocabulary
            and not params.weighted
            and params.beta != 0.0
        ):
            raise ParameterError(
                "beta is only meaningful for weighted graphs; "
                "pass weighted=True"
            )
        if (
            "dangling" in self.vocabulary
            and params.dangling not in DANGLING_STRATEGIES
        ):
            raise ParameterError(
                f"unknown dangling strategy {params.dangling!r}; "
                f"expected one of {DANGLING_STRATEGIES}"
            )
        if "fatigue" in self.vocabulary and not (
            np.isfinite(params.fatigue) and 0.0 <= params.fatigue < 1.0
        ):
            raise ParameterError(
                f"fatigue must be in [0, 1), got {params.fatigue}"
            )
        for field_name, default in _FIELD_DEFAULTS.items():
            if field_name in self.vocabulary:
                continue
            if getattr(params, field_name) != default:
                raise ParameterError(
                    f"method {self.name!r} does not take {field_name}; "
                    f"leave it at its default ({default!r})"
                )
        if params.has_seeds and not self.supports_seeds:
            raise ParameterError(
                f"method {self.name!r} is a global eigen measure and "
                "does not take seeds"
            )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def group_key(self, params: MethodParams) -> tuple:
        """The transition/operator identity: ``(family, *matrix params)``.

        The single construction site of group keys for this method —
        the engine's batching, the planner's canonical queries, the
        coalescer's group table and the service's bundle resolution all
        read it, so the key can never diverge between layers.
        """
        raise NotImplementedError  # pragma: no cover - abstract

    def digest_params(self, params: MethodParams) -> tuple:
        """Per-answer parameters beyond the group key (cache digests).

        Only in-vocabulary fields enter the digest, so two requests
        differing in a field the method ignores hash (and cache) equal.
        """
        return (float(params.alpha),) if "alpha" in self.vocabulary else ()

    def sort_key(self, group_key: tuple) -> tuple:
        """Warm-start processing order of this method's group keys.

        Consecutive groups are solved in this order by
        :func:`~repro.core.engine.solve_many`; keys adjacent under it
        should name *similar* transitions (e.g. neighbouring points of
        a ``p`` grid) so the later group's solve can warm-start from
        the earlier group's solutions.
        """
        return group_key

    # ------------------------------------------------------------------
    # operators / solving
    # ------------------------------------------------------------------
    def matrix_key(self, group_key: tuple) -> tuple:
        """Graph-cache identity of the matrix ``group_key`` solves on.

        The group key itself.  Methods whose group keys end in per-solve
        fields drop them here, so every solve over one matrix shares one
        bundle and one sharded operator.
        """
        return group_key

    def reversible(self, graph, group_key: tuple) -> bool:
        """Whether ``group_key``'s transition on ``graph`` is reversible.

        A reversible chain (``π_i·P_ij = π_j·P_ji``) has a real spectrum,
        which lets :func:`~repro.linalg.batch.power_iteration_batch` run a
        Chebyshev semi-iteration (its ``reversible=`` argument).  The
        default is ``False``: spectral methods never take that path.
        """
        return False

    def pool_key(self, group_key: tuple) -> tuple:
        """The block ``group_key``'s batched columns may join.

        Keys with one pool key solve in one block when their
        :meth:`factors` agree on the pool.  It ends in the per-solve
        dangling strategy, like the group key.  Default: the group key,
        a block per transition.
        """
        return group_key

    def factors(self, graph, group_key: tuple) -> Factors:
        """``group_key``'s transition on ``graph`` as pooled factors.

        Default: the materialised :meth:`operator` bundle under its own
        group key, with unit scales.
        """
        return Factors(group_key, self.operator(graph, group_key), None, None)

    def pooled_factors(
        self, graph, group_keys: list[tuple]
    ) -> list[tuple[list[tuple], Factors]]:
        """:meth:`factors` of several keys at once, one entry per block.

        Returns ``[(keys, Factors)]``, one entry per pool: the keys of
        one block and their factors, whose ``row``/``col`` hold one
        column per key in ``keys`` order (or one ``(n,)`` vector shared
        by all of them).  ``group_keys`` may mix the methods of one pool
        (a fatigued key in a d2pr grid); the method of any of them
        resolves all.  Default: every key on its own, as :meth:`factors`
        gives it.
        """
        return [([key], self.factors(graph, key)) for key in group_keys]

    def transition(self, graph, group_key: tuple):
        """Build the row-stochastic transition for ``group_key``.

        Uncached: :meth:`build_operator` wraps it, and the bundle
        :meth:`operator` caches is the matrix's one graph-cache entry.
        """
        raise ReproError(  # pragma: no cover - guarded by capability flags
            f"method {self.name!r} has no stochastic transition; "
            "it solves through CentralityMethod.solve"
        )

    def operator(self, graph, group_key: tuple):
        """Graph-cached :class:`LinearOperatorBundle` for ``group_key``.

        Wraps :meth:`transition`, memoised under
        ``("operator", *matrix_key)`` so every solve strategy of every
        layer shares one matrix, one transpose and one set of dangling
        views.  This entry is the matrix's only one in the graph cache.
        """
        return graph.cached(
            ("operator", *self.matrix_key(group_key)),
            lambda: self.build_operator(graph, group_key),
        )

    def build_operator(self, graph, group_key: tuple):
        """Uncached :meth:`operator`: the bundle of :meth:`transition`."""
        return LinearOperatorBundle.of(self.transition(graph, group_key))

    def sharded_operator(self, graph, group_key: tuple, *, n_shards: int = 8):
        """Graph-cached block-partitioned operator (sharding methods).

        A :class:`~repro.shard.operator.ShardedOperator` over
        :meth:`operator` with ``n_shards`` blocked shards, memoised per
        graph version so repeated sharded solves share one set of
        diagonal / coupling blocks.  It builds at any size: whether to
        shard is the caller's decision.
        """
        if not self.supports_sharding:
            raise ReproError(
                f"method {self.name!r} does not support sharding"
            )
        from repro.shard.operator import ShardedOperator

        def build():
            bundle = self.operator(graph, group_key)
            return ShardedOperator(bundle, n_shards=n_shards)

        return graph.cached(
            (
                "sharded_operator",
                *self.matrix_key(group_key),
                int(n_shards),
            ),
            build,
        )

    def solve(
        self,
        graph,
        group_key: tuple,
        *,
        alpha: float = 0.85,
        teleport: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iter: int = 1000,
    ):
        """Direct solve for non-batchable (spectral) methods.

        Returns a :class:`~repro.linalg.solvers.PageRankResult` whose
        residual history carries this method's certificate semantics;
        an exhausted budget is reported as ``converged=False``.
        """
        raise ReproError(  # pragma: no cover - guarded by capability flags
            f"method {self.name!r} solves through its operator bundle; "
            "use the engine/serving paths"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<CentralityMethod {self.name!r} family={self.family!r}>"
