"""Centrality-method registry: one descriptor per measure.

Importing this package registers the built-in family — ``pagerank``,
``d2pr`` and ``fatigued`` (row-stochastic, L1 certificate, full solver
arsenal) plus ``katz``, ``eigenvector`` and ``hits`` (spectral power
methods on the adjacency bundle, eigen certificate).  Every layer that
needs method identity — engine group keys, planner validation, cache
digests, coalescer pooling, sharded-operator resolution — dispatches
through :func:`resolve` / :func:`operator_for` instead of branching on
method strings, and :func:`operator_for` / :func:`sharded_operator_for`
are the only builders of transition, bundle and sharded operators.
See ``docs/methods.md`` for the contract.
"""

from repro.methods.base import CERTIFICATES, CentralityMethod, MethodParams
from repro.methods.registry import (
    family_method,
    method_names,
    operator_for,
    register,
    resolve,
    sharded_operator_for,
)
from repro.methods.stochastic import (
    D2PRMethod,
    FatiguedMethod,
    PageRankMethod,
    fatigued_transition,
)
from repro.methods.spectral import (
    EigenvectorMethod,
    HitsMethod,
    KatzMethod,
    adjacency_bundle,
    spectral_radius,
)

__all__ = [
    "CERTIFICATES",
    "CentralityMethod",
    "D2PRMethod",
    "EigenvectorMethod",
    "FatiguedMethod",
    "HitsMethod",
    "KatzMethod",
    "MethodParams",
    "PageRankMethod",
    "adjacency_bundle",
    "family_method",
    "fatigued_transition",
    "method_names",
    "operator_for",
    "register",
    "resolve",
    "sharded_operator_for",
    "spectral_radius",
]
