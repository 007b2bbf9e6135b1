"""Name → :class:`CentralityMethod` table and group-key dispatch.

The registry is the single source of method identity for the whole
stack: the serving planner derives its ``METHODS`` tuple (and its
validation error messages) from :func:`method_names`, the engine and
coalescer resolve operator bundles for a transition-group key through
:func:`operator_for`, and the service resolves sharded operators
through :func:`sharded_operator_for`.  Group keys carry their family
tag as the leading element, so a key alone is enough to find the
descriptor that built it.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.methods.base import CERTIFICATES, CentralityMethod

__all__ = [
    "family_method",
    "method_names",
    "operator_for",
    "register",
    "resolve",
    "sharded_operator_for",
]

_REGISTRY: dict[str, CentralityMethod] = {}
#: family tag -> descriptor owning that family's operator construction
#: (first registered method of the family; ``pagerank`` and ``d2pr``
#: share the ``"d2pr"`` family and therefore the same operators).
_FAMILIES: dict[str, CentralityMethod] = {}


def register(method: CentralityMethod) -> CentralityMethod:
    """Add a descriptor to the registry (idempotent per name)."""
    if not method.name or not method.family:
        raise ParameterError(
            "a CentralityMethod must declare both a name and a family"
        )
    if method.certificate not in CERTIFICATES:
        raise ParameterError(
            f"unknown certificate {method.certificate!r}; "
            f"expected one of {CERTIFICATES}"
        )
    _REGISTRY[method.name] = method
    _FAMILIES.setdefault(method.family, method)
    return method


def method_names() -> tuple:
    """All registered method names, in registration order."""
    return tuple(_REGISTRY)


def resolve(name: str) -> CentralityMethod:
    """Look up a method by request name; raises with the full menu."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown method {name!r}; expected one of {method_names()}"
        ) from None


def family_method(family) -> CentralityMethod:
    """Descriptor owning a family tag (or a family-tagged group key)."""
    tag = family[0] if isinstance(family, tuple) else family
    try:
        return _FAMILIES[tag]
    except KeyError:
        raise ParameterError(
            f"unknown method family {tag!r}; "
            f"known families: {tuple(_FAMILIES)}"
        ) from None


def operator_for(graph, group_key: tuple, *, clamp_min=None):
    """Graph-cached operator bundle for a family-tagged group key."""
    return family_method(group_key).operator(
        graph, group_key, clamp_min=clamp_min
    )


def sharded_operator_for(
    graph,
    group_key: tuple,
    *,
    clamp_min=None,
    n_shards: int = 8,
):
    """Graph-cached sharded operator for a family-tagged group key."""
    return family_method(group_key).sharded_operator(
        graph, group_key, clamp_min=clamp_min, n_shards=n_shards
    )
