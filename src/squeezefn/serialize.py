"""Domain documents from domains: the inverse of domains.parse_domain_spec.

No command writes a document, so the module loads on first use of
serialize_domain_spec, with every domain type and family it may meet.
"""

from __future__ import annotations

from .block_domains import RemovedBalls, RemovedPolydisks
from .domains import (
    Annulus,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    SequencePunctures,
)
from .families import _FAMILIES


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def serialize_domain_spec(domain) -> dict:
    """Inverse of parse_domain_spec: parse(serialize(d)) == d for valid domains."""
    if isinstance(domain, FinitePunctures):
        return {"kind": "finite_punctures", "points": [_pair(p) for p in domain.punctures]}
    if isinstance(domain, Annulus):
        return {"kind": "annulus", "r": domain.inner_radius}
    if isinstance(domain, ProductOfBalls):
        return {"kind": "product_of_balls", "n": domain.n}
    if not isinstance(domain, (SequencePunctures, PolySequencePunctures, RemovedPolydisks, RemovedBalls)):
        raise DomainError(f"cannot serialize {type(domain).__name__}")
    out = {"kind": domain.kind}
    if not isinstance(domain, SequencePunctures):
        out["n"] = domain.n
    if domain.family is not None:
        name, params = next((name, params) for (kind, name), (cls, params) in _FAMILIES.items()
                            if kind == domain.kind and cls is type(domain.family))
        return {**out, "family": name, **{p: getattr(domain.family, p) for p in params}}
    if isinstance(domain, (RemovedPolydisks, RemovedBalls)):
        return {**out, "blocks": [{"center": [_pair(c) for c in b.center], "radius": b.radius}
                                  for b in domain.blocks]}
    if isinstance(domain, SequencePunctures):
        out["points"] = [_pair(p) for p in domain.prefix]
    else:
        out["points"] = [[_pair(c) for c in p] for p in domain.prefix]
    if domain.tail_constant is not None:
        out["tail_modulus_constant"] = domain.tail_constant
    return out
