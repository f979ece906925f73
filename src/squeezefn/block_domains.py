"""Removed-block domains: the unit polydisk minus pairwise-disjoint closed
blocks, sup-norm polydisks (RemovedPolydisks) or Euclidean balls
(RemovedBalls), either listed or generated by a radial block family.

The module loads where a removed_polydisks or removed_balls document is
parsed, or where one of its names is first used, so that no other command
compiles it.  A block family's own module (families) loads only with it.
"""

from __future__ import annotations

import cmath
import math

from .domains import (
    DomainError,
    _as_number,
    _as_pair_list,
    _at_index,
    _first_close_pair,
    _index,
    _listed,
    _reject_unknown,
    _require_dimension,
    _require_finite,
    _shown,
    sup_distance,
)
from .hyperbolic import Record

_BLOCK_FAMILY_CHECK = 40


class Block(Record):
    """A removed closed polydisk or ball: center in the polydisk plus a radius."""

    center: tuple[complex, ...]
    radius: float

    def __init__(self, center, radius):
        center = _listed(center, "block: center")
        try:  # the parameters are named only for a message
            finite = all(map(cmath.isfinite, (radius, *center)))
        except (OverflowError, TypeError):
            finite = False
        if not finite:
            _require_finite("block", radius=radius, **{f"center[{j}]": c for j, c in enumerate(center)})
        if radius <= 0.0:
            raise DomainError(f"block radius must be positive, got {radius!r}")
        object.__setattr__(self, "center", tuple(map(complex, center)))
        object.__setattr__(self, "radius", radius)


def euclid_distance(a, b) -> float:
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


class _Blocks(Record):
    """What the removed-polydisk and removed-ball domains share: a subclass
    declares n, blocks and family, its ``geometry``, its document ``kind``
    and the ``metric`` of block distances.  Exactly one of ``family`` (a planar
    block law with a closed-form bound on the inner moduli of later blocks,
    padded to n coordinates here) and ``blocks`` (an explicit list of blocks strictly inside the polydisk)
    is used; block closures are pairwise disjoint in the metric."""

    def __post_init__(self):
        kind = self.kind
        _require_dimension(f"{kind}: dimension", self.n, 2)
        if self.family is not None and self.blocks:
            raise DomainError(f"{kind}: give either blocks or a family, not both")
        if self.family is None and not self.blocks:
            raise DomainError(f"{kind}: empty block list")
        if self.family is not None:
            # the law keeps every block inside; in floats 1 - (1 - r0) q^k rounds to 1
            from .families import _check_tail, _require_family  # loaded with the family

            _require_family(kind, self.family)
            object.__setattr__(self, "blocks", ())
            check = [self.block(k) for k in range(1, _BLOCK_FAMILY_CHECK + 1)]
            _check_tail(self.family.tail_inner_modulus, f"{kind}: block tail bound")
        else:
            object.__setattr__(self, "blocks", _listed(self.blocks, f"{kind}: blocks"))
            check = self.blocks
            for i, b in enumerate(self.blocks):
                if not isinstance(b, Block):
                    raise DomainError(f"{kind}: block {i} is not a Block, got {_shown(b)}")
                if len(b.center) != self.n:
                    raise DomainError(
                        f"{kind}: block {i} center has {len(b.center)} coordinates, expected {self.n}")
                reach = max(abs(c) for c in b.center) + b.radius
                if reach >= 1.0:
                    raise DomainError(
                        f"{kind}: block {i} is not strictly inside the polydisk "
                        f"(max |center_j| + radius = {reach!r})"
                    )
        # closures meet where the center distance is at most r_i + r_j <= 2 max r
        pair = _first_close_pair([b.center for b in check], 2.0 * max(b.radius for b in check),
                                 lambda i, j: self.metric(check[i].center, check[j].center)
                                 <= check[i].radius + check[j].radius)
        if pair is not None:
            raise DomainError(f"{kind}: blocks {pair[0]} and {pair[1]} have intersecting closures")

    def block(self, k: int) -> Block:
        if type(k) is not int or k < 1:
            k = _index("block index", k, 1)
        if self.family is not None:  # the family's point in coordinate 0
            center = (_at_index("block index", self.family.point, k),) + (0j,) * (self.n - 1)
            return Block(center, _at_index("block index", self.family.radius, k))
        if k <= len(self.blocks):
            return self.blocks[k - 1]
        raise DomainError(f"no block family attached: block {_shown(k)} is beyond the list")

    def known_count(self) -> int | None:
        return None if self.family is not None else len(self.blocks)

    def block_distance(self, z, block: Block) -> float:
        return self.metric(z, block.center)


class RemovedPolydisks(_Blocks):
    """Unit polydisk minus pairwise-disjoint closed sup-norm blocks."""

    n: int
    blocks: tuple[Block, ...] = ()
    family: RadialBlockFamily | None = None

    geometry = "polydisk"
    kind = "removed_polydisks"
    metric = staticmethod(sup_distance)


class RemovedBalls(_Blocks):
    """Unit polydisk minus pairwise-disjoint closed Euclidean balls."""

    n: int
    blocks: tuple[Block, ...] = ()
    family: RadialBlockFamily | None = None

    geometry = "ball"
    kind = "removed_balls"
    metric = staticmethod(euclid_distance)


def _parse_blocks(doc: dict, kind: str) -> tuple[Block, ...]:
    _reject_unknown(doc, {"n", "blocks"}, kind)
    if "blocks" not in doc or not isinstance(doc["blocks"], list) or not doc["blocks"]:
        raise DomainError(f"{kind}: missing or empty 'blocks'")
    blocks = []
    for i, b in enumerate(doc["blocks"]):
        if not isinstance(b, dict) or "center" not in b or "radius" not in b:
            raise DomainError(f"{kind}.blocks[{i}]: expected {{center, radius}}")
        extra = set(b) - {"center", "radius"}
        if extra:
            raise DomainError(f"{kind}.blocks[{i}]: unexpected fields {sorted(extra)!r}")
        blocks.append(Block(
            tuple(_as_pair_list(b["center"], f"blocks[{i}].center")),
            _as_number(b["radius"], f"blocks[{i}].radius"),
        ))
    return tuple(blocks)


def _parse_block_domain(doc: dict, kind: str, dims: dict):
    """The domain of a removed_polydisks or removed_balls document whose
    dimension parse_domain_spec has read into ``dims``."""
    cls = RemovedPolydisks if kind == RemovedPolydisks.kind else RemovedBalls
    if "family" in doc:
        from .families import _parse_family  # loaded for a family document alone

        return cls(**dims, family=_parse_family(doc, kind, dims))
    return cls(**dims, blocks=_parse_blocks(doc, kind))
