"""Parametric families: the polar laws a_k = m(k) e^{i k theta} that generate
the punctures of a sequence or poly_sequence domain and the blocks of a
removed-block domain, each with a closed-form tail certificate, and the
document names that the parser pairs with each domain kind.

The module loads where a domain is built from a family (a document with a
"family" field), so that a parse or an eval of a listed or closed-form
domain compiles none of it.  A family's tail bound is checked at
construction: without a bound that approaches 1 an infinite infimum is not
computable with a correctness guarantee.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .domains import (
    DomainError,
    _as_number,
    _comparable,
    _reject_unknown,
    _require_finite,
    _require_in_unit_interval,
    _shown,
)
from .hyperbolic import Record


# Grid of indices on which family tail bounds are checked at construction.
_TAIL_CHECK_GRID = (0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
_TAIL_LIMIT_INDEX = 1_000_000
_TAIL_LIMIT_FLOOR = 1.0 - 1e-6


# A generated family is a polar law, a_k = m(k) e^{i theta k}.  It writes its
# modulus law m(k) as modulus(k), for one index, and as moduli(k), over an
# ascending numpy array of indices (floats: math.pow takes them faster than
# ints); _PolarFamily derives the rest from it.  point(k) is
# cmath.rect(m(k), theta * k), and tail_modulus(n) = m(n + 1) bounds every
# later modulus.  A chunk takes the angles y = theta * k of a range
# (angles) and domains._cartesian(m, y) = (m cos y, m sin y): the products that
# cmath.rect forms from libm's cos and sin (at y = +-0 it returns (m, m y),
# the same floats).  So a chunk is bitwise point(k) and tail_modulus(n) where
# numpy's float64 cos and sin are libm's and a chunk's moduli take their
# powers from math.pow, the libm call of k**p and q**k (numpy's own power may
# differ in the last ulp); the rest is IEEE +, -, * and /.  A whole-number p
# whose powers stay below 2**53 takes k**p in int64: each is then a float
# exactly, and libm's pow, off by under one ulp, returns that float.  A numpy
# build or libm for which any of this fails fails tests/test_chunked.py.
#
# Every piece is elementwise, so a puncture has the same bits whichever
# indices are computed with it.  A family is a planar law: the polydisk domain
# puts its points in coordinate 0 and 0j in the others
# (PolySequencePunctures), and its chunks hold coordinate 0 alone.  The
# domain's chunk() composes the pieces over a whole index range, with one
# moduli call for the punctures and their tails.  The single-point scan
# (chunked.scan_chunks) takes the angles of a whole range, converts (parts) only
# the punctures whose angle lies in its candidate window around arg z, and
# computes tails only from the family's tail_index, below which no tail can
# stop it.  A listing's chunks serve the grid alone.


class _PolarFamily(Record):
    """a_k = modulus(k) e^{i k theta}; a subclass gives theta and the modulus
    law, as modulus(k) and over index arrays as moduli(k)."""

    def _require_angle(self, what: str) -> None:
        """theta * k must be finite for every generated index k <=
        _TAIL_LIMIT_INDEX (the engine stops far below it): numpy's cos and
        sin give NaN at an infinite angle, with a warning, and do not raise.
        theta is kept as a float, so that theta * k is the same product in
        point(k) and in angles (an int theta would make it exact)."""
        _require_finite(what, theta=self.theta)
        if not _comparable(self.theta):  # finite, but complex
            raise DomainError(f"{what}: theta must be a real number, got {_shown(self.theta)}")
        if not math.isfinite(float(self.theta) * _TAIL_LIMIT_INDEX):
            raise DomainError(f"{what}: theta * k overflows for indices up to "
                              f"{_TAIL_LIMIT_INDEX}, got theta={self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))

    def point(self, k: int) -> complex:
        return cmath.rect(self.modulus(k), self.theta * k)

    def tail_modulus(self, examined: int) -> float:
        return self.modulus(examined + 1)

    def angles(self, start: int, stop: int):
        """The angles theta * k of a_(start+1) .. a_stop."""
        import numpy as np

        return self.theta * np.arange(start + 1, stop + 1, dtype=float)


# Cap of the tail_index bounds: every index below it is a float exactly.
_INDEX_CAP = 2**53


def _log_gap(level: float) -> float:
    """a = -log(w), computed, where w = 1 - (level' + level)/2 and level' is
    the float below ``level``: a real number below 1 - w rounds to a float
    below ``level``.  For level <= 1, w >= 2**-54; its two subtractions, sum
    and log (within 1 ulp) put a within 8u (1 + a) of -ln w, u = 2**-53."""
    below = math.nextafter(level, -math.inf)
    return -math.log(((1.0 - below) + (1.0 - level)) * 0.5)


class RadialFamily(_PolarFamily):
    """a_k = (1 - q^k) e^{i k theta} with 0 < q < 1; tail bound m(N) = 1 - q^(N+1).
    Errors name the family as ``_what``."""

    q: float
    theta: float

    _what = "radial family"

    def __post_init__(self):
        _require_in_unit_interval(f"{self._what}: q", self.q)
        self._require_angle(self._what)

    def modulus(self, k: int) -> float:
        return 1.0 - self.q**k

    def moduli(self, k):
        import numpy as np

        return 1.0 - np.fromiter(map(math.pow, itertools.repeat(self.q), k.tolist()),
                                 float, k.size)  # q**k

    def tail_index(self, level: float) -> int:
        """A lower bound, at most 2**53, on the first n with tail_modulus(n) >=
        level, for level <= 1: every smaller n has tail_modulus(n) < level.
        The tails need not be monotone in floats; the bound holds index by index.

        With u = 2**-53, a = _log_gap(level) and w as there,
        A = -ln w >= a - 8u (1 + a).
        libm's pow is within 1 ulp, so P = pow(q, k) >= q^k (1 - 2u) while q^k
        is normal, and 1 - P < 1 - w, which rounds below level, once
        q^k (1 - 2u) > w, that is once k B < A + ln(1 - 2u), B = -ln q.  That
        holds for k B <= A - 4u.  The numerator a - 16u (1 + a), rounded, is
        at most A - 4u; with b = -log(q) within 1 ulp of B and the quotient's
        rounding, the quotient times (1 - 8u), rounded, is a K with K B below
        A - 4u when positive.  Every k = n + 1 <= K qualifies."""
        a = _log_gap(level)
        k = (a - 2.0**-49 * (1.0 + a)) / -math.log(self.q) * (1.0 - 2.0**-50)
        return min(int(max(k, 0.0)), _INDEX_CAP)


def _orbit_powers(k, p):
    """k**p over an ascending array of indices k, bitwise as math.pow gives
    it (see BoundaryOrbitFamily).  int(p) is raised only for a whole-number
    p, which the parse check bounds at about 51."""
    import numpy as np

    if p.is_integer() and int(k[-1]) ** int(p) < 2**53:
        return (k.astype(np.int64) ** int(p)).astype(float)
    return np.fromiter(map(math.pow, k.tolist(), itertools.repeat(p)), float, k.size)


class BoundaryOrbitFamily(_PolarFamily):
    """a_k = (1 - c / k^p) e^{i k theta} with 0 < c < 1, p > 0; m(N) = 1 - c/(N+1)^p.

    k^p must stay finite at the last index the parse check evaluates, so p is
    at most about 51.37.  p is kept as a float, so every k^p comes from libm's
    pow (an int p would make k**p an exact int), except where p is a whole
    number and a chunk keeps k^p below 2**53: there it takes exact int64
    powers, each a float, which libm's pow, off by under one ulp, returns
    too.  A libm for which it does not fails tests/test_chunked.py."""

    c: float
    p: float
    theta: float

    def __post_init__(self):
        _require_in_unit_interval("boundary_orbit family: c", self.c)
        if not _comparable(self.p) or self.p <= 0.0:
            raise DomainError(f"boundary_orbit family: p must be positive, got {_shown(self.p)}")
        _require_finite("boundary_orbit family", p=self.p)
        object.__setattr__(self, "p", float(self.p))
        try:  # tail_modulus(_TAIL_LIMIT_INDEX), which _check_tail evaluates
            math.pow(_TAIL_LIMIT_INDEX + 1, self.p)
        except OverflowError:
            raise DomainError(f"boundary_orbit family: k**p overflows at k = "
                              f"{_TAIL_LIMIT_INDEX + 1}, got p={self.p!r}") from None
        self._require_angle("boundary_orbit family")

    def modulus(self, k: int) -> float:
        return 1.0 - self.c / k**self.p

    def moduli(self, k):
        return 1.0 - self.c / _orbit_powers(k, self.p)

    def tail_index(self, level: float) -> int:
        """A lower bound, at most 2**53, on the first n with tail_modulus(n) >=
        level, for level <= 1: every smaller n has tail_modulus(n) < level.
        The tails need not be monotone in floats; the bound holds index by index.

        With a and w as in RadialFamily.tail_index and k = n + 1, libm's pow
        gives P = pow(k, p) <= k^p (1 + 2u).  Once c (1 - u)/(k^p (1 + 2u)) > w
        (>= 2**-54), c/P is normal, rounds to at least (c/P)(1 - u) > w, and
        1 minus it rounds below level.  That holds once ln k < D/p with
        D = ln c + A - 4u.  With lc = log(c) within 1 ulp, the rounded
        d = (lc + a) - 2**-48 (1 + a - lc) is at most D, as the margin exceeds
        the error of a, of lc and of the three roundings; d/p and exp (within
        1 ulp, its argument capped at 700) are each lowered by (1 - 8u), so
        every k <= K = exp(d/p) qualifies."""
        a, lc = _log_gap(level), math.log(self.c)
        d = (lc + a) - 2.0**-48 * (1.0 + a - lc)
        if not d > 0.0:
            return 0
        k = math.exp(min(d / self.p * (1.0 - 2.0**-50), 700.0)) * (1.0 - 2.0**-50)
        return min(int(k), _INDEX_CAP)


class RadialBlockFamily(RadialFamily):
    """The radial law with block radii r0 q^k, 0 < r0 < 1: block k is centered
    at ((1 - q^k) e^{i k theta}, 0, ..., 0), padded by the domain.

    tail_inner_modulus(N) bounds max_j |center_j| - radius from below over all
    blocks with index > N; containment in the polydisk holds for every k since
    max_j |center_j| + radius = 1 - (1 - r0) q^k < 1.
    """

    r0: float

    _what = "block family"

    def __post_init__(self):
        super().__post_init__()
        _require_in_unit_interval("block family: r0", self.r0)

    def radius(self, k: int) -> float:
        return self.r0 * self.q**k

    def tail_inner_modulus(self, examined: int) -> float:
        return max(0.0, 1.0 - (1.0 + self.r0) * self.q ** (examined + 1))


def _require_family(kind: str, family) -> None:
    """``family`` must be of a class the parser pairs with ``kind`` (_FAMILIES),
    compared exactly: a block family extends the radial law but is no
    sequence family."""
    if type(family) not in {cls for (k, _), (cls, _) in _FAMILIES.items() if k == kind}:
        raise DomainError(f"{kind}: {type(family).__name__} is not a {kind} family")


def _check_tail(bound, what: str) -> None:
    """A family's tail bound (tail_modulus or tail_inner_modulus) must be
    nondecreasing in [0, 1] on _TAIL_CHECK_GRID and exceed _TAIL_LIMIT_FLOOR
    at _TAIL_LIMIT_INDEX."""
    last = 0.0
    for n in _TAIL_CHECK_GRID:
        m = bound(n)
        if not last <= m <= 1.0:
            raise DomainError(f"{what} must be nondecreasing in [0, 1], got m({n}) = {m!r}")
        last = m
    m = bound(_TAIL_LIMIT_INDEX)
    if m <= _TAIL_LIMIT_FLOOR:
        raise DomainError(f"{what} does not converge to 1: "
                          f"m({_TAIL_LIMIT_INDEX}) = {m!r} <= {_TAIL_LIMIT_FLOOR}")


# (kind, family) -> (family class, its document parameters); every family is
# planar, and a dimensioned kind keeps its n to itself
_FAMILIES = {
    ("sequence", "radial"): (RadialFamily, ("q", "theta")),
    ("sequence", "boundary_orbit"): (BoundaryOrbitFamily, ("c", "p", "theta")),
    ("poly_sequence", "radial"): (RadialFamily, ("q", "theta")),
    ("removed_polydisks", "radial"): (RadialBlockFamily, ("q", "theta", "r0")),
    ("removed_balls", "radial"): (RadialBlockFamily, ("q", "theta", "r0")),
}


def _parse_family(doc: dict, kind: str, dims: dict):
    name = doc["family"]
    entry = _FAMILIES.get((kind, name)) if isinstance(name, str) else None
    if entry is None:
        known = sorted(family for k, family in _FAMILIES if k == kind)
        raise DomainError(f"{kind}: unknown family {name!r} (known: {known})")
    cls, params = entry
    missing = [p for p in params if p not in doc]
    if missing:
        raise DomainError(f"{kind}: family {name!r} needs parameters {missing!r}")
    _reject_unknown(doc, {"family", *dims, *params}, kind)
    return cls(**{p: _as_number(doc[p], f"{kind}.{p}") for p in params})
