"""Domain families: punctured disks and polydisks, removed blocks, annuli and
products of balls, plus the JSON document schema used by the CLI.

Infinite puncture sequences must come with a computable tail certificate: a
nondecreasing bound m(N) <= inf_{k > N} |a_k| with m(N) -> 1.  Built-in
parametric families carry closed-form certificates; explicit point lists may
declare a constant bound for everything beyond the listed prefix.  Without a
certificate an infinite infimum is not computable with a correctness
guarantee, so parsing rejects families whose bound fails to approach 1.

Generated tail punctures are exempt from the boundary-adjacency rejection
applied to user-supplied points: their moduli approach 1 by construction and
round to 1.0 in double precision beyond index ~54 for geometric families.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator

from .hyperbolic import PointError, Record, require_interior_point

# Parse-time separation floor: point lists (and spot-checked family prefixes)
# with a pair closer than this are rejected rather than silently accepted.
PAIR_SEPARATION = 1e-12

# Largest dimension ``n`` a domain document may declare.  Parsing builds
# points of n coordinates and a ball search grows with n, so an unbounded n
# would let a document ask for any amount of memory or time.
MAX_DIMENSION = 64

# Grid of indices on which family tail bounds are checked at construction.
_TAIL_CHECK_GRID = (0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)
_TAIL_LIMIT_INDEX = 1_000_000
_TAIL_LIMIT_FLOOR = 1.0 - 1e-6
_FAMILY_DISTINCT_PREFIX = 64
_BLOCK_FAMILY_CHECK = 40


class DomainError(ValueError):
    """A domain document violates the schema or a structural invariant."""


def _ingest_point(p, what: str) -> complex:
    try:
        return require_interior_point(p, what)
    except PointError as e:
        raise DomainError(str(e)) from e


def _listed(values, what: str) -> tuple:
    """tuple(values), or a DomainError naming ``what`` where values is not
    a list (a number, None)."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{what} must be a list, got {_shown(values)}") from None


def _check_point_list(points, what: str) -> tuple[complex, ...]:
    pts = tuple(_ingest_point(p, f"{what} entry") for p in _listed(points, what))
    if not pts:
        raise DomainError(f"{what}: empty point list")
    _require_separated(pts, f"{what}: entries")
    return pts


def _first_close_pair(points, reach: float, close) -> tuple[int, int] | None:
    """The first pair (i, j) in double-loop order with close(i, j), among
    points (complex numbers in the unit disk, or tuples of them) of which a
    close pair differs by at most ``reach`` in each real and imaginary part;
    None if no pair is close.

    Sorted by sum w_m y_m over their real and imaginary parts y_m, with
    w_m = 2 + sin(m), a close pair differs by at most sum(w) * reach, so only
    neighbours within sum(w) * (reach + PAIR_SEPARATION) are compared: the
    second term exceeds the rounding of two keys of up to 2 * MAX_DIMENSION
    parts.  The w_m are linearly independent over the rationals: no line of
    rational direction (a ray of punctures toward a boundary point) collapses
    into one window."""
    planar = not isinstance(points[0], tuple)
    parts = [(p.real, p.imag) if planar else [y for c in p for y in (c.real, c.imag)]
             for p in points]
    weights = [2.0 + math.sin(m) for m in range(1, len(parts[0]) + 1)]
    window = sum(weights) * (reach + PAIR_SEPARATION)
    keyed = sorted((sum(w * y for w, y in zip(weights, ys)), i) for i, ys in enumerate(parts))
    first = None
    for a, (key, i) in enumerate(keyed):
        b = a + 1
        while b < len(keyed) and keyed[b][0] - key < window:
            pair = tuple(sorted((i, keyed[b][1])))
            b += 1
            if (first is None or pair < first) and close(*pair):
                first = pair
    return first


def _require_separated(points, what: str, first: int = 0) -> None:
    """No two points closer than PAIR_SEPARATION (planar points by modulus,
    n-tuples in the sup norm); reports the first close pair (i, j) in
    double-loop order, numbered from ``first``."""
    dist = sup_distance if isinstance(points[0], tuple) else (lambda p, q: abs(p - q))
    pair = _first_close_pair(points, PAIR_SEPARATION,
                             lambda i, j: dist(points[i], points[j]) < PAIR_SEPARATION)
    if pair is not None:
        i, j = pair
        close = "identical" if dist(points[i], points[j]) == 0.0 else f"closer than {PAIR_SEPARATION:g}"
        raise DomainError(f"{what} {i + first} and {j + first} are {close}")


# ---------------------------------------------------------------------------
# sequence families
# ---------------------------------------------------------------------------


def _shown(value) -> str:
    """repr(value) for a message, except for an int beyond the float range,
    which is not printed: str() refuses ints of more than 4300 digits.  A
    tuple or list shows each item so; any other value that is not a number
    (a string, None, a dict) is shown by repr."""
    if type(value) in (tuple, list):  # not a subclass, whose repr may differ
        items = ", ".join(map(_shown, value))
        return f"({items}{',' * (len(value) == 1)})" if type(value) is tuple else f"[{items}]"
    try:
        cmath.isfinite(value)
    except OverflowError:
        return "an integer too large for a float"
    except TypeError:  # not a number
        pass
    return repr(value)


def _comparable(value) -> bool:
    """Whether a guard can compare ``value`` with a number: a string, None or
    a list cannot, and must meet the guard's DomainError, not a TypeError."""
    try:
        value < 0
    except TypeError:
        return False
    return True


def _require_finite(what: str, **params) -> None:
    for name, value in params.items():
        try:
            finite = cmath.isfinite(value)
        except (OverflowError, TypeError):  # an int beyond the float range, or not a number
            finite = False
        if not finite:
            raise DomainError(f"{what}: {name} must be finite, got {_shown(value)}")


def _index(what: str, k, least: int) -> int:
    """An index k >= least as operator.index converts it (an int, a bool or a
    numpy integer), and a DomainError for anything else: NaN, a value that is
    no number, or a number such as 1.5, which a family's law would take and a
    listing's tuple would refuse.  Callers skip the call for an int in range,
    which needs no check: type(k) is not int or k < least."""
    try:
        low = not k >= least  # also NaN
    except TypeError:  # not a number
        low = True
    if low:
        raise DomainError(f"{what} must be >= {least}, got {_shown(k)}")
    try:
        return operator.index(k)
    except TypeError:
        raise DomainError(f"{what} must be a whole number, got {_shown(k)}") from None


def _require_in_unit_interval(what: str, x) -> None:
    """0 < x < 1, refusing NaN and a value that is no number."""
    if not (_comparable(x) and 0.0 < x < 1.0):
        raise DomainError(f"{what} must be in (0, 1), got {_shown(x)}")


def _count(what: str, name: str, value, least: int, limit: int | None = None) -> int:
    """A count from ``least`` to ``limit`` (no limit where None) as an int: an
    int, a numpy integer or a whole float.  A fraction, NaN, an infinity or a
    value that is no number is a DomainError, as is a count out of range."""
    try:
        whole = value == math.floor(value)  # NaN, infinities and non-numbers raise
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError(f"{what} {name} must be a finite integer, got {_shown(value)}")
    if value < least:
        raise DomainError(f"{what} needs {name} >= {least}, got {_shown(value)}")
    if limit is not None and value > limit:  # not printed: it may have more digits than str() allows
        raise DomainError(f"{what} {name} above the limit {limit}")
    return int(value)


def _require_dimension(what: str, n, least: int) -> None:
    """n an int (not a bool) from least to MAX_DIMENSION."""
    if isinstance(n, bool) or not isinstance(n, int) or n < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {_shown(n)}")
    if n > MAX_DIMENSION:  # not printed: it may have more digits than str() allows
        raise DomainError(f"{what} above the limit {MAX_DIMENSION}")


def _at_index(what: str, law, k):
    """law(k) of a family, as a DomainError where k, k**p or theta * k leaves the float range."""
    try:
        return law(k)
    except (OverflowError, ValueError):
        raise DomainError(f"{what} overflows the family's float arithmetic, got {_shown(k)}") from None


# A generated family is a polar law, a_k = m(k) e^{i theta k}.  It writes its
# modulus law m(k) as modulus(k), for one index, and as moduli(k), over an
# ascending numpy array of indices (floats: math.pow takes them faster than
# ints); _PolarFamily derives the rest from it.  point(k) is
# cmath.rect(m(k), theta * k), and tail_modulus(n) = m(n + 1) bounds every
# later modulus.  A chunk takes the angles y = theta * k of a range
# (angles) and _cartesian(m, y) = (m cos y, m sin y): the products that
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


def _cartesian(moduli, y):
    """Real and imaginary parts of moduli * e^{iy}, as cmath.rect gives them."""
    import numpy as np

    return moduli * np.cos(y), moduli * np.sin(y)


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


# ---------------------------------------------------------------------------
# punctured disk / polydisk domains
# ---------------------------------------------------------------------------


class _Sequence(Record):
    """What the disk and polydisk sequence domains share: a subclass declares
    prefix, family and tail_constant, a dimension ``n``, its document
    ``kind``, how it reads its listed points (_read_points) and how it embeds
    a planar family's point (_embed_point; the identity here).
    FinitePunctures reads its own points and has no family or tail constant.

    Exactly one of the two descriptions is used:

    * ``family``: a named generator producing a_k for every k, with a
      closed-form tail bound;
    * ``prefix``: an explicit point list.  With ``tail_constant`` set, all
      unlisted punctures are asserted to have modulus >= that constant;
      without it the listing is exact and the infimum runs over the prefix.
    """

    def __post_init__(self):
        kind = self.kind
        if self.family is not None:
            if self.prefix:
                raise DomainError(f"{kind}: give either points or a family, not both")
            if self.tail_constant is not None:
                raise DomainError(f"{kind}: a family carries its own tail bound; "
                                  "tail_modulus_constant is not allowed")
            _require_family(kind, self.family)
            _check_tail(self.family.tail_modulus, "tail bound")
            prefix = [self.family.point(k) for k in range(1, _FAMILY_DISTINCT_PREFIX + 1)]
            _require_separated(prefix, "family points", first=1)
            return
        object.__setattr__(self, "prefix", self._read_points())
        if self.tail_constant is not None:
            _require_in_unit_interval(f"{kind}: tail_modulus_constant", self.tail_constant)

    def puncture(self, k: int):
        """k-th puncture (1-based); deterministic and bitwise reproducible."""
        if type(k) is not int or k < 1:
            k = _index("puncture index", k, 1)
        if self.family is not None:
            return self._embed_point(_at_index("puncture index", self.family.point, k))
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        raise DomainError(f"no generator attached: puncture {_shown(k)} is beyond the "
                          f"{len(self.prefix)}-point prefix")

    def known_count(self) -> int | None:
        """Number of inspectable punctures, or None for generated families."""
        return None if self.family is not None else len(self.prefix)

    def tail_lower_bound(self, examined: int) -> float | None:
        """m such that every puncture with index > examined has modulus >= m.

        Returns None ("exhausted") when nothing remains beyond the examined
        prefix of an explicitly listed sequence.
        """
        if type(examined) is not int or examined < 0:
            examined = _index("tail bound index", examined, 0)
        if self.family is not None:
            return _at_index("tail bound index", self.family.tail_modulus, examined)
        if examined < len(self.prefix):
            return 0.0
        return self.tail_constant  # None = exhausted: infimum is over the prefix

    def chunk(self, start: int, stop: int):
        """Real and imaginary parts of a_(start+1) .. a_stop and the tail bounds
        m(start+1) .. m(stop), as numpy arrays bitwise equal to puncture(k)
        and tail_lower_bound(n).  A listing needs stop <= its length; an
        exhausted listing's last bound is NaN, and polydisk points come as
        (n, stop - start) arrays.  A polydisk family's chunk is coordinate 0."""
        import numpy as np

        if self.family is None:
            points = np.array(self.prefix[start:stop], dtype=complex).T
            return points.real, points.imag, self.tails(start, stop)
        moduli = self.family.moduli(np.arange(start + 1, stop + 2, dtype=float))
        return (*_cartesian(moduli[:-1], self.family.angles(start, stop)), moduli[1:])

    def parts(self, index, y):
        """chunk()'s real and imaginary parts of a family's punctures at an
        ascending numpy array of indices (ints or floats), given their angles y."""
        return _cartesian(self.family.moduli(index), y)

    def tails(self, start: int, stop: int):
        """chunk()'s tail bounds m(start+1) .. m(stop)."""
        import numpy as np

        if self.family is not None:
            return self.family.moduli(np.arange(start + 2, stop + 2, dtype=float))
        tails = np.zeros(stop - start)
        if stop == len(self.prefix):
            tails[-1] = math.nan if self.tail_constant is None else self.tail_constant
        return tails

    def tail_index(self, level: float) -> int:
        """The family's tail_index (see RadialFamily.tail_index)."""
        return self.family.tail_index(level)

    _embed_point = staticmethod(lambda a: a)


class FinitePunctures(_Sequence):
    """Unit disk minus finitely many pairwise-distinct punctures: an exact
    listing of ``punctures``, with no family and no tail constant."""

    punctures: tuple[complex, ...]

    n = 1
    kind = "finite_punctures"
    family = tail_constant = None
    prefix = property(lambda self: self.punctures)

    def __init__(self, punctures):
        object.__setattr__(self, "punctures", _check_point_list(punctures, "punctures"))


class SequencePunctures(_Sequence):
    """Unit disk minus a puncture sequence converging to the boundary."""

    prefix: tuple[complex, ...] = ()
    family: RadialFamily | BoundaryOrbitFamily | None = None
    tail_constant: float | None = None

    n = 1
    kind = "sequence"

    def _read_points(self) -> tuple[complex, ...]:
        return _check_point_list(self.prefix, "sequence points")


class PolySequencePunctures(_Sequence):
    """Unit polydisk minus a puncture sequence; moduli are coordinate maxima."""

    n: int
    prefix: tuple[tuple[complex, ...], ...] = ()
    family: RadialFamily | None = None
    tail_constant: float | None = None

    kind = "poly_sequence"

    def __post_init__(self):
        _require_dimension("poly_sequence: dimension", self.n, 1)
        super().__post_init__()

    def _embed_point(self, a: complex) -> tuple[complex, ...]:
        """A family point as coordinate 0, with 0j in the others."""
        return (a,) + (0j,) * (self.n - 1)

    def _read_points(self) -> tuple[tuple[complex, ...], ...]:
        pts = []
        for i, p in enumerate(_listed(self.prefix, "poly_sequence points")):
            p = tuple(_ingest_point(c, f"poly point {i} coordinate") for c in _listed(p, f"poly point {i}"))
            if len(p) != self.n:
                raise DomainError(f"poly point {i} has {len(p)} coordinates, expected {self.n}")
            pts.append(p)
        if not pts:
            raise DomainError("poly_sequence: empty point list")
        _require_separated(pts, "poly points")
        return tuple(pts)


# ---------------------------------------------------------------------------
# removed blocks
# ---------------------------------------------------------------------------


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


def sup_distance(a, b) -> float:
    """max_j |a_j - b_j|: the differences and the order of generator form
    max(abs(x - y) for x, y in zip(a, b)), so bitwise the same float."""
    return max(map(abs, map(operator.sub, a, b)))


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


# ---------------------------------------------------------------------------
# closed-form domains
# ---------------------------------------------------------------------------


class Annulus(Record):
    """{z : r < |z| < 1} for 0 < r < 1."""

    inner_radius: float

    def __post_init__(self):
        _require_in_unit_interval("annulus: inner radius", self.inner_radius)


class ProductOfBalls(Record):
    """n-fold product of n-dimensional unit balls."""

    n: int

    def __post_init__(self):
        _require_dimension("product_of_balls: n", self.n, 1)


DomainSpec = (
    FinitePunctures
    | SequencePunctures
    | PolySequencePunctures
    | RemovedPolydisks
    | RemovedBalls
    | Annulus
    | ProductOfBalls
)


# ---------------------------------------------------------------------------
# document schema
# ---------------------------------------------------------------------------


def _as_number(x, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise DomainError(f"{what}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as e:  # a JSON integer beyond the float range
        raise DomainError(f"{what}: {e}") from e


def _as_dimension(x, what: str) -> int:
    """An integer, as the domain's constructor checks it against MAX_DIMENSION."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise DomainError(f"{what}: expected an integer, got {x!r}")
    return x


def _as_pair(x, what: str) -> complex:
    if not isinstance(x, list) or len(x) != 2:
        raise DomainError(f"{what}: expected [re, im], got {x!r}")
    return complex(_as_number(x[0], what), _as_number(x[1], what))


def _as_pair_list(x, what: str) -> list[complex]:
    if not isinstance(x, list) or not x:
        raise DomainError(f"{what}: expected a nonempty list of [re, im] pairs")
    return [_as_pair(p, f"{what}[{i}]") for i, p in enumerate(x)]


def _reject_unknown(doc: dict, allowed: set[str], kind: str) -> None:
    extra = set(doc) - allowed - {"kind"}
    if extra:
        raise DomainError(f"{kind}: unexpected fields {sorted(extra)!r}")


# (kind, family) -> (family class, its document parameters); every family is
# planar, and a dimensioned kind keeps its n to itself
_FAMILIES = {
    ("sequence", "radial"): (RadialFamily, ("q", "theta")),
    ("sequence", "boundary_orbit"): (BoundaryOrbitFamily, ("c", "p", "theta")),
    ("poly_sequence", "radial"): (RadialFamily, ("q", "theta")),
    ("removed_polydisks", "radial"): (RadialBlockFamily, ("q", "theta", "r0")),
    ("removed_balls", "radial"): (RadialBlockFamily, ("q", "theta", "r0")),
}
_FAMILY_DOMAINS = {cls.kind: cls for cls in (SequencePunctures, PolySequencePunctures,
                                             RemovedPolydisks, RemovedBalls)}


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


def parse_domain_spec(document) -> DomainSpec:
    """Parse and validate a domain document (JSON text or an equivalent dict)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except (ValueError, RecursionError) as e:  # also huge int literals, deep nesting
            raise DomainError(f"domain document is not valid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise DomainError(f"domain document must be an object, got {type(doc).__name__}")
    if "kind" not in doc:
        raise DomainError("domain document is missing the 'kind' field")
    kind = doc["kind"]
    if not isinstance(kind, str):
        raise DomainError(f"unknown domain kind {kind!r}")

    if kind == "finite_punctures":
        _reject_unknown(doc, {"points"}, kind)
        if "points" not in doc:
            raise DomainError("finite_punctures: missing 'points'")
        return FinitePunctures(tuple(_as_pair_list(doc["points"], "points")))

    if kind in _FAMILY_DOMAINS:
        cls = _FAMILY_DOMAINS[kind]
        dims = {}
        if cls is not SequencePunctures:
            if "n" not in doc:
                raise DomainError(f"{kind}: missing 'n'")
            dims["n"] = _as_dimension(doc["n"], f"{kind}.n")
        if "family" in doc:
            return cls(**dims, family=_parse_family(doc, kind, dims))
        if cls in (RemovedPolydisks, RemovedBalls):
            return cls(**dims, blocks=_parse_blocks(doc, kind))
        _reject_unknown(doc, {"points", "tail_modulus_constant", *dims}, kind)
        if "points" not in doc:
            raise DomainError(f"{kind}: need either 'points' or 'family'")
        pts = doc["points"]
        if not dims:
            prefix = tuple(_as_pair_list(pts, "points"))
        elif isinstance(pts, list) and pts:
            prefix = tuple(tuple(_as_pair_list(p, f"points[{i}]")) for i, p in enumerate(pts))
        else:
            raise DomainError(f"{kind}.points: expected a nonempty list")
        tail = doc.get("tail_modulus_constant")
        if tail is not None:
            tail = _as_number(tail, f"{kind}.tail_modulus_constant")
        return cls(**dims, prefix=prefix, tail_constant=tail)

    if kind == "annulus":
        _reject_unknown(doc, {"r"}, kind)
        if "r" not in doc:
            raise DomainError("annulus: missing 'r'")
        return Annulus(_as_number(doc["r"], "annulus.r"))

    if kind == "product_of_balls":
        _reject_unknown(doc, {"n"}, kind)
        if "n" not in doc:
            raise DomainError("product_of_balls: missing 'n'")
        return ProductOfBalls(_as_dimension(doc["n"], "product_of_balls.n"))

    raise DomainError(f"unknown domain kind {kind!r}")


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def serialize_domain_spec(domain: DomainSpec) -> dict:
    """Inverse of parse_domain_spec: parse(serialize(d)) == d for valid domains."""
    if isinstance(domain, FinitePunctures):
        return {"kind": "finite_punctures", "points": [_pair(p) for p in domain.punctures]}
    if isinstance(domain, Annulus):
        return {"kind": "annulus", "r": domain.inner_radius}
    if isinstance(domain, ProductOfBalls):
        return {"kind": "product_of_balls", "n": domain.n}
    if not isinstance(domain, tuple(_FAMILY_DOMAINS.values())):
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
