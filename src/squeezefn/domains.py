"""Domains: punctured disks and polydisks, annuli and products of balls, the
guards on the numbers that describe them, and the JSON document schema used
by the CLI.

Infinite puncture sequences must come with a computable tail certificate: a
nondecreasing bound m(N) <= inf_{k > N} |a_k| with m(N) -> 1.  Built-in
parametric families carry closed-form certificates; explicit point lists may
declare a constant bound for everything beyond the listed prefix.  Without a
certificate an infinite infimum is not computable with a correctness
guarantee, so parsing rejects families whose bound fails to approach 1.

Generated tail punctures are exempt from the boundary-adjacency rejection
applied to user-supplied points: their moduli approach 1 by construction and
round to 1.0 in double precision beyond index ~54 for geometric families.

Two parts load only where a document needs them, so that a parse or an eval
compiles only its kind's code (without a bytecode cache every module is
compiled from source at each start): families, the parametric laws, for a
document with a "family" field, and block_domains, the removed-block
domains, for removed_polydisks and removed_balls.  serialize_domain_spec
has a module of its own (serialize).
"""

from __future__ import annotations

import cmath
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

# A family's first punctures, which construction checks for separation.
_FAMILY_DISTINCT_PREFIX = 64


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


def sup_distance(a, b) -> float:
    """max_j |a_j - b_j|: the differences and the order of generator form
    max(abs(x - y) for x, y in zip(a, b)), so bitwise the same float."""
    return max(map(abs, map(operator.sub, a, b)))


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
# guards on outside numbers
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
    """Whether a guard can compare ``value`` with a real number: a string,
    None, a list or a complex number cannot, and must meet the guard's
    DomainError, not a TypeError or a complex result.  numpy orders its
    complex scalars, and only np.complex128 subclasses complex: they are
    told from real numbers by the numbers ABCs, with which numpy registers
    every scalar type."""
    try:
        value < 0
    except TypeError:
        return False
    if type(value) in (float, int):
        return True
    import numbers  # loaded already wherever a numpy scalar exists

    return isinstance(value, numbers.Real) or not isinstance(value, numbers.Complex)


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


def _cartesian(moduli, y):
    """Real and imaginary parts of moduli * e^{iy}, as cmath.rect gives them
    (see the polar law in families)."""
    import numpy as np

    return moduli * np.cos(y), moduli * np.sin(y)


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
            from .families import _check_tail, _require_family  # loaded with the family

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
# closed-form domains
# ---------------------------------------------------------------------------


class Annulus(Record):
    """{z : r < |z| < 1} for 0 < r < 1."""

    inner_radius: float

    kind = "annulus"

    def __post_init__(self):
        _require_in_unit_interval("annulus: inner radius", self.inner_radius)


class ProductOfBalls(Record):
    """n-fold product of n-dimensional unit balls."""

    n: int

    kind = "product_of_balls"

    def __post_init__(self):
        _require_dimension("product_of_balls: n", self.n, 1)


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


def _dimension(doc: dict, kind: str) -> int:
    """The document's n, an integer, as the domain's constructor checks it
    against MAX_DIMENSION."""
    if "n" not in doc:
        raise DomainError(f"{kind}: missing 'n'")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{kind}.n: expected an integer, got {n!r}")
    return n


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


_SEQUENCE_DOMAINS = {cls.kind: cls for cls in (SequencePunctures, PolySequencePunctures)}
# the kinds whose classes are in block_domains
_BLOCK_KINDS = ("removed_polydisks", "removed_balls")


def parse_domain_spec(document):
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

    if kind in _BLOCK_KINDS:
        from .block_domains import _parse_block_domain  # loaded for these kinds alone

        return _parse_block_domain(doc, kind, {"n": _dimension(doc, kind)})

    if kind in _SEQUENCE_DOMAINS:
        cls = _SEQUENCE_DOMAINS[kind]
        dims = {} if cls is SequencePunctures else {"n": _dimension(doc, kind)}
        if "family" in doc:
            from .families import _parse_family  # loaded for a family document alone

            return cls(**dims, family=_parse_family(doc, kind, dims))
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
        return ProductOfBalls(_dimension(doc, kind))

    raise DomainError(f"unknown domain kind {kind!r}")
