"""Closed-form invariant engine with certified truncation.

Infima over infinite puncture sequences are evaluated exactly: examination
stops at the first index N where the tail bound
(m(N) - |z|)/(1 - |z| m(N)) strictly exceeds the running minimum, or for a
listing's tail constant at least equals it (see _unstopped); the value is the
minimum over the examined prefix, independent of any larger truncation.
_scan evaluates one point from a starting bound, infinite for a value and
just below the claim for a certificate.  One scalar pass with no numpy
(_scalar_scan) takes a listing whole and a family's first _GRID_FIRST_CHUNK
punctures, within which a point away from the boundary mostly stops; a
family scan that goes on continues in numpy chunks (chunked.scan_chunks).

Three parts load on first use, so that a command compiles only the code it
runs (without a bytecode cache every module is compiled from source at each
start): chunked, the numpy chunk scan and the grid sweep (grid_cells);
blocks, the minimization over removed-block boundaries; and certificates,
lower_bound_certificate and the product-of-balls ratio check, which no
eval or compare runs.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import NamedTuple

from .domains import (
    Annulus,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    SequencePunctures,
)
from .hyperbolic import (
    INTERIOR_MARGIN,
    PointError,
    Record,
    _as_complex,
    _sequence,
    radial_separation_bound,
    require_interior_point,
    require_interior_polydisk_point,
    rho,
    rho_from,
)

# Evaluation aborts if an examined puncture is this close to the query point:
# the infimum over a valid boundary-convergent sequence is provably positive,
# so a near-zero distance signals an invalid query rather than a value of 0.
COLLISION_EPS = 1e-14

# Certification must fire long before this many punctures for any family whose
# tail bound approaches 1; the cap only guards float-degenerate inputs.
_SEQUENCE_CAP = 200_000

# The first chunk of punctures: a grid's, and the scalar head of a
# single-point family scan.
_GRID_FIRST_CHUNK = 8

# boundary minimization's default mesh tolerance, here for the CLI's parser
DEFAULT_MESH_TOL = 1e-6
# the rounding unit of the candidate window (chunked) and the circle floor (blocks)
_EPS = sys.float_info.epsilon


class CertificationError(RuntimeError):
    """An infimum could not be certified (uncovered tail or search cap)."""


class InvariantValue(Record):
    """An invariant value in (0, 1] plus certification metadata.

    truncation_index is the last puncture/block index examined (0 for exact
    finite evaluations); attained_index is the smallest index attaining the
    minimum; tail_bound_used is the modulus bound m(N) active when evaluation
    stopped (0 when no tail was involved); mesh_error is nonzero only for
    boundary-minimization results.
    """

    value: float
    truncation_index: int = 0
    tail_bound_used: float = 0.0
    mesh_error: float = 0.0
    attained_index: int = 0

    def __init__(self, value, truncation_index=0, tail_bound_used=0.0, mesh_error=0.0, attained_index=0):
        if not 0.0 < value <= 1.0:
            raise ValueError(f"invariant value {value!r} outside (0, 1]")
        if mesh_error < 0.0:
            raise ValueError(f"negative mesh error {mesh_error!r}")
        store = object.__setattr__
        store(self, "value", value)
        store(self, "truncation_index", truncation_index)
        store(self, "tail_bound_used", tail_bound_used)
        store(self, "mesh_error", mesh_error)
        store(self, "attained_index", attained_index)


# ---------------------------------------------------------------------------
# punctured disk
# ---------------------------------------------------------------------------


def squeezing_punctured_disk(domain, z: complex) -> InvariantValue:
    """Squeezing function of the disk minus punctures:
    inf over punctures a of |(a - z)/(1 - conj(z) a)|.

    For certified sequences the result is exact, with the stopping index and
    active tail bound recorded.
    """
    z = require_interior_point(z)
    if not isinstance(domain, (FinitePunctures, SequencePunctures)):
        raise DomainError(f"squeezing_punctured_disk does not apply to {type(domain).__name__}")
    return _sequence_min(domain, z, abs(z))


class _Scan(NamedTuple):
    examined: int              # punctures examined; the offending index if ``bad`` is set
    tail: float | None         # m(examined), if it covers the bound there
    best: float                # minimum of the scan's bound and the examined distances
    best_index: int            # smallest index attaining it, 0 for the bound
    bad: float | None = None   # distance of the first puncture below the floor


def _tail_stops(tails, anchor, bound):
    """The stop rule: every puncture (or block) beyond n is at distance
    > bound from a point of modulus at most anchor once m(n) > anchor and
    the separation bound of m(n) exceeds ``bound``.  Works on scalars and
    numpy arrays."""
    return (tails > anchor) & (radial_separation_bound(tails, anchor) > bound)


def _measure(domain, z):
    """k -> rho (rho_max for a polydisk point) from z to puncture(k) of a
    family domain: the scalar form of _distances, bitwise.  A polydisk
    family's punctures are 0j beyond coordinate 0, so rho_max is
    max(rho(z_0, a_0), max_j rho(z_j, 0j)), with the constant part taken
    once."""
    if not isinstance(z, tuple):
        dist = rho_from(z)
        return lambda k: dist(domain.puncture(k))
    dist, rest = rho_from(z[0]), max((rho(c, 0j) for c in z[1:]), default=0.0)
    return lambda k: max(dist(domain.puncture(k)[0]), rest)


def _scan(domain, z, anchor: float, floor: float, bound: float = math.inf) -> _Scan:
    """The certified-truncation loop of a sequence domain at one point.

    Stops at the first index n >= 0 whose tail bound m(n) covers the running
    minimum of ``bound`` and the first n distances (_tail_stops); ``bound``
    is infinite for a value and just below the claim for a certificate.  A
    distance below ``floor`` at or before that index ends the scan.  At the
    end of a listing, or at _SEQUENCE_CAP, the tail is None (see _unstopped).
    One scalar pass with no numpy (_scalar_scan) serves a listing whole and
    a family's head, its first _GRID_FIRST_CHUNK punctures, where a point
    away from the boundary mostly stops; numpy loads only if a family scan
    goes on past the head, in chunks (chunked.scan_chunks).
    """
    if domain.family is None:
        tails = itertools.chain(itertools.repeat(0.0, len(domain.prefix) - 1), (domain.tail_constant,))
        return _scalar_scan(map(rho_from(z), domain.prefix), anchor, floor, bound, tails)
    tail = domain.tail_lower_bound(0)
    if _tail_stops(tail, anchor, bound):
        return _Scan(0, tail, bound, 0)
    head = range(1, _GRID_FIRST_CHUNK + 1)
    measure = _measure(domain, z)
    scan = _scalar_scan(map(measure, head), anchor, floor, bound, map(domain.tail_lower_bound, head))
    if scan.tail is not None or scan.bad is not None:
        return scan
    from . import chunked

    return chunked.scan_chunks(domain, z, anchor, floor, scan, measure)


def _scalar_scan(dists, anchor: float, floor: float, bound: float, tails) -> _Scan:
    """_scan over the distances d_1, d_2, ... of points a_1, a_2, ... from z
    (rho_from for a listing, _measure for a family's head, the boundary
    minima of removed blocks) in one scalar pass with no numpy, testing the
    stop rule after d_n on ``tails``' m(n).  A listing's tails are 0.0
    (falsy, like None: no test) before its last point, then its tail
    constant, None when exact; the scan then ends unstopped at its length,
    as it does where ``dists`` ends (a block family's _SEQUENCE_CAP)."""
    best, best_index = bound, 0
    for k, d, tail in zip(itertools.count(1), dists, tails):
        if d < floor:
            return _Scan(k, None, best, best_index, d)
        if d < best:
            best, best_index = d, k
        if tail and _tail_stops(tail, anchor, best):
            return _Scan(k, tail, best, best_index)
    return _Scan(k, None, best, best_index)


def _sequence_min(domain, z, anchor: float) -> InvariantValue:
    """Certified infimum over a disk or polydisk sequence at z."""
    scan = _scan(domain, z, anchor, COLLISION_EPS)
    if scan.bad is not None:
        raise PointError(f"query point coincides with puncture {scan.examined} "
                         f"(distance {scan.bad:.3e} < {COLLISION_EPS:g})")
    index, tail = scan.examined, scan.tail
    if tail is None:
        index, tail, covered = _unstopped(domain, anchor, scan.best)
        if tail is None:
            raise CertificationError(f"tail bound failed to certify within {_SEQUENCE_CAP} punctures")
        if not covered:
            raise CertificationError(
                f"sequence exhausted without certification: tail constant {tail!r} "
                f"gives bound below the prefix minimum {scan.best!r} at this point")
    return InvariantValue(scan.best, truncation_index=index, tail_bound_used=tail,
                          attained_index=scan.best_index)


def _unstopped(domain, anchor, bound):
    """What a scan that ran to its end without stopping certifies, as
    (truncation index, tail bound, covered): at _SEQUENCE_CAP a family
    gives (_SEQUENCE_CAP, None, False); an exact listing, whose infimum runs
    over its points, (0, 0.0, True); a listing with tail constant m,
    (its length, m, whether m > anchor and the separation bound of m is at
    least ``bound``).  ``anchor`` and ``bound`` may be numpy arrays."""
    count = domain.known_count()
    if count is None:
        return _SEQUENCE_CAP, None, False
    m = domain.tail_lower_bound(count)
    if m is None:
        return 0, 0.0, True
    return count, m, (m > anchor) & (radial_separation_bound(m, anchor) >= bound)


def fridman_caratheodory_punctured_disk(domain, z: complex) -> InvariantValue:
    """Caratheodory Fridman invariant of the punctured disk.

    Coincides with the squeezing function on these domains; kept as a distinct
    entry point delegating to the same kernel.
    """
    return squeezing_punctured_disk(domain, z)


# ---------------------------------------------------------------------------
# punctured polydisk
# ---------------------------------------------------------------------------


def polydisk_squeezing_punctured(domain: PolySequencePunctures, z) -> InvariantValue:
    """Polydisk squeezing function of the polydisk minus punctures:
    inf over punctures a of max_j |(a_j - z_j)/(1 - conj(z_j) a_j)|.

    For n = 1 this collapses to the disk formula.
    """
    if not isinstance(domain, PolySequencePunctures):
        raise DomainError(f"polydisk_squeezing_punctured does not apply to {type(domain).__name__}")
    z = require_interior_polydisk_point(z, domain.n)
    return _sequence_min(domain, z, max(abs(c) for c in z))


# ---------------------------------------------------------------------------
# annulus and products of balls
# ---------------------------------------------------------------------------


def annulus_squeezing(domain: Annulus, z: complex) -> float:
    """Squeezing function of the annulus {r < |z| < 1}: max(|z|, r/|z|)."""
    if not isinstance(domain, Annulus):
        raise DomainError(f"annulus_squeezing does not apply to {type(domain).__name__}")
    z = require_interior_point(z)
    mod = abs(z)
    if mod <= domain.inner_radius:
        raise PointError(f"point with modulus {mod!r} is not in the annulus "
                         f"(inner radius {domain.inner_radius!r})")
    return max(mod, domain.inner_radius / mod)


def product_of_balls_squeezing(domain: ProductOfBalls, z=None) -> float:
    """Squeezing function of the n-fold product of n-balls: identically 1/sqrt(n)."""
    if not isinstance(domain, ProductOfBalls):
        raise DomainError(f"product_of_balls_squeezing does not apply to {type(domain).__name__}")
    if z is not None:
        _require_product_point(domain, z)
    return 1.0 / math.sqrt(domain.n)


def product_of_balls_T_lower_bound(domain: ProductOfBalls, z=None) -> float:
    """Lower bound 1/sqrt(n) on the polydisk squeezing function of the product
    of balls (the min over factors of the factor value); not the value itself.
    A point ``z``, if given, is checked as in product_of_balls_squeezing."""
    if not isinstance(domain, ProductOfBalls):
        raise DomainError(f"product_of_balls_T_lower_bound does not apply to {type(domain).__name__}")
    return product_of_balls_squeezing(domain, z)


def _require_product_point(domain: ProductOfBalls, z) -> None:
    n = domain.n
    factors = []
    for i, f in enumerate(_sequence(z, "product point", f"{n} factors")):
        what = f"product point factor {i}"
        factors.append([_as_complex(c, what) for c in _sequence(f, what, f"{n} numbers")])
    if len(factors) != n or any(len(f) != n for f in factors):
        raise PointError(f"product point must have {n} factors of {n} coordinates")
    for i, f in enumerate(factors):
        norm = math.sqrt(sum(abs(c) ** 2 for c in f))
        if not norm < 1.0 - INTERIOR_MARGIN:  # also NaN
            raise PointError(f"factor {i} has norm {norm!r}, not strictly inside the ball")
