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
family scan that goes on continues in numpy chunks bitwise equal to a
per-puncture loop, as grid_cells does for every domain of a grid.
_scan builds a family chunk angle first: it converts and measures only the
punctures whose angle lies in a candidate window around arg z, out of which
every puncture is provably farther than the window's level (_candidates),
and computes tails only from the family's certified tail_index of the
chunk's stop level (_tail_start), below which no tail can stop the scan.
Each batch goes the cheaper way for its size: at most _SCALAR_BATCH
candidates are measured by scalar puncture(k) and rho, and a tail pass over
at most _SCALAR_TAIL indices probes tail_lower_bound(n) one index at a time
(_first_stop); larger batches go through numpy.  Both give the same bits,
so the rule moves only the cost; each bound is the measured crossover of
its two ways.
A value's window is at the least distance of the few punctures nearest
arg z in angle, where that level lies below the running minimum and no
stop can fall before them, and otherwise, as for a certificate, at the
running minimum.  The window spans about 2(1 - |z|) radians near the
boundary and prunes nothing at z near 0 or at large angles.
Minima over removed-block boundaries reduce to circle minima, which are closed
forms with a rounding floor; ball blocks add a branch-and-bound over radius
profiles.  They carry a mesh error such that the true minimum lies in
[value - mesh_error, value].  A sequence of blocks stops in _scalar_scan,
the puncture scan, with each block's minimum as its distance.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import sys
from typing import NamedTuple

from .domains import (
    Annulus,
    Block,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    RemovedBalls,
    RemovedPolydisks,
    SequencePunctures,
    _comparable,
    _require_finite,
    _shown,
)
from .hyperbolic import (
    INTERIOR_MARGIN,
    PointError,
    Record,
    _as_complex,
    _kernel,
    _prepare,
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

# Most elements in one array of the batched kernels (punctures x cells), and
# the first chunk of punctures: a grid's, and the scalar head of a single-point
# family scan.  Grid chunks double up to GRID_BLOCK; a single point's numpy
# chunks are sized by the family's tail estimate.
GRID_BLOCK = 8192
_GRID_FIRST_CHUNK = 8

# Most punctures of a candidate set that a single-point family scan measures
# by scalar puncture(k) and rho rather than in numpy; both give the same bits,
# so the choice moves only the cost.  Measured in process (Python 3.11, numpy
# 2.4, 2-core Xeon), by least squares over sets of 1 to 64 punctures: numpy
# converts and measures a set in about 21 us plus 0.04-0.11 us a puncture,
# the scalar kernel in 0.75 us a puncture (1.0 us for a polydisk point of 3
# coordinates), so the two cross at 29-32 punctures for the disk families
# (24 for that polydisk).  The exact-square kernel moved both: numpy takes
# about 26-30 us a set and the scalar way 1.25 us a puncture (radial q=0.99
# and orbit p=1 at |z| = 0.99), so they cross at 22-24; the bound is kept,
# which costs at most about 10 us on a set of 24-32 punctures.
_SCALAR_BATCH = 32
# Most indices of a tail pass that the scan probes one at a time by scalar
# tail_lower_bound(n) rather than by one numpy tails() pass; both give the
# same bounds.  Measured in process on the same host (best of 300 calls), over
# passes of 1 to 64 indices on the radial q=0.99, orbit p=1 and p=2 and
# 3-coordinate polydisk families, with the stop at the first index, the last
# and none: a numpy pass takes 8-11 us up to 32 indices (13 us at 64)
# whatever its stop, a scalar one 0.3 us plus about 1.4 us an index it
# probes, up to its stop.  So a scalar pass that runs to its end costs no
# more than the numpy one up to 6 indices (8.4-8.8 us against 8.8-10.4) and
# more from 8 (10.9-11.6 against 8.8-10.3); one that stops at its first
# index takes 1.8 us at any length.
# Near the boundary a chunk's first pass ends just past the candidate that
# sets its lowest minimum, where the stop falls: in 1700 near-boundary values
# and certificates, each of the 1571 tail passes spanned 3 indices and
# stopped at its first.  Passes run long where a domain's tail_index is
# loose: with the families' tail_index halved less 50, a value at |z| = 0.999
# on boundary_orbit p=1 takes 0.40 ms, but 7.5 ms with every pass in scalar.
_SCALAR_TAIL = 6

DEFAULT_MESH_TOL = 1e-6
# Most radius profiles one ball block's branch-and-bound evaluates.
_BALL_EVALS_CAP = 150_000
_MESH_FLOOR = 1e-14
_EPS = sys.float_info.epsilon
# rounding floor of a closed-form circle minimum, times kappa (see _min_on_circle)
_CIRCLE_FLOOR = 64.0 * _EPS


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


class VerificationOutcome(Record):
    """Pass/fail result of a consistency check, with the computed values."""

    passed: bool
    observed: tuple[float, ...] = ()
    violating_index: int | None = None
    details: str = ""

    def __init__(self, passed, observed=(), violating_index=None, details=""):
        store = object.__setattr__
        store(self, "passed", passed)
        store(self, "observed", observed)
        store(self, "violating_index", violating_index)
        store(self, "details", details)


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


def _stop_level(anchor: float, bound: float) -> float:
    """The least float m that _tail_stops(m, anchor, bound) accepts; inf if
    none does (bound >= 1, as the separation bound of m <= 1 is at most 1).
    For m > anchor the test is radial_separation_bound(m, anchor) > bound,
    and it is monotone in m: as m grows, fl(m - anchor) does not decrease
    and fl(1 - anchor m) does not increase, so neither does their rounded
    quotient (rounding is monotone).  So stepping float by float from an
    estimate of the exact level finds it; m = 1 passes, as its separation
    bound is 1."""
    if not bound < 1.0:
        return math.inf
    least = math.nextafter(anchor, 2.0)
    m = min(max((bound + anchor) / (1.0 + bound * anchor), least), 1.0)
    if radial_separation_bound(m, anchor) > bound:
        while m > least and radial_separation_bound(
                below := math.nextafter(m, 0.0), anchor) > bound:
            m = below
        return m
    while not radial_separation_bound(m, anchor) > bound:
        m = math.nextafter(m, 2.0)
    return m


def _tail_start(domain, anchor: float, bound: float) -> int:
    """The domain's tail_index of the stop level of ``bound``: no tail below
    it stops a scan whose running minimum is at least ``bound``, since such
    a tail is below the level (sys.maxsize if no tail can stop it)."""
    level = _stop_level(anchor, bound)
    return domain.tail_index(level) if level <= 1.0 else sys.maxsize


def _next_stop(examined: int, reach: int) -> int:
    """End of the next numpy chunk of a family scan, the first one after the
    scalar head: ``reach`` (the _tail_start of the running minimum, a lower
    bound on the stop that is mostly within an index of it) plus 2, at least
    _GRID_FIRST_CHUNK and at most GRID_BLOCK punctures on, and at most
    _SEQUENCE_CAP.  It only sizes the chunk; the exact stop rule decides."""
    return min(_SEQUENCE_CAP, examined + GRID_BLOCK, max(reach + 2, examined + _GRID_FIRST_CHUNK))


def _distances(z, re, im):
    """rho (rho_max for a polydisk point) from z to each puncture of a planar
    family chunk, by the kernel's array form: bitwise the scalar rho of each
    puncture.  A polydisk family's punctures are 0j beyond coordinate 0, at
    distance rho(z_j, 0j) there, taken once."""
    import numpy as np

    z0, rest = (z[0], z[1:]) if isinstance(z, tuple) else (z, ())
    dist = _kernel(*_prepare(z0.real, z0.imag), *_prepare(re, im), np.sqrt)
    return np.maximum(dist, max(rho(c, 0j) for c in rest)) if rest else dist


def _spread(z, bound: float, y) -> float:
    """The half-width of the candidate window at a finite level ``bound``
    around arg z (coordinate 0 of a polydisk point; rho_max is at least the
    distance there) for a chunk of a family's punctures m e^{iy}: every
    puncture whose reduced angle (_offsets) exceeds it has a distance
    (_distances, _measure) > bound.  inf where every angle is a candidate.

    {w : rho(z, w) <= T} for T < 1 is the closed disk of centre
    P = z(1 - T^2)/(1 - T^2 |z|^2) and radius q = T(1 - |z|^2)/(1 - T^2 |z|^2)
    (Garnett, Bounded Analytic Functions, ch. 1).  If q < |P| its points lie
    within arcsin(q/|P|) of arg z, and q/|P| = T(1 - |z|^2)/(|z|(1 - T^2)).

    Rounding (Higham, Accuracy and Stability, ch. 2-3), as in _min_on_circle:
    u = eps/2, r = abs(z) within 2u of |z|, kappa = 1 - r, first order, each
    bound used at least twice what it needs.
    * Kernel: for |a| <= 1 + 16u, a distance (hyperbolic.rho_from, or its
      array form _kernel) is rho(z, a)(1 + d) with |d| <= 9u, whatever kappa.  A distance
      <= bound thus has rho <= bound/(1 - 9u) <= T = bound (1 + 64 eps/kappa):
      the margin is at least 128u, over 14 times what the kernel needs.
    * Conversion: with numpy's cos and sin within 4 ulps (libm's are within
      1), the float puncture lies within 13u < 8 eps of m e^{iy}, so m e^{iy}
      lies in the disk of radius q + 8 eps.  Its half-angle has sine at most
      (T(1 - r^2) + 8 eps)/(r(1 - T^2)), as 1 - T^2 |z|^2 <= 1, and that
      quotient is computed within 2u/kappa + 14u <= 16u/kappa, hence the
      factor 1 + 16 eps/kappa.  At a sine >= 1 (T >= 1, or z at or near 0)
      every angle is a candidate.
    * Reduction: x = t - n tau with t = y - atan2(z), tau = fl(2 pi) and
      n = rint(t / tau).  t is within u(|y| + pi) of y - arg z, atan2 within
      4u pi, n tau within u(|y| + 3 pi) of itself and |n| |tau - 2 pi| <=
      u(|y| + 2 pi) from n 2 pi; with the last subtraction, asin's ulp and the
      sum below, x lies within e = 4 eps (|y| + 12) of x* = y - arg z - 2 pi n,
      and |x| <= pi + 2e.  The window keeps |x| <= h = arcsin + e, used only
      for h < 1.  A puncture left out is more than h - e >= arcsin from
      arg z: by |x*| >= |x| - e > h - e if |x*| <= pi, and otherwise by
      2 pi - |x*| >= pi - 3e > h - e, as e < h < 1.  A wider spread, e.g. at
      theta = 1e302, makes every angle a candidate.  |y| is largest at an
      end of the chunk, as y = fl(theta k) is monotone in k.
    The half-width grows with ``bound``: t, and with it the sine's numerator,
    grows, and its denominator shrinks.
    The kernel and conversion margins are covered jointly, so no test tells
    either apart (their mutants survive): the quotient factor's slack, at
    least 8 eps/kappa on the sine, covers the kernel's 9u where the sine is
    below sin 1, and the reduction margin covers a float puncture's angle,
    within a few u of y.  Each margin stays, as the bound its step needs.
    """
    z0 = z[0] if isinstance(z, tuple) else z
    r = abs(z0)
    kappa = 1.0 - r
    t = bound * (1.0 + 64.0 * _EPS / kappa)
    sine = (t * (kappa * (1.0 + r)) + 8.0 * _EPS) * (1.0 + 16.0 * _EPS / kappa)
    below = r * ((1.0 - t) * (1.0 + t))
    if not sine < below:  # also T >= 1 and r = 0
        return math.inf
    spread = math.asin(sine / below) + 4.0 * _EPS * (max(abs(y[0]), abs(y[-1])) + 12.0)
    return spread if spread < 1.0 else math.inf


def _offsets(z, y):
    """|x| for the angles y: x is y - arg z reduced to about [-pi, pi], as
    _spread bounds it (arg z of coordinate 0 for a polydisk point)."""
    import numpy as np

    z0 = z[0] if isinstance(z, tuple) else z
    x = y - math.atan2(z0.imag, z0.real)
    x -= math.tau * np.rint(x * (1.0 / math.tau))
    return np.abs(x)


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


def _candidates(domain, z, anchor: float, floor: float, bound: float, examined: int, y, measure):
    """The candidates of a family chunk a_(examined+1) ... with angles y,
    given the running minimum ``bound`` before it: their indices, ascending
    floats (which math.pow takes fastest), and their _distances.  They are
    the punctures in the window of _spread at min(bound, d*), where d* is a
    measured distance from z to a puncture a_j of the chunk; every puncture
    left out is farther than that level.

    The seed: the _GRID_FIRST_CHUNK punctures of the window at ``bound``
    whose reduced angle is nearest arg z are measured by ``measure``, the
    scan's _measure (bitwise _distances, as puncture(k) is bitwise the
    chunk), and d* is the least of their distances, a_j the first puncture
    at it.  The window at d* keeps every puncture of the chunk at distance
    <= d*, a_j included.  So the running minimum over the candidates is
    exact at every n >= j, and at every n < j whose true running minimum is
    <= d*.  At an n < j with a true running minimum above d*, the
    candidates' one is at least as high, and a stop there would need
    m(n) >= _stop_level(anchor, d*), that is n >= _tail_start(d*): with
    _tail_start(d*) >= j there is no such n.  A floor hit (a distance below
    ``floor``) is kept, as floor <= d*.  So the stop, the floor test and the
    argmin are those of measuring every puncture, whether or not the
    domain's tails bound its moduli.

    The candidates are measured the cheaper way for their number: at most
    _SCALAR_BATCH by the scalar kernel, which reuses the seed's distances,
    more by one numpy conversion (parts and _distances), which costs about
    as much as _SCALAR_BATCH scalar ones; the two are bitwise equal.

    The window stays at ``bound`` where that check fails, where the window
    at ``bound`` keeps at most _GRID_FIRST_CHUNK punctures or every angle,
    and for a certificate: its running minimum stays just below its floor,
    the claim, so a seed at or above the floor cannot lower the window and
    one below it could leave out an earlier floor hit.
    """
    import numpy as np

    measured = {}
    spread = _spread(z, bound, y)
    if spread == math.inf and _spread(z, 0.0, y) == math.inf:  # z at or near 0, or huge angles
        kept = np.arange(y.size)
    else:
        x = _offsets(z, y)
        kept = np.flatnonzero(x <= spread)
        if kept.size > _GRID_FIRST_CHUNK and floor <= bound:
            near = kept[np.argpartition(x[kept], _GRID_FIRST_CHUNK)[:_GRID_FIRST_CHUNK]]
            measured = {k: measure(k) for k in (near + (examined + 1)).tolist()}
            seed, j = min((d, k) for k, d in measured.items())
            if floor <= seed < bound and _tail_start(domain, anchor, seed) >= j:
                kept = kept[x[kept] <= _spread(z, seed, y)]
    index = kept + (examined + 1.0)
    if kept.size > _SCALAR_BATCH:
        return index, _distances(z, *domain.parts(index, y[kept]))
    return index, np.array([measured[k] if k in measured else measure(k)
                            for k in (kept + (examined + 1)).tolist()])


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
    goes on past the head, in chunks sized by the running minimum (see
    _next_stop).

    A family chunk is built angle first.  The angles of the whole chunk give
    a candidate window around arg z (_candidates); only the candidates are
    converted and measured, and the running minimum, floor test and argmin
    run over them alone.  The window is at the running minimum before the
    chunk or, for a value, at a seed: the least distance d* of the few
    punctures whose angle is nearest arg z, where no stop can fall before
    that puncture (_tail_start(d*) >= its index).  Every other puncture is
    provably farther than that level, and d* is a window level only: the
    running minimum still starts from the minimum before the chunk, so the
    seed changes none of them.  Tails are computed only from _tail_start of
    the chunk's lowest running minimum: no tail before it can stop the scan.
    A small batch is measured in scalar: a candidate set of at most
    _SCALAR_BATCH punctures (_candidates), and a tail pass over at most
    _SCALAR_TAIL indices, probed one index at a time up to the stop
    (_first_stop); larger ones in numpy, bitwise the same.  So values,
    indices, tails and outcomes are those of measuring every puncture and
    every tail.  Near the boundary the window spans about 2(1 - |z|)
    radians, almost nothing is converted, and a chunk that cannot stop
    computes no tail.  The window prunes nothing at z near 0 and at angles
    too large to reduce.
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
    import numpy as np

    examined, _, best, best_index, _ = scan
    stop = _next_stop(examined, _tail_start(domain, anchor, best))
    while True:
        y = domain.family.angles(examined, stop)
        index, dist = _candidates(domain, z, anchor, floor, best, examined, y, measure)
        run = np.minimum.accumulate(np.concatenate(((best,), dist)))  # after 0, 1, ... candidates
        reach = _tail_start(domain, anchor, float(run[-1]))
        # tails from reach on: first up to just past the candidate that set the
        # lowest minimum, where the stop falls unless the tails dip, then the rest
        lowest = int(run.argmin())
        first = max(reach, examined + 1)
        split = min(stop, max(first, int(index[lowest - 1]) if lowest else 0) + 2)
        seen, tail = dist, None
        hit = (_first_stop(domain, anchor, index, run, first, split)
               or _first_stop(domain, anchor, index, run, split + 1, stop))
        if hit:
            n, m, before = hit
            seen, tail = dist[:before], (n, m)
        if seen.size:
            j = int((seen < floor).argmax())
            if seen[j] < floor:
                return _Scan(int(index[j]), None, best, best_index, float(seen[j]))
            j = int(seen.argmin())
            if seen[j] < best:
                best, best_index = float(seen[j]), int(index[j])
        if tail is not None:
            return _Scan(*tail, best, best_index)
        examined = stop
        if examined >= _SEQUENCE_CAP:
            return _Scan(examined, None, best, best_index)
        stop = _next_stop(examined, reach)


def _first_stop(domain, anchor: float, index, run, lo: int, hi: int):
    """The first n in lo .. hi at which the stop rule holds on m(n) and the
    running minimum over the candidates up to n (``index`` ascending, run[c]
    the minimum after c of them), as (n, m(n), c); None if there is none.
    A pass over at most _SCALAR_TAIL indices probes tail_lower_bound(n) one
    index at a time and ends at the stop; a longer one takes the domain's
    tails() in one numpy pass, bitwise the same bounds."""
    if hi - lo < _SCALAR_TAIL:
        for n in range(lo, hi + 1):
            before = bisect.bisect_right(index, n)  # candidates up to n
            m = domain.tail_lower_bound(n)
            if _tail_stops(m, anchor, run[before]):
                return n, m, before
        return None
    import numpy as np

    tails = domain.tails(lo - 1, hi)
    before = index.searchsorted(np.arange(lo, hi + 1), "right")  # candidates up to n
    stops = _tail_stops(tails, anchor, run[before])
    j = int(stops.argmax())
    return (lo + j, float(tails[j]), int(before[j])) if stops[j] else None


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


def grid_cells(domain, reals, imags):
    """Squeezing function at every cell complex(re, im), im outer and re inner:
    the batched form of squeezing_punctured_disk and annulus_squeezing.

    ``domain`` is a FinitePunctures, a SequencePunctures or an Annulus.
    Returns the values, truncation indices and certified flags as numpy
    arrays in row-major order.  A cell outside the domain or on a puncture
    has value NaN.  A cell whose tail is not certified, within _SEQUENCE_CAP
    punctures or by the tail constant of a listing, gets the minimum over the
    punctures it examined, their count and False.  Every value is bitwise
    equal to the scalar result: the distances are the kernel's array form
    (hyperbolic._kernel), with each cell's part of it computed once per
    sweep and each puncture's once per chunk.

    Prefix chunks double in size, so that cells which stop early do not pay
    for large chunks; a cell stops at the first index where the tail bound
    exceeds its running minimum, and only open cells go on to the next
    chunk.  Chunks are the outer loop and groups of open cells the inner
    one, so a call generates each chunk once, however many cells it has.
    A group's block of at most about GRID_BLOCK elements is laid out
    punctures x cells: its running minimum runs down the rows in place,
    from the cells' earlier minima folded into row 0.  The stop omits the
    test m > |z| of _tail_stops: where m <= |z|, fl(m - |z|) <= 0 and
    1 - |z| m > 0 (|z| < 1 - 1e-12, m <= 1), so the bound is <= 0 and
    exceeds no running minimum (a NaN tail fails both forms).  An open cell's
    minimum is at least COLLISION_EPS, so its running minimum at its last
    position is below COLLISION_EPS exactly when a puncture up to there is.
    The per-cell state (coordinates, running minima, results) scales with
    the number of cells.
    """
    import numpy as np

    zr = np.tile(np.array(reals, dtype=float), len(imags))
    zi = np.repeat(np.array(imags, dtype=float), len(reals))
    anchor = np.hypot(zr, zi)  # abs(complex(re, im))
    value = np.full(zr.shape, np.nan)
    index = np.zeros(zr.shape, dtype=np.int64)
    certified = np.ones(zr.shape, dtype=bool)
    inside = anchor < 1.0 - INTERIOR_MARGIN  # as require_interior_point
    if isinstance(domain, Annulus):
        r = domain.inner_radius
        cells = inside & (anchor > r)
        value[cells] = np.maximum(anchor[cells], r / anchor[cells])
        return value, index, certified

    limit = domain.known_count() or _SEQUENCE_CAP
    best = np.full(zr.shape, np.inf)
    cells = np.flatnonzero(inside)
    cr, ci, cp = (np.zeros(zr.shape) for _ in range(3))
    cr[cells], ci[cells], cp[cells] = _prepare(zr[cells], zi[cells])
    examined, width = 0, _GRID_FIRST_CHUNK
    while cells.size and examined < limit:
        stop = min(examined + width, limit)
        ar, ai, tails = domain.chunk(examined, stop)
        ar, ai, pa = _prepare(ar, ai)
        size = stop - examined
        group = max(1, GRID_BLOCK // size)
        still_open = []
        for first in range(0, cells.size, group):
            g = cells[first:first + group]
            run = _kernel(cr[g], ci[g], cp[g], ar[:, None], ai[:, None], pa[:, None], np.sqrt)
            np.minimum(run[0], best[g], out=run[0])
            np.minimum.accumulate(run, axis=0, out=run)
            stops = radial_separation_bound(tails[:, None], anchor[g]) > run
            cols = np.arange(g.size)
            last = stops.argmax(axis=0)
            stopped = stops[last, cols]
            last[~stopped] = size - 1  # each cell's last position
            best[g] = b = run[last, cols]
            collided = b < COLLISION_EPS
            done = stopped & ~collided
            value[g[done]] = b[done]
            index[g[done]] = examined + 1 + last[done]
            still_open.append(g[~(stopped | collided)])
        cells = np.concatenate(still_open)
        examined, width = stop, min(2 * width, GRID_BLOCK)

    # cells left open examined the whole listing or the capped prefix
    value[cells] = best[cells]
    index[cells], _, certified[cells] = _unstopped(domain, anchor[cells], best[cells])
    return value, index, certified


def fridman_caratheodory_punctured_disk(domain, z: complex) -> InvariantValue:
    """Caratheodory Fridman invariant of the punctured disk.

    Coincides with the squeezing function on these domains; kept as a distinct
    entry point delegating to the same kernel.
    """
    return squeezing_punctured_disk(domain, z)


def lower_bound_certificate(domain, z: complex, claimed: float) -> VerificationOutcome:
    """Check the explicit-embedding certificate for a claimed lower bound.

    The centering map f(w) = (w - z)/(1 - conj(z) w), coordinate by
    coordinate for a poly_sequence, embeds the domain in the disk or
    polydisk with f(z) = 0; the claim holds iff every puncture image has
    modulus (coordinate maximum) >= claimed and the tail certificate covers
    all unexamined punctures.  Failure is a result, not an error.
    """
    if isinstance(domain, PolySequencePunctures):
        z = require_interior_polydisk_point(z, domain.n)
        anchor = max(map(abs, z))
    elif isinstance(domain, (FinitePunctures, SequencePunctures)):
        z = require_interior_point(z)
        anchor = abs(z)
    else:
        raise DomainError(f"lower_bound_certificate does not apply to {type(domain).__name__}")
    if not (_comparable(claimed) and 0.0 < claimed < 1.0):
        raise DomainError(f"claimed bound must be in (0, 1), got {_shown(claimed)}")

    # the tail covers the claim when its separation bound is >= claimed, which
    # for floats is > the next float below it: the stop rule's strict test
    scan = _scan(domain, z, anchor, claimed, math.nextafter(claimed, -math.inf))
    if scan.bad is not None:
        return VerificationOutcome(False, observed=(scan.bad,), violating_index=scan.examined,
                                   details=f"puncture {scan.examined} image modulus "
                                           f"{scan.bad!r} < {claimed!r}")
    if scan.tail is not None:
        return VerificationOutcome(True, observed=(scan.tail,),
                                   details=f"examined {scan.examined} punctures; tail bound "
                                           f"m = {scan.tail!r} covers the rest")
    _, m, covered = _unstopped(domain, anchor, claimed)
    if covered:  # an exact listing: the stop rule already tried a tail constant
        return VerificationOutcome(True, observed=(claimed,), details=f"all "
                                   f"{domain.known_count()} punctures covered, no tail")
    if m is None:
        return VerificationOutcome(False, observed=(claimed,), violating_index=None,
                                   details=f"tail failed to cover within {_SEQUENCE_CAP} punctures")
    return VerificationOutcome(False, observed=(m,), violating_index=None,
                               details=f"tail constant {m!r} cannot cover the claim")


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
# removed blocks: certified boundary minimization
# ---------------------------------------------------------------------------


def _block_grad_bounds(z, block: Block) -> list[float]:
    """Per-coordinate gradient bounds of w -> rho(z_j, w) over the block.

    Points of the block satisfy |w_j| <= |c_j| + r, so
    (1 - |z_j|^2)/(1 - |z_j| (|c_j| + r))^2 bounds the gradient there; it
    refines the global 1/(1 - max_j |z_j|)^2 bound, which stays an upper
    bound of it.
    """
    out = []
    for zj, cj in zip(z, block.center):
        reach = min(abs(cj) + block.radius, 1.0)
        zm = abs(zj)
        out.append((1.0 - zm * zm) / (1.0 - zm * reach) ** 2)
    return out


def _min_on_circle(zc: complex, c: complex, s: float) -> tuple[float, float]:
    """Certified minimum of rho(zc, .) over the circle |w - c| = s, in closed form.

    T(w) = (w - zc)/(1 - conj(zc) w) maps the circle to a circle.  Mobius maps
    keep symmetric points symmetric (Ahlfors, Complex Analysis, 3.3), so the
    reflection q = c + s^2 zc/(1 - conj(c) zc) of the pole 1/conj(zc) in the
    circle goes to the image's centre C = T(q); zc = 0 gives q = c.  With
    R = |T(c + s) - C| the minimum of |T| on the circle is m = ||C| - R|.

    Rounding (Higham, Accuracy and Stability, ch. 2-3; u = eps/2): every point
    w used has |w| <= |c| + s, so |1 - conj(zc) w| >= kappa = 1 - |zc|(|c| + s),
    T is computed within 10u/kappa and amplifies an input error by at most
    |T'| <= (1 - |zc|^2)/kappa^2 <= 2/kappa.  q is within 11u (|q - c| <= s),
    so C is within 32u/kappa, T(c + s) within 12u/kappa, R within 48u/kappa
    and m within 86u/kappa = 43 eps/kappa to first order.  The floor f is
    _CIRCLE_FLOOR/kappa = 64 eps/kappa, at least _MESH_FLOOR, and the result
    (min(m + f, 1), 2 f): the exact minimum, below 1, lies in
    [value - error, value].

    The clamps are conditionals that select as max(f, _MESH_FLOOR) and
    min(m + f, 1.0) do: the builtins return their second argument only where
    it is strictly greater (less), so ties and NaN keep the first and the
    floats are bitwise theirs, without two calls.  For kappa in (0, 1] the
    floor is at least 64 eps > _MESH_FLOOR; its clamp acts only where kappa
    < 0, a circle beyond 1/|zc| that no block inside the polydisk reaches.
    """
    zb = zc.conjugate()
    q = c + s * s * zc / (1.0 - c.conjugate() * zc)
    centre = (q - zc) / (1.0 - zb * q)
    rim = c + s
    radius = abs((rim - zc) / (1.0 - zb * rim) - centre)
    kappa = 1.0 - abs(zc) * (abs(c) + s)
    floor = _CIRCLE_FLOOR / kappa
    if _MESH_FLOOR > floor:
        floor = _MESH_FLOOR
    value = abs(abs(centre) - radius) + floor
    return (1.0 if 1.0 < value else value), 2.0 * floor


def _polydisk_block_min(z, block: Block) -> tuple[float, float]:
    """Min of the coordinate-max kernel over the sup-norm block boundary.

    The boundary is the union of faces {|w_i - c_i| = r, |w_j - c_j| <= r};
    on each face the minimum of a coordinate-wise max over a product set is
    the max of per-coordinate minima: C_i on the circle, a closed form, and
    D_j on the disk, C_j where z_j lies outside it and 0 otherwise.  With D_k
    the first largest D and R the runner-up, face k is max(C_k, R) and the
    least other face max(min_{i != k} C_i, D_k), for which max(min C, D_k)
    may stand: where C_k alone is least it is no less than face k.  One pass
    over the coordinates takes both least faces.  The values v are positive,
    so C_i >= D_i and R <= D_k <= C_k: face k is C_k, and the least face is
    max(min C, max D), in which the 0 of a coordinate inside its disk never
    decides; the pass keeps the least v and the largest v outside.  The
    lower ends v - e may be negative; for them it keeps the first largest D,
    the C at it, the runner-up and the least C.  The tests `>` and `<` select
    the floats that max and min select, starting from -inf and +inf, which
    the finite C never are (kappa > 0 for a point and a block inside the
    polydisk), so the result is bitwise the O(n^2) minimum over the faces.
    The true minimum is in [value - error, value].
    """
    r = block.radius
    top = low_top = low_second = -math.inf
    least = low_least = math.inf
    for zj, cj in zip(z, block.center):
        v, e = _min_on_circle(zj, cj, r)
        low = v - e
        if v < least:
            least = v
        if low < low_least:
            low_least = low
        if abs(zj - cj) > r:
            d = low
            if v > top:
                top = v
        else:
            d = 0.0
        if d > low_top:
            low_top, low_second, low_at_top = d, low_top, low
        elif d > low_second:
            low_second = d
    best_v = max(least, top)
    return best_v, max(best_v - min(max(low_at_top, low_second), max(low_least, low_top)), _MESH_FLOOR)


def _sphere_profiles(t: tuple[float, ...], r: float) -> list[float]:
    # hyperspherical angles in [0, pi/2]^(n-1) -> radii profile (s_1..s_n), sum s^2 = r^2
    s = []
    prod = 1.0
    for ti in t:
        s.append(r * prod * math.cos(ti))
        prod *= math.sin(ti)
    s.append(r * prod)
    return s


def _ball_block_min(z, block: Block, tol: float) -> tuple[float, float]:
    """Min of the coordinate-max kernel over the Euclidean sphere boundary.

    For a fixed per-coordinate radius profile (s_1..s_n) with sum s_j^2 = r^2
    the coordinates range over independent circles, so the minimum is the max
    of per-coordinate circle minima (closed forms); the profile itself is
    searched by best-first branch-and-bound over hyperspherical angles with
    the Lipschitz bound |dG| <= grad_bound * r * sum |dt_i|.  Cost grows
    roughly like tol^(-1/2) around a smooth interior minimum.

    A profile's maxima of v and of v - e come from one pass over the
    coordinates that starts from the first coordinate's pair and replaces
    each only where the next is strictly greater, as max() selects, NaN
    included: bitwise max() over each, without the tuples and generators.
    """
    n = len(z)
    r, centre = block.radius, block.center
    lip_t = max(_block_grad_bounds(z, block)) * r

    def profile_min(t) -> tuple[float, float]:
        coords = zip(z, centre, _sphere_profiles(t, r))
        zj, cj, sj = next(coords)
        top, e = _min_on_circle(zj, cj, sj)
        low = top - e
        for zj, cj, sj in coords:
            v, e = _min_on_circle(zj, cj, sj)
            if v > top:
                top = v
            v -= e
            if v > low:
                low = v
        return top, low

    lo = (0.0,) * (n - 1)
    hi = (math.pi / 2.0,) * (n - 1)
    center = tuple((a + b) / 2.0 for a, b in zip(lo, hi))
    half_sum = sum((b - a) / 2.0 for a, b in zip(lo, hi))
    v, low = profile_min(center)
    best = v
    # corner profiles are frequent minimizers (extreme radius splits); probing
    # them only sharpens the upper value
    for corner in (lo, hi):
        best = min(best, profile_min(corner)[0])
    heap = [(low - lip_t * half_sum, 0, lo, hi)]
    counter = 1
    evals = 1
    while True:  # each pass pops one box and pushes two
        bound, _, lo, hi = heapq.heappop(heap)
        gap = best - bound
        if gap <= tol:
            return best, max(gap, _MESH_FLOOR)
        if evals >= _BALL_EVALS_CAP:
            raise CertificationError(
                f"boundary minimization failed to reach mesh tolerance {tol:g} "
                f"within {_BALL_EVALS_CAP} profile evaluations"
            )
        axis = max(range(len(lo)), key=lambda i: hi[i] - lo[i])
        mid = (lo[axis] + hi[axis]) / 2.0
        for child_lo, child_hi in (
            (lo, tuple(mid if i == axis else h for i, h in enumerate(hi))),
            (tuple(mid if i == axis else a for i, a in enumerate(lo)), hi),
        ):
            c = tuple((a + b) / 2.0 for a, b in zip(child_lo, child_hi))
            half = sum((b - a) / 2.0 for a, b in zip(child_lo, child_hi))
            v, low = profile_min(c)
            evals += 1
            best = min(best, v)
            heapq.heappush(heap, (low - lip_t * half, counter, child_lo, child_hi))
            counter += 1


def _require_outside_block(domain, z, block: Block, index: int) -> None:
    if domain.block_distance(z, block) <= block.radius:
        raise PointError(f"point lies in or on removed block {index}: not in the domain")


def polydisk_squeezing_removed_blocks(domain, z, mesh_tol: float = DEFAULT_MESH_TOL) -> InvariantValue:
    """Polydisk squeezing function of the polydisk minus closed blocks:
    inf over blocks of the boundary minimum of the coordinate-max kernel.

    Results carry mesh_error such that the true infimum lies within
    [value - mesh_error, value], and mesh_error is at most ``mesh_tol``:
    ball blocks refine until it holds, polydisk blocks are closed forms whose
    error is their rounding floor, and an error above the tolerance raises
    CertificationError.  Block sequences stop in the same scan as punctures
    (_scalar_scan), on a family's tail bound of the innermost block modulus.
    """
    if not isinstance(domain, (RemovedPolydisks, RemovedBalls)):
        raise DomainError(
            f"polydisk_squeezing_removed_blocks does not apply to {type(domain).__name__}")
    if not (_comparable(mesh_tol) and mesh_tol > 0.0):  # also NaN, which would never be reached
        raise DomainError(f"mesh tolerance must be positive, got {_shown(mesh_tol)}")
    z = require_interior_polydisk_point(z, domain.n)
    anchor = max(map(abs, z))
    block_min = (_polydisk_block_min if domain.geometry == "polydisk"
                 else lambda z, block: _ball_block_min(z, block, mesh_tol))

    family = domain.family
    if family is None:  # a point in block 3 exits before block 1's ball search could
        for k, block in enumerate(domain.blocks, 1):
            _require_outside_block(domain, z, block, k)
    lows = []
    tails = itertools.repeat(None) if family is None else map(family.tail_inner_modulus, itertools.count(1))
    scan = _scalar_scan(_block_minima(domain, z, block_min, lows), anchor, 0.0, math.inf, tails)
    if family is not None and scan.tail is None:
        raise CertificationError(f"block tail bound failed to certify within {_SEQUENCE_CAP} blocks")
    mesh_error = max(scan.best - min(lows), _MESH_FLOOR)
    if mesh_error > mesh_tol:
        raise CertificationError(
            f"boundary minimization reached mesh error {mesh_error!r}, above the "
            f"mesh tolerance {mesh_tol:g}")
    return InvariantValue(scan.best, truncation_index=0 if family is None else scan.examined,
                          tail_bound_used=scan.tail or 0.0, mesh_error=mesh_error,
                          attained_index=scan.best_index)


def _block_minima(domain, z, block_min, lows):
    """The boundary minimum v of each of a listing's blocks, or of a family's
    first _SEQUENCE_CAP, each checked outside as it is reached; v - e of each
    block read goes to ``lows``, whose least is the lower bracket."""
    for k, block in enumerate(domain.blocks or map(domain.block, range(1, _SEQUENCE_CAP + 1)), 1):
        if domain.family is not None:
            _require_outside_block(domain, z, block, k)
        v, e = block_min(z, block)
        lows.append(v - e)
        yield v


def removed_block_display_formula(domain, z) -> float:
    """Center-free closed form inf_k max_j |r_k - |z_j|| / (1 - |z_j| r_k).

    Ignores block centers, so it matches the rigorous boundary minimum only in
    special positions (origin-centered blocks whose rim terms dominate every
    coordinate); exposed for regression comparison against the boundary
    minimization, not as an evaluator.
    """
    if not isinstance(domain, (RemovedPolydisks, RemovedBalls)):
        raise DomainError(
            f"removed_block_display_formula does not apply to {type(domain).__name__}")
    if domain.family is not None:
        raise DomainError("display formula is not certified for block families; "
                          "use an explicit block list")
    z = require_interior_polydisk_point(z, domain.n)
    mods = [abs(c) for c in z]
    return min(max(abs((b.radius - m) / (1.0 - m * b.radius)) for m in mods)
               for b in domain.blocks)


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
    factors = [[_as_complex(c, f"product point factor {i}") for c in f] for i, f in enumerate(z)]
    if len(factors) != n or any(len(f) != n for f in factors):
        raise PointError(f"product point must have {n} factors of {n} coordinates")
    for i, f in enumerate(factors):
        norm = math.sqrt(sum(abs(c) ** 2 for c in f))
        if not norm < 1.0 - INTERIOR_MARGIN:  # also NaN
            raise PointError(f"factor {i} has norm {norm!r}, not strictly inside the ball")


def product_of_balls_ratio_contradiction(n: int) -> VerificationOutcome:
    """Show both fixed-ratio relations between the two squeezing functions of
    the product of balls are impossible for n > 1.

    If the ball-based value (1/sqrt(n)) were 1/n of the polydisk-based one,
    the latter would be sqrt(n) > 1; if the polydisk-based value were 1/n of
    the ball-based one it would be n^(-3/2), below its own lower bound
    1/sqrt(n).
    """
    if not _comparable(n) or n <= 1:
        raise DomainError(f"ratio contradiction check needs n > 1, got {_shown(n)}")
    _require_finite("ratio contradiction check", n=n)
    s = 1.0 / math.sqrt(n)
    forced_high = n * s        # sqrt(n), would have to be <= 1
    forced_low = s / n         # n^(-3/2), would have to be >= 1/sqrt(n)
    passed = forced_high > 1.0 and forced_low < s
    return VerificationOutcome(
        passed,
        observed=(forced_high, forced_low),
        details=(f"hypothetical values {forced_high!r} (> 1 required impossible) and "
                 f"{forced_low!r} (< lower bound {s!r})"),
    )
