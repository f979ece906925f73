"""The numpy half of the certified-truncation scan: a family scan past its
scalar head, and the grid sweep.

A family scan that goes on past the scalar head of invariants._scan
continues here in numpy chunks bitwise equal to a per-puncture loop
(scan_chunks), as grid_cells does for every domain of a grid.
scan_chunks builds a family chunk angle first: it converts and measures only
the punctures whose angle lies in a candidate window around arg z, out of
which every puncture is provably farther than the window's level
(_candidates), and computes tails only from the family's certified
tail_index of the chunk's stop level (_tail_start), below which no tail can
stop the scan.
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

The module imports numpy at its top and loads on first use, so that a
command which never leaves the scalar pass neither compiles it nor loads
numpy.  It reads _SEQUENCE_CAP through invariants at each call, so that one
setting of it there reaches every scan.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from . import invariants as inv
from .domains import Annulus
from .hyperbolic import INTERIOR_MARGIN, _kernel, _prepare, radial_separation_bound, rho
from .invariants import _EPS, _GRID_FIRST_CHUNK, COLLISION_EPS, _Scan, _tail_stops, _unstopped

# Most elements in one array of the batched kernels (punctures x cells).  Grid
# chunks double from _GRID_FIRST_CHUNK up to GRID_BLOCK; a single point's numpy
# chunks are sized by the family's tail estimate.
GRID_BLOCK = 8192

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
    return min(inv._SEQUENCE_CAP, examined + GRID_BLOCK, max(reach + 2, examined + _GRID_FIRST_CHUNK))


def _distances(z, re, im):
    """rho (rho_max for a polydisk point) from z to each puncture of a planar
    family chunk, by the kernel's array form: bitwise the scalar rho of each
    puncture.  A polydisk family's punctures are 0j beyond coordinate 0, at
    distance rho(z_j, 0j) there, taken once."""
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
    z0 = z[0] if isinstance(z, tuple) else z
    x = y - math.atan2(z0.imag, z0.real)
    x -= math.tau * np.rint(x * (1.0 / math.tau))
    return np.abs(x)



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


def scan_chunks(domain, z, anchor: float, floor: float, scan: _Scan, measure) -> _Scan:
    """invariants._scan of a family past its scalar head ``scan``, which did
    not stop: numpy chunks sized by the running minimum (see _next_stop),
    measured by ``measure`` (invariants._measure) where a batch is small.

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
        if examined >= inv._SEQUENCE_CAP:
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
    tails = domain.tails(lo - 1, hi)
    before = index.searchsorted(np.arange(lo, hi + 1), "right")  # candidates up to n
    stops = _tail_stops(tails, anchor, run[before])
    j = int(stops.argmax())
    return (lo + j, float(tails[j]), int(before[j])) if stops[j] else None


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

    limit = domain.known_count() or inv._SEQUENCE_CAP
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
