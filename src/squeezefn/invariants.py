"""Closed-form invariant engine with certified truncation.

Infima over infinite puncture sequences are evaluated exactly: examination
stops at the first index N where the tail bound
(m(N) - |z|)/(1 - |z| m(N)) strictly exceeds the running minimum, or for a
listing's tail constant at least equals it (see _unstopped); the value is the
minimum over the examined prefix, independent of any larger truncation.
Punctures are examined in numpy chunks, bitwise equal to a per-puncture loop:
by grid_cells for a grid, and by _scan at one point from a starting bound,
infinite for a value and just below the claim for a lower-bound certificate.
Minima over removed-block boundaries reduce to circle minima, which are closed
forms with a rounding floor; ball blocks add a branch-and-bound over radius
profiles.  They carry a mesh error such that the true minimum lies in
[value - mesh_error, value].
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
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
)
from .hyperbolic import (
    INTERIOR_MARGIN,
    PointError,
    radial_separation_bound,
    require_interior_point,
    require_interior_polydisk_point,
    rho,
)

# Evaluation aborts if an examined puncture is this close to the query point:
# the infimum over a valid boundary-convergent sequence is provably positive,
# so a near-zero distance signals an invalid query rather than a value of 0.
COLLISION_EPS = 1e-14

# Certification must fire long before this many punctures for any family whose
# tail bound approaches 1; the cap only guards float-degenerate inputs.
_SEQUENCE_CAP = 200_000

# Most elements in one array of the batched kernels (cells x punctures), and
# the first chunk of punctures.  Grid chunks double up to GRID_BLOCK; the
# chunks of a single point are sized by the family's tail estimate.
GRID_BLOCK = 8192
_GRID_FIRST_CHUNK = 8

DEFAULT_MESH_TOL = 1e-6
_MESH_FLOOR = 1e-14
# rounding floor of a closed-form circle minimum, times kappa (see _min_on_circle)
_CIRCLE_FLOOR = 64.0 * sys.float_info.epsilon


class CertificationError(RuntimeError):
    """An infimum could not be certified (uncovered tail or search cap)."""


@dataclass(frozen=True)
class InvariantValue:
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

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"invariant value {self.value!r} outside (0, 1]")
        if self.mesh_error < 0.0:
            raise ValueError(f"negative mesh error {self.mesh_error!r}")


@dataclass(frozen=True)
class VerificationOutcome:
    """Pass/fail result of a consistency check, with the computed values."""

    passed: bool
    observed: tuple[float, ...] = ()
    violating_index: int | None = None
    details: str = ""


# ---------------------------------------------------------------------------
# punctured disk
# ---------------------------------------------------------------------------


def _finite_min(dists) -> tuple[float, int]:
    best = math.inf
    best_idx = 0
    for k, d in enumerate(dists, 1):
        if d < COLLISION_EPS:
            raise PointError(f"query point coincides with puncture {k} "
                             f"(distance {d:.3e} < {COLLISION_EPS:g})")
        if d < best:
            best, best_idx = d, k
    return best, best_idx


def squeezing_punctured_disk(domain, z: complex) -> InvariantValue:
    """Squeezing function of the disk minus punctures:
    inf over punctures a of |(a - z)/(1 - conj(z) a)|.

    For certified sequences the result is exact, with the stopping index and
    active tail bound recorded.
    """
    z = require_interior_point(z)
    if isinstance(domain, FinitePunctures):
        best, best_idx = _finite_min(rho(z, a) for a in domain.punctures)
        return InvariantValue(best, truncation_index=0, attained_index=best_idx)
    if not isinstance(domain, SequencePunctures):
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


def _next_stop(domain, examined: int, limit: int, anchor: float, bound: float) -> int:
    """End of the next chunk: the domain's estimate of the first index whose
    tail bound covers ``bound``, at least _GRID_FIRST_CHUNK and at most
    GRID_BLOCK punctures on, and at most ``limit``.  It only sizes the chunk;
    the exact stop rule decides."""
    level = (bound + anchor) / (1.0 + bound * anchor)  # m > level iff the bound is covered
    reach = domain.tail_index(level) if level < 1.0 else limit
    return min(limit, examined + GRID_BLOCK, max(reach, examined + _GRID_FIRST_CHUNK))


def _distances(z, re, im):
    """rho (or rho_max for a polydisk point) from z to each chunk puncture."""
    import numpy as np

    if not isinstance(z, tuple):
        return _rho_block(z.real, z.imag, re, im)
    return np.max([_rho_block(c.real, c.imag, re[j], im[j]) for j, c in enumerate(z)], axis=0)


def _scan(domain, z, anchor: float, floor: float, bound: float = math.inf) -> _Scan:
    """The certified-truncation loop of a sequence domain at one point.

    Stops at the first index n >= 0 whose tail bound m(n) covers the running
    minimum of ``bound`` and the first n distances (_tail_stops); ``bound``
    is infinite for a value and just below the claim for a certificate.  A
    distance below ``floor`` at or before that index ends the scan.  At the
    end of a listing, or at _SEQUENCE_CAP, the tail is None (see _unstopped).
    Chunks: the first holds _GRID_FIRST_CHUNK punctures, or is sized by a
    finite ``bound``; later ones by the running minimum (see _next_stop).
    """
    import numpy as np

    tail = domain.tail_lower_bound(0)
    if _tail_stops(tail, anchor, bound):
        return _Scan(0, tail, bound, 0)
    limit = domain.known_count() or _SEQUENCE_CAP
    best, best_index, examined = bound, 0, 0
    stop = (min(_GRID_FIRST_CHUNK, limit) if bound == math.inf
            else _next_stop(domain, 0, limit, anchor, bound))
    while True:
        re, im, tails = domain.chunk(examined, stop)
        dist = _distances(z, re, im)
        run = np.minimum.accumulate(dist)
        np.minimum(run, best, out=run)
        stops = _tail_stops(tails, anchor, run)
        stopped = bool(stops.any())
        seen = dist[:int(stops.argmax()) + 1] if stopped else dist
        low = seen < floor
        if low.any():
            j = int(low.argmax())
            return _Scan(examined + 1 + j, None, best, best_index, float(dist[j]))
        j = int(seen.argmin())
        if seen[j] < best:
            best, best_index = float(seen[j]), examined + 1 + j
        if stopped:
            return _Scan(examined + seen.size, float(tails[seen.size - 1]), best, best_index)
        examined = stop
        if examined >= limit:
            return _Scan(examined, None, best, best_index)
        stop = _next_stop(domain, examined, limit, anchor, best)


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
    equal to the scalar result (see _rho_block).

    Prefix chunks double in size, so that cells which stop early do not pay
    for large chunks; a cell stops at the first index where the tail bound
    exceeds its running minimum, and only open cells go on to the next
    chunk.  Chunks are the outer loop and groups of open cells the inner
    one, so a call generates each chunk once, however many cells it has.
    Kernel temporaries hold at most about GRID_BLOCK elements; the per-cell
    state (coordinates, running minima, results) scales with the number of
    cells.
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
    examined, width = 0, _GRID_FIRST_CHUNK
    while cells.size and examined < limit:
        stop = min(examined + width, limit)
        ar, ai, tails = domain.chunk(examined, stop)
        size = stop - examined
        group = max(1, GRID_BLOCK // size)
        still_open = []
        for first in range(0, cells.size, group):
            g = cells[first:first + group]
            dist = _rho_block(zr[g, None], zi[g, None], ar, ai)
            run = np.minimum.accumulate(dist, axis=1)
            np.minimum(run, best[g, None], out=run)
            stops = _tail_stops(tails, anchor[g, None], run)
            stopped = stops.any(axis=1)
            last = np.where(stopped, stops.argmax(axis=1), size - 1)  # each cell's last position
            best[g] = run[np.arange(g.size), last]
            hits = dist < COLLISION_EPS
            collided = hits.any(axis=1) & (hits.argmax(axis=1) <= last)
            done = stopped & ~collided
            value[g[done]] = best[g[done]]
            index[g[done]] = examined + 1 + last[done]
            still_open.append(g[~(stopped | collided)])
        cells = np.concatenate(still_open)
        examined, width = stop, min(2 * width, GRID_BLOCK)

    # cells left open examined the whole listing or the capped prefix
    value[cells] = best[cells]
    index[cells], _, certified[cells] = _unstopped(domain, anchor[cells], best[cells])
    return value, index, certified


def _rho_block(zr, zi, ar, ai):
    """rho(z, a) for a column of cells z against a row of punctures a.

    Redoes CPython's complex arithmetic operation by operation, so that every
    value is bitwise equal to hyperbolic.rho: the product and the difference
    as _Py_c_prod and _Py_c_diff (1.0 - w is (1.0 - w.real, 0.0 - w.imag)),
    the quotient as _Py_c_quot with Smith's two branches, abs as hypot.  The
    second branch's imaginary part comes out negated, which abs ignores.
    """
    import numpy as np

    mzi = -zi  # conj(z).imag
    nr = ar - zr
    ni = ai - zi
    dr = 1.0 - (zr * ar - mzi * ai)
    di = 0.0 - (zr * ai + mzi * ar)
    by_real = np.abs(dr) >= np.abs(di)
    big = np.where(by_real, dr, di)
    small = np.where(by_real, di, dr)
    top = np.where(by_real, nr, ni)
    other = np.where(by_real, ni, nr)
    ratio = small / big
    denom = big + small * ratio
    return np.hypot((top + other * ratio) / denom, (other - top * ratio) / denom)


def fridman_caratheodory_punctured_disk(domain, z: complex) -> InvariantValue:
    """Caratheodory Fridman invariant of the punctured disk.

    Coincides with the squeezing function on these domains; kept as a distinct
    entry point delegating to the same kernel.
    """
    return squeezing_punctured_disk(domain, z)


def lower_bound_certificate(domain, z: complex, claimed: float) -> VerificationOutcome:
    """Check the explicit-embedding certificate for a claimed lower bound.

    The centering map f(w) = (w - z)/(1 - conj(z) w) embeds the domain in the
    disk with f(z) = 0; the claim holds iff every puncture image has modulus
    >= claimed and the tail certificate covers all unexamined punctures.
    Failure is a result, not an error.
    """
    z = require_interior_point(z)
    if not 0.0 < claimed < 1.0:
        raise DomainError(f"claimed bound must be in (0, 1), got {claimed!r}")
    anchor = abs(z)
    if not isinstance(domain, (FinitePunctures, SequencePunctures)):
        raise DomainError(f"lower_bound_certificate does not apply to {type(domain).__name__}")

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
    (m + f, 2 f): the exact minimum, below 1, lies in [value - error, value].
    """
    zb = zc.conjugate()
    q = c + s * s * zc / (1.0 - c.conjugate() * zc)
    centre = (q - zc) / (1.0 - zb * q)
    rim = c + s
    radius = abs((rim - zc) / (1.0 - zb * rim) - centre)
    kappa = 1.0 - abs(zc) * (abs(c) + s)
    floor = max(_CIRCLE_FLOOR / kappa, _MESH_FLOOR)
    return min(abs(abs(centre) - radius) + floor, 1.0), 2.0 * floor


def _polydisk_block_min(z, block: Block) -> tuple[float, float]:
    """Min of the coordinate-max kernel over the sup-norm block boundary.

    The boundary is the union of faces {|w_i - c_i| = r, |w_j - c_j| <= r};
    on each face the minimum of a coordinate-wise max over a product set is
    the max of per-coordinate minima, each a circle problem (a coordinate
    disk's minimum sits on its rim when z_j lies outside, and is 0 otherwise).
    Returns (value, error) with the true minimum in [value - error, value].
    """
    n = len(z)
    r = block.radius
    circle = [_min_on_circle(z[j], block.center[j], r) for j in range(n)]
    disk = [
        (0.0, 0.0) if abs(z[j] - block.center[j]) <= r else circle[j]
        for j in range(n)
    ]
    best_v = math.inf
    best_low = math.inf
    for i in range(n):
        per = [circle[j] if j == i else disk[j] for j in range(n)]
        face_v = max(v for v, _ in per)
        face_low = max(v - e for v, e in per)
        best_v = min(best_v, face_v)
        best_low = min(best_low, face_low)
    return best_v, max(best_v - best_low, _MESH_FLOOR)


def _sphere_profiles(t: tuple[float, ...], r: float) -> list[float]:
    # hyperspherical angles in [0, pi/2]^(n-1) -> radii profile (s_1..s_n), sum s^2 = r^2
    s = []
    prod = 1.0
    for ti in t:
        s.append(r * prod * math.cos(ti))
        prod *= math.sin(ti)
    s.append(r * prod)
    return s


def _ball_block_min(z, block: Block, tol: float,
                    evals_cap: int = 150_000) -> tuple[float, float]:
    """Min of the coordinate-max kernel over the Euclidean sphere boundary.

    For a fixed per-coordinate radius profile (s_1..s_n) with sum s_j^2 = r^2
    the coordinates range over independent circles, so the minimum is the max
    of per-coordinate circle minima (closed forms); the profile itself is
    searched by best-first branch-and-bound over hyperspherical angles with
    the Lipschitz bound |dG| <= grad_bound * r * sum |dt_i|.  Cost grows
    roughly like tol^(-1/2) around a smooth interior minimum.
    """
    n = len(z)
    r = block.radius
    lip_t = max(_block_grad_bounds(z, block)) * r

    def profile_min(t) -> tuple[float, float]:
        s = _sphere_profiles(t, r)
        vals = [_min_on_circle(z[j], block.center[j], s[j]) for j in range(n)]
        return max(v for v, _ in vals), max(v - e for v, e in vals)

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
        if evals >= evals_cap:
            raise CertificationError(
                f"boundary minimization failed to reach mesh tolerance {tol:g} "
                f"within {evals_cap} profile evaluations"
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
    CertificationError.  Block sequences are truncated under the same tail
    certificate as punctures, applied to the innermost block modulus.
    """
    if not isinstance(domain, (RemovedPolydisks, RemovedBalls)):
        raise DomainError(
            f"polydisk_squeezing_removed_blocks does not apply to {type(domain).__name__}")
    if not mesh_tol > 0.0:  # also NaN, which would never be reached
        raise DomainError(f"mesh tolerance must be positive, got {mesh_tol!r}")
    z = require_interior_polydisk_point(z, domain.n)
    anchor = max(abs(c) for c in z)
    block_min = (_polydisk_block_min if domain.geometry == "polydisk"
                 else lambda z, block: _ball_block_min(z, block, mesh_tol))

    count = domain.known_count()
    if count is not None:
        for k in range(1, count + 1):
            _require_outside_block(domain, z, domain.block(k), k)
    best_v = math.inf
    best_low = math.inf
    best_k = 0
    examined = 0
    tail = 0.0
    while examined != count:
        if count is None and best_k:
            t = domain.family.tail_inner_modulus(examined)
            if _tail_stops(t, anchor, best_v):
                tail = t
                break
        if examined >= _SEQUENCE_CAP:
            raise CertificationError(
                f"block tail bound failed to certify within {_SEQUENCE_CAP} blocks")
        examined += 1
        block = domain.block(examined)
        if count is None:
            _require_outside_block(domain, z, block, examined)
        v, e = block_min(z, block)
        if v < best_v:
            best_v, best_k = v, examined
        best_low = min(best_low, v - e)
    mesh_error = max(best_v - best_low, _MESH_FLOOR)
    if mesh_error > mesh_tol:
        raise CertificationError(
            f"boundary minimization reached mesh error {mesh_error!r}, above the "
            f"mesh tolerance {mesh_tol:g}")
    return InvariantValue(best_v, truncation_index=0 if count is not None else examined,
                          tail_bound_used=tail, mesh_error=mesh_error, attained_index=best_k)


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
    count = domain.known_count()
    if count is None:
        raise DomainError("display formula is not certified for block families; "
                          "use an explicit block list")
    z = require_interior_polydisk_point(z, domain.n)
    mods = [abs(c) for c in z]
    return min(
        max(abs((b.radius - m) / (1.0 - m * b.radius)) for m in mods)
        for b in (domain.block(k) for k in range(1, count + 1))
    )


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
    if z is not None:
        _require_product_point(domain, z)
    return 1.0 / math.sqrt(domain.n)


def _require_product_point(domain: ProductOfBalls, z) -> None:
    n = domain.n
    factors = tuple(tuple(complex(c) for c in f) for f in z)
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
    if n <= 1:
        raise DomainError(f"ratio contradiction check needs n > 1, got {n!r}")
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
