"""Certified minimization over removed-block boundaries.

Minima over removed-block boundaries reduce to circle minima, which are closed
forms with a rounding floor; ball blocks add a branch-and-bound over radius
profiles.  They carry a mesh error such that the true minimum lies in
[value - mesh_error, value].  A sequence of blocks stops in
invariants._scalar_scan, the puncture scan, with each block's minimum as its
distance.

The module loads on first use, so that only removed-block evaluations
compile it.  It reads _SEQUENCE_CAP through invariants at each call, so
that one setting of it there reaches every scan.
"""

from __future__ import annotations

import heapq
import itertools
import math

from . import invariants as inv
from .domains import Block, DomainError, RemovedBalls, RemovedPolydisks, _comparable, _shown
from .hyperbolic import PointError, require_interior_polydisk_point
from .invariants import _EPS, DEFAULT_MESH_TOL, CertificationError, InvariantValue, _scalar_scan

# Most radius profiles one ball block's branch-and-bound evaluates.
_BALL_EVALS_CAP = 150_000
_MESH_FLOOR = 1e-14
# rounding floor of a closed-form circle minimum, times kappa (see _circle_min)
_CIRCLE_FLOOR = 64.0 * _EPS


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


def _circle_terms(z, centre) -> list[tuple]:
    """Per coordinate, the terms of _circle_min that do not depend on the
    circle's radius: (zc, c, conj(zc), 1 - conj(c) zc, |zc|, |c|).  A ball
    block takes them once and reuses them for every radius profile."""
    return [(zc, c, zc.conjugate(), 1.0 - c.conjugate() * zc, abs(zc), abs(c)) for zc, c in zip(z, centre)]


def _circle_min(terms: tuple, s: float) -> tuple[float, float]:
    """Certified minimum of rho(zc, .) over the circle |w - c| = s, in closed form,
    from the _circle_terms of (zc, c).

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
    zc, c, zb, den, kz, kc = terms
    q = c + s * s * zc / den
    centre = (q - zc) / (1.0 - zb * q)
    rim = c + s
    radius = abs((rim - zc) / (1.0 - zb * rim) - centre)
    kappa = 1.0 - kz * (kc + s)
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
    polydisk), and so do the conditionals that combine the pass's results,
    so the result is bitwise the O(n^2) minimum over the faces.
    The true minimum is in [value - error, value].
    """
    r = block.radius
    top = low_top = low_second = -math.inf
    least = low_least = math.inf
    for terms in _circle_terms(z, block.center):
        v, e = _circle_min(terms, r)
        low = v - e
        if v < least:
            least = v
        if low < low_least:
            low_least = low
        if abs(terms[0] - terms[1]) > r:  # z_j outside its coordinate disk
            d = low
            if v > top:
                top = v
        else:
            d = 0.0
        if d > low_top:
            low_top, low_second, low_at_top = d, low_top, low
        elif d > low_second:
            low_second = d
    best_v = top if top > least else least
    face_k = low_second if low_second > low_at_top else low_at_top
    face_least = low_top if low_top > low_least else low_least
    gap = best_v - (face_least if face_least < face_k else face_k)
    return best_v, (_MESH_FLOOR if _MESH_FLOOR > gap else gap)


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

    Each box [lo, hi] carries its centre (lo_i + hi_i)/2 and half-widths
    (hi_i - lo_i)/2.  A child has its parent's lo_i and hi_i on every axis
    but the split one, so there its entries are the parent's floats, which
    computing them again from the same operands would repeat bitwise; only
    the split axis's entries are computed, and the split point
    (lo_k + hi_k)/2 is the parent's centre entry k.  The split axis is the
    first widest, as max(range, key=width) picks it: halving is exact above
    the subnormals, so the half-widths order as the widths do, and
    half.index(max(half)) is the first index of the largest.  The bound sums
    the half-widths with sum() in axis order, and the heap's tie-break is the
    count of profiles evaluated before the push, which numbers the pushes in
    order; `v < best` keeps the least value as min(best, v) does.  So the
    search pops and pushes the same boxes in the same order and evaluates
    the same profiles, bitwise, as one that computes each box's centre and
    half-widths from its corners.
    """
    r = block.radius
    lip_t = max(_block_grad_bounds(z, block)) * r
    first, *rest = _circle_terms(z, block.center)
    circle, profiles = _circle_min, _sphere_profiles

    def profile_min(t) -> tuple[float, float]:
        radii = profiles(t, r)
        top, e = circle(first, radii[0])
        low = top - e
        for terms, s in zip(rest, radii[1:]):
            v, e = circle(terms, s)
            if v > top:
                top = v
            v -= e
            if v > low:
                low = v
        return top, low

    n = len(z)
    lo = (0.0,) * (n - 1)
    hi = (math.pi / 2.0,) * (n - 1)
    centre = tuple((a + b) / 2.0 for a, b in zip(lo, hi))
    half = tuple((b - a) / 2.0 for a, b in zip(lo, hi))
    v, low = profile_min(centre)
    best = v
    # corner profiles are frequent minimizers (extreme radius splits); probing
    # them only sharpens the upper value
    for corner in (lo, hi):
        v = profile_min(corner)[0]
        if v < best:
            best = v
    heap = [(low - lip_t * sum(half), 0, lo, hi, centre, half)]
    evals = 1
    pop, push = heapq.heappop, heapq.heappush
    while True:  # each pass pops one box and pushes two
        bound, _, lo, hi, centre, half = pop(heap)
        gap = best - bound
        if gap <= tol:
            return best, max(gap, _MESH_FLOOR)
        if evals >= _BALL_EVALS_CAP:
            raise CertificationError(
                f"boundary minimization failed to reach mesh tolerance {tol:g} "
                f"within {_BALL_EVALS_CAP} profile evaluations"
            )
        k = half.index(max(half))
        a, mid, b = lo[k], centre[k], hi[k]
        c_before, c_after, h_before, h_after = centre[:k], centre[k + 1:], half[:k], half[k + 1:]
        for child_lo, child_hi, c, h in (
            (lo, hi[:k] + (mid,) + hi[k + 1:], (a + mid) / 2.0, (mid - a) / 2.0),
            (lo[:k] + (mid,) + lo[k + 1:], hi, (mid + b) / 2.0, (b - mid) / 2.0),
        ):
            child_centre = c_before + (c,) + c_after
            child_half = h_before + (h,) + h_after
            v, low = profile_min(child_centre)
            if v < best:
                best = v
            push(heap, (low - lip_t * sum(child_half), evals, child_lo, child_hi, child_centre, child_half))
            evals += 1


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
        raise CertificationError(f"block tail bound failed to certify within {inv._SEQUENCE_CAP} blocks")
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
    for k, block in enumerate(domain.blocks or map(domain.block, range(1, inv._SEQUENCE_CAP + 1)), 1):
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
