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
# rounding floor of a closed-form circle minimum, times kappa (see _min_on_circle)
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
