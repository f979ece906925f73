"""blocks._polydisk_block_min against the face loop it replaced, kept
below verbatim as the reference: the faces are now taken in one pass over
the coordinates from the largest disk minimum and its runner-up, and must
give bitwise the same (value, error), at n = 1 to 8 and at n = 64, with tied
disk minima, equal centres, and coordinates inside, on and just outside
their coordinate disk.  blocks._ball_block_min against its form before each
radius profile became one pass and each box carried its centre and
half-widths, kept verbatim as the second reference: the same (value, error)
bits, or the same CertificationError at the cap.  Both references take each
circle minimum from blocks._circle_min, whose form before its terms in
(zc, c) were split off tests/test_circle_min.py compares bitwise.

The validation of polydisk points and of Block now names a coordinate only
for its message; the messages are pinned here, in the order the checks run."""

import heapq
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezefn import blocks
from squeezefn.blocks import (
    _MESH_FLOOR,
    _ball_block_min,
    _block_grad_bounds,
    _circle_min,
    _circle_terms,
    _polydisk_block_min,
    _sphere_profiles,
)
from squeezefn.domains import MAX_DIMENSION, Block, DomainError
from squeezefn.hyperbolic import PointError, require_interior_polydisk_point
from squeezefn.invariants import CertificationError


def min_on_circle(zc: complex, c: complex, s: float) -> tuple[float, float]:
    """blocks._circle_min over the circle |w - c| = s, as seen from zc."""
    [terms] = _circle_terms((zc,), (c,))
    return _circle_min(terms, s)


def reference(z, block: Block) -> tuple[float, float]:
    """The block minimum before its faces were taken in one pass."""
    n = len(z)
    r = block.radius
    circle = [min_on_circle(z[j], block.center[j], r) for j in range(n)]
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


def polar(modulus, turn):
    return complex(modulus * math.cos(2.0 * math.pi * turn), modulus * math.sin(2.0 * math.pi * turn))


unit = st.floats(0.0, 1.0)
centres = st.builds(polar, st.floats(0.0, 0.5), unit)


@st.composite
def coordinate(draw, c, r, previous):
    """A coordinate seen from its centre c: anywhere, at c, inside, on the
    rim (as rounded), exactly on the rim, one float outside it, or a copy of
    an earlier coordinate (a tied disk minimum where the centres agree)."""
    kind = draw(st.sampled_from(["free", "centre", "inside", "rim", "rim-exact", "rim-out", "copy"]))
    if kind == "free":
        return polar(draw(st.floats(0.0, 0.9)), draw(unit))
    if kind == "centre":
        return c
    if kind == "inside":
        return c + polar(r * draw(st.floats(0.0, 0.999)), draw(unit))
    if kind == "rim":
        return c + polar(r, draw(unit))
    if kind == "rim-exact":
        return c + r
    if kind == "rim-out":
        return complex(math.nextafter(c.real + r, 2.0), c.imag)
    return draw(st.sampled_from(previous)) if previous else c


@st.composite
def blocks_and_points(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, MAX_DIMENSION]))
    r = draw(st.sampled_from([0.05, 0.2, 0.25, 0.4]) | st.floats(1e-3, 0.45))
    palette = draw(st.lists(centres, min_size=1, max_size=3))
    center, z = [], []
    for _ in range(n):
        c = draw(st.sampled_from(palette))
        center.append(c)
        z.append(draw(coordinate(c, r, z)))
    return tuple(z), Block(tuple(center), r)


@settings(max_examples=300, deadline=None)
@given(blocks_and_points())
# coordinate 0 on its rim, where its circle's lower end v - e is negative.
# Both coordinates inside: the largest disk lower end, 0.0, is coordinate 0's
# own, and its face takes the runner-up, coordinate 1's 0.0; without it the
# error would double
@example(((0.25 + 0j, 0j), Block((0j, 0j), 0.25)))
# coordinate 1 one float outside its rim: face 0 takes coordinate 1's
# negative v - e, and the top 0.0 on its own face would halve the error
@example(((0.25 + 0j, complex(math.nextafter(0.25, 1.0))), Block((0j, 0j), 0.25)))
@example(((0.5 + 0j,) * MAX_DIMENSION, Block((0.1 + 0j,) * MAX_DIMENSION, 0.2)))
def test_one_pass_faces_are_bitwise_the_face_loop(case):
    z, block = case
    got, want = _polydisk_block_min(z, block), reference(z, block)
    assert [x.hex() for x in got] == [x.hex() for x in want], (z, block)


# --- ball blocks: one pass per radius profile ---------------------------------------

def ball_reference(z, block: Block, tol: float) -> tuple[float, float]:
    """_ball_block_min before each profile became one pass and each box
    carried its centre and half-widths, verbatim but for the first line,
    which reads the cap per call, as monkeypatched, and the circle minimum,
    taken through min_on_circle."""
    _BALL_EVALS_CAP = blocks._BALL_EVALS_CAP
    n = len(z)
    r = block.radius
    lip_t = max(_block_grad_bounds(z, block)) * r

    def profile_min(t) -> tuple[float, float]:
        s = _sphere_profiles(t, r)
        vals = [min_on_circle(z[j], block.center[j], s[j]) for j in range(n)]
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


def ball_outcome(evaluate, z, block, tol):
    try:
        return [x.hex() for x in evaluate(z, block, tol)]
    except CertificationError as exc:
        return str(exc)


# a cap that keeps n = 4 at mesh_tol 1e-4 within tier-1's time; draws that
# reach it compare the cap's message
BALL_CAP = 1500


@st.composite
def ball_cases(draw):
    """A ball block at n = 2, 3 or 4 with centres from a palette of up to
    two (equal centres), coordinates as in blocks_and_points (copies make
    equal points, so that circle minima tie), and a mesh tolerance."""
    n = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.sampled_from([0.1, 0.25]) | st.floats(0.02, 0.45))
    palette = draw(st.lists(centres, min_size=1, max_size=2))
    center, z = [], []
    for _ in range(n):
        c = draw(st.sampled_from(palette))
        center.append(c)
        z.append(draw(coordinate(c, r, z)))
    return tuple(z), Block(tuple(center), r), draw(st.floats(1e-4, 1e-2))


@settings(max_examples=120, deadline=None)
@given(ball_cases())
# all centres and points equal: every coordinate's circle minimum ties at the
# equal-split profile
@example(((0.5 + 0j,) * 3, Block((0j,) * 3, 0.25), 1e-2))
# reaches BALL_CAP: the cap's message, not a value
@example(((0.3 + 0.1j,) * 4, Block((0.1 + 0j,) * 4, 0.1), 1e-4))
# the blocks workload's origin ball at n = 3, at a tolerance that reaches BALL_CAP
@example(((0.5 + 0j, 0j, 0j), Block((0j,) * 3, 0.25), 1e-3))
# two boxes tie on their bound, and the push count decides which pops first:
# with the tie-break reversed the value and the error change
@example(((-0.5 + 0j, -0.5 + 0j, 0.5 + 0j), Block((0.1 + 0j,) * 3, 0.2), 1e-2))
# the blocks workload's origin and off-centre balls at n = 2
@example(((0.5 + 0j, 0j), Block((0j, 0j), 0.25), 1e-4))
@example(((-0.5 + 0j, 0j), Block((0.3 + 0j, 0j), 0.2), 1e-4))
def test_one_pass_profiles_are_bitwise_the_reference(case):
    z, block, tol = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "_BALL_EVALS_CAP", BALL_CAP)
        got = ball_outcome(_ball_block_min, z, block, tol)
        want = ball_outcome(ball_reference, z, block, tol)
    assert got == want, (z, block, tol)


# --- validation messages ------------------------------------------------------------

BOUNDARY = 1.0 - 1e-12  # the least modulus that is boundary-adjacent


@pytest.mark.parametrize("z, message", [
    ((0.5, "x", 2.0), "point coordinate 1 must be a number, got str"),
    ((0.5, 10**400, 2.0), "point coordinate 1: int too large to convert to float"),
    (0.5, "point must be a sequence of 3 numbers, got float"),
    ((0.5, 0.1), "point has 2 coordinates, expected 3"),
    # the first coordinate that fails the disk check
    ((0.5, 2.0, 3.0), "point coordinate 1 (2+0j) is not strictly inside the unit disk"),
    ((0.5, complex(math.nan, 0.0), 2.0), "point coordinate 1 (nan+0j) is not a finite complex number"),
    ((complex(0.0, math.inf), 0.5, 0.5), "point coordinate 0 infj is not a finite complex number"),
    # a disk failure at a later coordinate comes before an interior failure at an earlier one
    ((BOUNDARY, 0.5, 1.0), "point coordinate 2 (1+0j) is not strictly inside the unit disk"),
    ((0.5, BOUNDARY, 0.5), "point coordinate 1 (0.999999999999+0j) is numerically boundary-adjacent "
                           "(modulus >= 1 - 1e-12)"),
])
def test_polydisk_point_messages(z, message):
    with pytest.raises(PointError) as info:
        require_interior_polydisk_point(z, 3)
    assert str(info.value) == message


def test_polydisk_point_just_inside_the_margin_passes():
    inside = math.nextafter(BOUNDARY, 0.0)
    assert require_interior_polydisk_point((inside, 0.5j), 2) == (complex(inside), 0.5j)


@pytest.mark.parametrize("center, radius, message", [
    ((0.1, math.nan, math.inf), 0.2, "block: center[1] must be finite, got nan"),
    ((0.1, 10**400), 0.2, "block: center[1] must be finite, got an integer too large for a float"),
    ((0.1, "x"), 0.2, "block: center[1] must be finite, got 'x'"),
    ((complex(0.0, math.inf), 0.1), 0.2, "block: center[0] must be finite, got infj"),
    # the radius is checked before the centre
    ((math.nan,), math.inf, "block: radius must be finite, got inf"),
    ((0.1,), None, "block: radius must be finite, got None"),
    ((0.1,), -0.2, "block radius must be positive, got -0.2"),
    (0.1, 0.2, "block: center must be a list, got 0.1"),
])
def test_block_messages(center, radius, message):
    with pytest.raises(DomainError) as info:
        Block(center, radius)
    assert str(info.value) == message
