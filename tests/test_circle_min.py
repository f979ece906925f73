"""The closed-form circle minimum against sampling, the refinement it
replaced, and, bitwise, its form before its clamps became conditionals and
its terms in (zc, c) alone were taken apart from those in s."""

import cmath
import math
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from squeezefn.blocks import _CIRCLE_FLOOR, _MESH_FLOOR, _circle_min, _circle_terms
from squeezefn.hyperbolic import rho


def min_on_circle(zc: complex, c: complex, s: float) -> tuple[float, float]:
    """blocks._circle_min over the circle |w - c| = s, as seen from zc."""
    [terms] = _circle_terms((zc,), (c,))
    return _circle_min(terms, s)


def builtin_min_on_circle(zc: complex, c: complex, s: float) -> tuple[float, float]:
    """The circle minimum before its clamps became conditionals and its terms
    were split, kept verbatim (docstring aside) as the reference: one
    function of (zc, c, s), and the builtins max and min."""
    zb = zc.conjugate()
    q = c + s * s * zc / (1.0 - c.conjugate() * zc)
    centre = (q - zc) / (1.0 - zb * q)
    rim = c + s
    radius = abs((rim - zc) / (1.0 - zb * rim) - centre)
    kappa = 1.0 - abs(zc) * (abs(c) + s)
    floor = max(_CIRCLE_FLOOR / kappa, _MESH_FLOOR)
    return min(abs(abs(centre) - radius) + floor, 1.0), 2.0 * floor


def refined_min_on_circle(zc, c, s, tol, grad, rounds_cap=80):
    """The former coarse-scan-and-bracket refinement, kept as a reference:
    64 samples from the angle of zc - c, then nine-point bracket refinement;
    the error is the Lipschitz bound times the final bracket arc."""
    if s <= 0.0:
        return rho(zc, c), 0.0
    lip = grad * s
    base = cmath.phase(zc - c) if zc != c else 0.0
    step = 2.0 * math.pi / 64
    best_v, best_i = math.inf, 0
    for i in range(64):
        v = rho(zc, c + s * cmath.exp(1j * (base + i * step)))
        if v < best_v:
            best_v, best_i = v, i
    lo, hi = base + (best_i - 1) * step, base + (best_i + 1) * step
    for _ in range(rounds_cap):
        if lip * (hi - lo) <= tol or (hi - lo) <= 1e-15:
            break
        pts = [lo + (hi - lo) * i / 8.0 for i in range(9)]
        vals = [rho(zc, c + s * cmath.exp(1j * p)) for p in pts]
        j = min(range(9), key=vals.__getitem__)
        best_v = min(best_v, vals[j])
        lo, hi = pts[max(j - 1, 0)], pts[min(j + 1, 8)]
    return best_v, max(lip * (hi - lo), _MESH_FLOOR)


def sampled_min(zc, c, s, samples=4096):
    return min(rho(zc, c + s * cmath.exp(2j * math.pi * k / samples)) for k in range(samples))


def exact_square_moduli(zc, c, s):
    """|C|^2 and R^2 of the image circle, in exact rational arithmetic."""
    def q(w):
        return Fraction(w.real), Fraction(w.imag)

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def div(a, b):
        norm = b[0] ** 2 + b[1] ** 2
        num = mul(a, (b[0], -b[1]))
        return num[0] / norm, num[1] / norm

    def sub(a, b):
        return a[0] - b[0], a[1] - b[1]

    z, zbar, one = q(zc), q(zc.conjugate()), (Fraction(1), Fraction(0))

    def mobius(w):
        return div(sub(w, z), sub(one, mul(zbar, w)))

    cq, sq = q(c), Fraction(s)
    t = div(mul((sq * sq, Fraction(0)), z), sub(one, mul(q(c.conjugate()), z)))
    centre = mobius((cq[0] + t[0], cq[1] + t[1]))
    edge = sub(mobius((cq[0] + sq, cq[1])), centre)
    return centre[0] ** 2 + centre[1] ** 2, edge[0] ** 2 + edge[1] ** 2


def gap_sign(a, b, w):
    """Sign of sqrt(a) - sqrt(b) - w, exactly, for rationals a, b, w >= 0:
    that of (a - b - w^2) - 2 w sqrt(b)."""
    left = a - b - w * w
    if left < 0:
        return -1
    right = 4 * w * w * b
    return (left * left > right) - (left * left < right)


angles = st.floats(0.0, 2.0 * math.pi)
near_one = st.floats(0.0, 7.0).map(lambda e: 1.0 - 10.0 ** -e)


@st.composite
def circles(draw):
    """(zc, c, s) with |zc| <= 1 - 1e-7 and |c| + s <= 1 - 1e-6: zc = 0, anywhere
    or near the boundary; s down to 1e-12 of the reach; zc inside the circle."""
    modulus = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - 1e-7),
                             near_one.filter(lambda m: m <= 1.0 - 1e-7)))
    zc = cmath.rect(modulus, draw(angles))
    reach = draw(st.one_of(st.floats(1e-3, 1.0 - 1e-6),
                           st.floats(1.0, 6.0).map(lambda e: 1.0 - 10.0 ** -e)))
    s = reach * 10.0 ** -draw(st.floats(0.0, 12.0))
    if draw(st.booleans()):
        c = cmath.rect(reach - s, draw(angles))
    else:  # zc inside the circle, or close outside it
        c = zc + cmath.rect(s * draw(st.floats(0.0, 1.5)), draw(angles))
        assume(abs(c) + s <= 1.0 - 1e-6)
    return zc, c, s


@settings(max_examples=300, deadline=None)
@given(circles())
def test_lower_end_below_sampled_minimum(circle):
    zc, c, s = circle
    value, error = min_on_circle(zc, c, s)
    assert error >= 2.0 * _MESH_FLOOR
    assert 0.0 < value <= 1.0
    assert value - error <= sampled_min(zc, c, s)


@settings(max_examples=300, deadline=None)
@given(circles())
def test_bracket_holds_exact_minimum(circle):
    # the exact minimum m = |sqrt(|C|^2) - sqrt(R^2)| for the float inputs
    # lies in [value - error, value]
    zc, c, s = circle
    value, error = min_on_circle(zc, c, s)
    a, b = exact_square_moduli(zc, c, s)
    high, low = Fraction(value), Fraction(value) - Fraction(error)
    assert gap_sign(a, b, high) <= 0 and gap_sign(b, a, high) <= 0
    assert low <= 0 or gap_sign(a, b, low) >= 0 or gap_sign(b, a, low) >= 0


@settings(max_examples=300, deadline=None)
@given(circles())
def test_bracket_meets_refined_bracket(circle):
    zc, c, s = circle
    value, error = min_on_circle(zc, c, s)
    grad = (1.0 - abs(zc) ** 2) / (1.0 - abs(zc) * min(abs(c) + s, 1.0)) ** 2
    ref_value, ref_error = refined_min_on_circle(zc, c, s, 1e-9, grad)
    assert max(value - error, ref_value - ref_error) <= min(value, ref_value)


def bits_or_error(f, *args):
    try:
        return [x.hex() for x in f(*args)]
    except ArithmeticError as exc:  # kappa = 0 divides by zero in both
        return type(exc).__name__


box = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
radii = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-12))
NEAR = complex(1.0 - 1e-12)  # the least boundary-adjacent modulus, as a point


@settings(max_examples=500, deadline=None)
@given(st.one_of(circles(), st.tuples(box, box, radii)))
@example((0j, 0.3 + 0.1j, 0.2))                # zc = 0: q = c
@example((0.5 - 0.2j, 0j, 0.3))                # c = 0
@example((0.5 - 0.2j, 0.1 + 0.1j, 0.0))        # s = 0: the circle is a point
@example((0.4 + 0j, 0.2 + 0j, 0.2))            # zc on the circle: m = 0
@example((0j, 0j, 0.0))                        # floor 64 eps, above _MESH_FLOOR
# kappa < 0, a circle beyond 1/|zc| (no block reaches it): the floor is
# negative and clamps to _MESH_FLOOR
@example((0.9 + 0j, 0.9 + 0j, 0.5))
# m + floor > 1: the value clamps to 1.0
@example((NEAR, -0.9 + 0j, 0.099))
@example((NEAR, -0.5 + 0j, 0.4999))
@example((0.5 + 0j, 1.0 + 0j, 1.0))            # kappa = 0: ZeroDivisionError in both
def test_conditional_clamps_are_bitwise_the_builtins(circle):
    # max(a, b) returns b only where b > a, min(a, b) only where b < a, so
    # ties and NaN select alike; the values and errors must match in every bit
    assert bits_or_error(min_on_circle, *circle) == bits_or_error(builtin_min_on_circle, *circle), circle


def test_reference_examples_reach_both_clamps():
    # the examples above exercise what the conditionals replace
    assert min_on_circle(0.9 + 0j, 0.9 + 0j, 0.5)[1] == 2.0 * _MESH_FLOOR
    assert min_on_circle(0j, 0j, 0.0)[1] == 2.0 * _CIRCLE_FLOOR > 2.0 * _MESH_FLOOR
    assert min_on_circle(NEAR, -0.9 + 0j, 0.099)[0] == 1.0
