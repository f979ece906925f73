"""The closed-form circle minimum against sampling and the refinement it replaced."""

import cmath
import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from squeezefn.hyperbolic import rho
from squeezefn.invariants import _MESH_FLOOR, _min_on_circle


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
    value, error = _min_on_circle(zc, c, s)
    assert error >= 2.0 * _MESH_FLOOR
    assert 0.0 < value <= 1.0
    assert value - error <= sampled_min(zc, c, s)


@settings(max_examples=300, deadline=None)
@given(circles())
def test_bracket_holds_exact_minimum(circle):
    # the exact minimum m = |sqrt(|C|^2) - sqrt(R^2)| for the float inputs
    # lies in [value - error, value]
    zc, c, s = circle
    value, error = _min_on_circle(zc, c, s)
    a, b = exact_square_moduli(zc, c, s)
    high, low = Fraction(value), Fraction(value) - Fraction(error)
    assert gap_sign(a, b, high) <= 0 and gap_sign(b, a, high) <= 0
    assert low <= 0 or gap_sign(a, b, low) >= 0 or gap_sign(b, a, low) >= 0


@settings(max_examples=300, deadline=None)
@given(circles())
def test_bracket_meets_refined_bracket(circle):
    zc, c, s = circle
    value, error = _min_on_circle(zc, c, s)
    grad = (1.0 - abs(zc) ** 2) / (1.0 - abs(zc) * min(abs(c) + s, 1.0)) ** 2
    ref_value, ref_error = refined_min_on_circle(zc, c, s, 1e-9, grad)
    assert max(value - error, ref_value - ref_error) <= min(value, ref_value)

