"""The distance kernel (hyperbolic._kernel) against exact rational arithmetic
on its float inputs, its float and array forms bitwise, the grid against
per-point evaluation, and the range where distinct points stay apart."""

import cmath
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from squeezefn.chunked import _distances, grid_cells
from squeezefn.domains import DomainError, PolySequencePunctures, RadialFamily, parse_domain_spec
from squeezefn.hyperbolic import PointError, _defect, _kernel, _prepare, rho, rho_from, rho_max
from squeezefn.invariants import CertificationError, _measure, squeezing_punctured_disk

U = Fraction(1, 2**53)
# the docstring's bounds on |rho' - rho| / rho: 7u where rho^2 is normal
# (rho >= 2^-511, taken with a factor 2 to spare), 9u below
BOUND, TINY_BOUND = 7 * U, 9 * U


def exact_rho_squared(z: complex, a: complex) -> Fraction:
    """rho(z, a)^2 of the float inputs, exactly: |a - z|^2 / |1 - conj(z) a|^2."""
    zr, zi, ar, ai = map(Fraction, (z.real, z.imag, a.real, a.imag))
    d = (ar - zr) ** 2 + (ai - zi) ** 2
    return d / (d + (1 - zr * zr - zi * zi) * (1 - ar * ar - ai * ai))


def within_bound(value: float, exact: Fraction) -> bool:
    """|value - rho| <= BOUND rho (TINY_BOUND rho below rho^2 = 2^-1021),
    with rho = sqrt(exact), decided exactly."""
    bound = BOUND if exact >= Fraction(2) ** -1021 else TINY_BOUND
    v = Fraction(value) ** 2
    return (1 - bound) ** 2 * exact <= v <= (1 + bound) ** 2 * exact


def polar(r, phi):
    return complex(r * math.cos(phi), r * math.sin(phi))


# moduli from 0 to 1 - 1e-12, dense near the boundary; angles dense, plus the
# axes and the diagonals, where one square or both are near 1/2
depth = st.floats(0.0, 12.0)
angles = st.one_of(st.floats(-math.pi, math.pi),
                   st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi,
                                    -math.pi / 4, -math.pi / 2]))
interior = st.builds(lambda s, phi: polar(1.0 - 10.0**-s, phi), depth, angles).filter(
    lambda z: abs(z) <= 1.0 - 1e-12)
# punctures: interior points, points near z, and float punctures whose
# modulus rounds to 1.0
rim = st.builds(lambda k, theta: RadialFamily(q=0.5, theta=theta).point(k),
                st.integers(40, 200), st.floats(0.0, 2.0 * math.pi))
near_offsets = st.builds(lambda s, phi: cmath.rect(10.0**-s, phi), st.floats(1.0, 15.0), angles)


@st.composite
def pairs(draw):
    z = draw(interior)
    kind = draw(st.sampled_from(["any", "near", "tiny", "rim", "scaled"]))
    if kind == "any":
        a = draw(interior)
    elif kind == "near":  # within 1e-1 .. 1e-15 of z, as the attained punctures are
        a = z + draw(near_offsets) * (1.0 - abs(z))
    elif kind == "tiny":  # down to |a - z| = 1e-300, above the bound's 2^-1021
        a = z + cmath.rect(10.0 ** -draw(st.floats(15.0, 300.0)), draw(angles))
    elif kind == "rim":
        a = draw(rim)
    else:  # the same angle: the separation bound's radial case
        a = z * draw(st.floats(0.5, 1.0 / max(abs(z), 0.5)))
    if abs(a) > 1.0:
        a = a / abs(a)
    return z, a


DEEP_POINT = (complex(-0.99999, 0.0), 126878)  # p=1's attained index at -0.99999


@settings(max_examples=600, deadline=None)
@given(pairs())
@example((complex(0.5), complex(0.25)))
@example((1e-150 + 0j, complex(1e-150, 1e-158)))  # |a - z|^2 would be subnormal unscaled,
# and rho^2 is: the kernel takes two square roots
@example((polar(1.0 - 1e-12, math.pi / 4), polar(1.0 - 2e-12, math.pi / 4 + 1e-12)))
@example((complex(0.7071067811865476 * (1 - 1e-9), 0.7071067811865476 * (1 - 1e-9)),
          complex(0.7071067811865475, 0.7071067811865475 * (1 - 1e-12))))
def test_kernel_is_within_its_bound_of_the_exact_distance(pair):
    z, a = pair
    assume(not 0.0 < abs(a - z) < 2.0**-1021)  # where the bound holds: D normal
    exact = exact_rho_squared(z, a)
    for value in (rho(z, a), rho(a, z), rho_from(z)(a)):
        assert within_bound(value, exact), (z, a, value)


@settings(max_examples=400, deadline=None)
@given(st.one_of(interior, rim))
@example(complex(0.7071067811865475, 0.7071067811865475))  # both squares just below 1/2
@example(complex(1.0 - 2**-40, 0.0))
def test_defect_is_within_its_bound(z):
    # 1 - x^2 - y^2 within 2u |d| + 9u^2 of the exact defect d
    x, y = z.real, z.imag
    exact = 1 - Fraction(x) ** 2 - Fraction(y) ** 2
    assert abs(Fraction(_defect(x, y)) - exact) <= 2 * U * abs(exact) + 9 * U * U


def test_the_complex_quotient_misses_the_bound_near_the_boundary():
    # |a - z| / |1 - conj(z) a| in complex arithmetic errs like u / (1 - |z|):
    # at p=1's attained puncture at -0.99999 by about 1.2e-12, over 1000
    # times the kernel's bound, which the kernel meets
    domain = parse_domain_spec({"kind": "sequence", "family": "boundary_orbit",
                                "c": 0.5, "p": 1.0, "theta": 2.3})
    z, k = DEEP_POINT
    a = domain.puncture(k)
    exact = exact_rho_squared(z, a)
    quotient = abs((a - z) / (1.0 - z.conjugate() * a))
    assert not within_bound(quotient, exact)
    assert abs(Fraction(quotient) ** 2 / exact - 1) > 1000 * 2 * 9 * U
    assert within_bound(rho(z, a), exact)
    assert squeezing_punctured_disk(domain, z).value == rho(z, a)


@settings(max_examples=200, deadline=None)
@given(st.lists(interior, min_size=1, max_size=5),
       st.lists(st.one_of(interior, rim, near_offsets), min_size=1, max_size=7))
def test_float_and_array_forms_agree_bitwise(zs, ws):
    z, w = np.array(zs), np.array(ws)
    block = _kernel(*_prepare(z.real[:, None], z.imag[:, None]), *_prepare(w.real, w.imag), np.sqrt)
    for zc, row in zip(zs, block.tolist()):
        assert [v.hex() for v in row] == [rho(zc, wc).hex() for wc in ws]
        assert [v.hex() for v in row] == [rho_from(zc)(wc).hex() for wc in ws]


@settings(max_examples=200, deadline=None)
@given(st.one_of(interior, st.sampled_from([0j, -0j, complex(5e-324, 0.0), complex(0.5, 1e-310)])),
       st.builds(cmath.rect, st.floats(5e-324, 1.0), st.floats(-math.pi, math.pi)))
@example(0j, complex(3.1e-255, 0.0))  # a squared distance underflowed here
@example(0j, complex(5e-324, 0.0))  # and here, scaled by 2^510
@example(complex(0.5, 1e-320), complex(0.0, 1e-320))
@example(1e-150 + 0j, complex(0.0, 1e-158))  # rho^2 subnormal: two square roots
def test_distinct_points_are_apart(z, offset):
    # rho > 0 for distinct points: the kernel forms |a - z| scaled by 2^510
    # before its division, and by 2^600 more where those squares underflow
    a = z + offset
    if a == z or abs(a) >= 1.0:
        return
    w = np.array([a, z])
    assert rho(z, a) > 0.0 and rho(a, z) > 0.0
    assert rho(z, z) == 0.0
    block = _kernel(*_prepare(z.real, z.imag), *_prepare(w.real, w.imag), np.sqrt)
    assert [v.hex() for v in block.tolist()] == [rho(z, a).hex(), 0.0.hex()]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3), st.one_of(st.none(), interior), st.lists(interior, min_size=2, max_size=2),
       st.floats(0.3, 0.99), st.floats(-4.0, 4.0), st.integers(0, 500))
def test_polydisk_family_distances_are_rho_max(n, z0, rest, q, theta, start):
    # a polydisk family's punctures are 0j beyond coordinate 0: _distances
    # and _measure take rho(z_j, 0j) there once, bitwise rho_max on the
    # embedded point.  With z_0 the chunk's first puncture (None), the other
    # coordinates set that puncture's distance.
    try:
        domain = PolySequencePunctures(n=n, family=RadialFamily(q, theta))
    except DomainError:  # a family whose first punctures nearly coincide
        reject()
    index = list(range(start + 1, start + 9))
    points = [domain.puncture(k) for k in index]
    z = (points[0][0] if z0 is None else z0, *rest[:n - 1])
    if abs(z[0]) >= 1.0 - 1e-12:
        return
    re, im = np.array([p[0].real for p in points]), np.array([p[0].imag for p in points])
    expected = [rho_max(z, p).hex() for p in points]
    assert [d.hex() for d in _distances(z, re, im).tolist()] == expected
    assert [_measure(domain, z)(k).hex() for k in index] == expected


GRID_DOMAINS = [
    {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5], [-0.3, -0.6]]},
    {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
    {"kind": "sequence", "points": [[0.9, 0.0], [0.0, -0.95]], "tail_modulus_constant": 0.99},
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(range(len(GRID_DOMAINS))), st.builds(polar, st.floats(0.0, 0.9999), angles),
       st.floats(1e-9, 0.05), st.integers(1, 5), st.integers(1, 4))
def test_every_grid_row_is_the_per_point_evaluation(which, corner, width, nx, ny):
    domain = parse_domain_spec(GRID_DOMAINS[which])
    reals = [corner.real + width * i for i in range(nx)]
    imags = [corner.imag + width * j for j in range(ny)]
    value, index, certified = grid_cells(domain, reals, imags)
    for cell, z in enumerate(complex(re, im) for im in imags for re in reals):
        try:
            res = squeezing_punctured_disk(domain, z)
        except PointError:
            assert math.isnan(value[cell])
            continue
        except CertificationError:  # the grid reports the examined minimum, uncertified
            assert not certified[cell]
            continue
        assert (float(value[cell]).hex(), int(index[cell]), bool(certified[cell])) == (
            res.value.hex(), res.truncation_index, True)
