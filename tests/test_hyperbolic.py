import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezefn.hyperbolic import (
    MobiusMap,
    PointError,
    radial_separation_bound,
    require_disk_point,
    require_interior_point,
    require_interior_polydisk_point,
    rho,
    rho_max,
)


def polar(r, phi):
    return complex(r * math.cos(phi), r * math.sin(phi))


disk_points = st.builds(polar, st.floats(0.0, 0.93), st.floats(0.0, 2.0 * math.pi))


# --- Mobius maps -----------------------------------------------------------

def test_mobius_identity_map():
    m = MobiusMap()
    assert m(complex(0.3, 0.4)) == complex(0.3, 0.4)


def test_mobius_center_goes_to_origin():
    m = MobiusMap(center=0.5)
    assert abs(m(complex(0.5))) < 1e-15


def test_mobius_quarter_point_value():
    # (1/4 - 1/2) / (1 - 1/8) = -2/7
    m = MobiusMap(center=0.5)
    assert m(complex(0.25)) == complex(-2.0 / 7.0)


@settings(max_examples=200)
@given(disk_points, disk_points)
def test_mobius_involution_at_rotation_pi(a, p):
    # e^{i pi}(z - a)/(1 - conj(a) z) = (a - z)/(1 - conj(a) z), the classical
    # self-inverse automorphism swapping the center with the origin
    m = MobiusMap(center=a, rotation=math.pi)
    assert abs(m(m(p)) - p) <= 1e-12
    assert abs(m(0j) - a) <= 1e-15


@settings(max_examples=200)
@given(disk_points, disk_points, st.floats(0.0, 2.0 * math.pi))
def test_mobius_inverse_is_a_mobius_map(a, p, rot):
    # the inverse of e^{i t}(z - a)/(1 - conj(a) z) is the map with center
    # -a e^{i t} and rotation -t
    m = MobiusMap(center=a, rotation=rot)
    inverse = MobiusMap(center=-a * m.phase, rotation=-rot)
    assert abs(inverse(m(p)) - p) <= 1e-12
    assert abs(m(inverse(p)) - p) <= 1e-12


@settings(max_examples=200)
@given(disk_points, disk_points, st.floats(0.0, 2.0 * math.pi))
def test_mobius_maps_disk_into_disk(a, p, rot):
    assert abs(MobiusMap(center=a, rotation=rot)(p)) < 1.0


def test_mobius_rejects_boundary_adjacent_center():
    with pytest.raises(PointError):
        MobiusMap(center=complex(1.0 - 1e-13))


def test_mobius_rejects_outside_argument():
    with pytest.raises(PointError):
        MobiusMap(center=0.5)(complex(1.2))


# --- pseudo-hyperbolic distance rho ----------------------------------------

def test_distance_from_origin_is_modulus():
    assert rho(0j, complex(0.0, 0.7)) == 0.7


def test_distance_half_to_quarter():
    assert rho(complex(0.5), complex(0.25)) == 2.0 / 7.0


def test_distance_of_coincident_points_is_zero():
    z = complex(0.3, 0.1)
    assert rho(z, z) == 0.0


@settings(max_examples=200)
@given(disk_points, disk_points)
def test_distance_symmetry(z, w):
    assert rho(z, w) == pytest.approx(rho(w, z), abs=1e-15)


@settings(max_examples=200)
@given(disk_points, disk_points)
def test_distance_range_and_identity(z, w):
    d = rho(z, w)
    assert 0.0 <= d < 1.0
    if z != w:
        assert d > 0.0


@settings(max_examples=300)
@given(disk_points, disk_points, disk_points, st.floats(0.0, 2.0 * math.pi))
def test_mobius_invariance_of_distance(z, w, a, rot):
    m = MobiusMap(center=a, rotation=rot)
    assert abs(rho(m(z), m(w)) - rho(z, w)) <= 1e-12


def test_radial_separation_bound_against_brute_force():
    # min of rho(z, w) over |w| = s is attained at the aligned point, and the
    # bound (m - |z|)/(1 - |z| m) is valid for every s >= m
    for r, m in [(0.0, 0.5), (0.3, 0.6), (0.7, 0.9), (0.5, 0.95)]:
        z = polar(r, 0.7)
        bound = radial_separation_bound(m, r)
        for s in (m, (m + 1.0) / 2.0, 0.999):
            observed = min(
                rho(z, polar(s, 2.0 * math.pi * k / 10_000)) for k in range(10_000)
            )
            assert observed >= bound - 1e-12


@settings(max_examples=300)
@given(disk_points, disk_points, disk_points)
def test_distance_strong_triangle_inequality(z, w, x):
    # the pseudo-hyperbolic form of the Poincare triangle inequality:
    # atanh rho is additive along geodesics
    a, b = rho(z, w), rho(w, x)
    assert rho(z, x) <= (a + b) / (1.0 + a * b) + 1e-12


def test_radial_separation_bound_is_attained_on_the_ray():
    # on the positive real axis the aligned point realises the bound exactly
    for r, m in [(0.0, 0.5), (0.3, 0.6), (0.7, 0.9), (0.5, 0.95), (0.9, 0.999)]:
        assert rho(complex(r), complex(m)) == pytest.approx(
            radial_separation_bound(m, r), rel=1e-13)
    assert radial_separation_bound(0.5, 0.0) == 0.5


def test_radial_separation_bound_is_monotone():
    # a farther tail (larger m) separates more, a farther anchor (larger r) less
    grid = [0.999 * i / 200 for i in range(201)]
    for r in grid[:-1]:
        ms = [m for m in grid if m > r]
        vals = [radial_separation_bound(m, r) for m in ms]
        assert all(u < v for u, v in zip(vals, vals[1:]))
    for m in grid[1:]:
        rs = [r for r in grid if r < m]
        vals = [radial_separation_bound(m, r) for r in rs]
        assert all(u > v for u, v in zip(vals, vals[1:]))


def test_rotation_only_maps_preserve_moduli():
    m = MobiusMap(rotation=1.234)
    for z, w in [(complex(0.1, 0.2), complex(-0.4, 0.5)), (0j, complex(0.9))]:
        assert abs(rho(m(z), m(w)) - rho(z, w)) <= 1e-14


# --- polydisk Caratheodory distance rho_max ---------------------------------

def test_polydisk_max_of_moduli_from_origin():
    assert rho_max((0j, 0j), (complex(0.5), complex(0.25))) == 0.5


def test_polydisk_coordinatewise_value():
    assert rho_max(
        (complex(0.5), 0j), (complex(0.25), 0j)
    ) == 2.0 / 7.0


@settings(max_examples=200)
@given(disk_points, disk_points)
def test_polydisk_collapses_to_disk_for_n1(z, w):
    assert rho_max((z,), (w,)) == rho(z, w)


@settings(max_examples=150)
@given(st.lists(st.tuples(disk_points, disk_points), min_size=2, max_size=4),
       st.data())
def test_polydisk_permutation_invariance(pairs, data):
    zs = tuple(p[0] for p in pairs)
    ws = tuple(p[1] for p in pairs)
    perm = data.draw(st.permutations(range(len(pairs))))
    base = rho_max(zs, ws)
    permuted = rho_max(
        tuple(zs[i] for i in perm), tuple(ws[i] for i in perm)
    )
    assert base == permuted


@settings(max_examples=150)
@given(st.lists(st.tuples(disk_points, disk_points, disk_points,
                          st.floats(0.0, 2.0 * math.pi)),
                min_size=1, max_size=4))
def test_polydisk_componentwise_mobius_invariance(rows):
    zs = tuple(r[0] for r in rows)
    ws = tuple(r[1] for r in rows)
    maps = [MobiusMap(center=r[2], rotation=r[3]) for r in rows]
    base = rho_max(zs, ws)
    moved = rho_max(
        tuple(m(z) for m, z in zip(maps, zs)),
        tuple(m(w) for m, w in zip(maps, ws)),
    )
    assert abs(moved - base) <= 1e-12


# --- validation --------------------------------------------------------------

def test_polydisk_dimension_mismatch():
    with pytest.raises(PointError, match="has 1 coordinates, expected 2"):
        require_interior_polydisk_point((0j,), 2)
    with pytest.raises(PointError, match="has 3 coordinates, expected 2"):
        require_interior_polydisk_point((0j, 0j, 0j), 2)


def test_point_outside_disk_rejected():
    with pytest.raises(PointError, match="not strictly inside the unit disk"):
        require_disk_point(complex(1.0))
    with pytest.raises(PointError, match="not strictly inside the unit disk"):
        require_disk_point(complex(0.8, 0.8))
    with pytest.raises(PointError, match="not a finite complex number"):
        require_disk_point(complex(math.nan, 0.0))
    with pytest.raises(PointError, match="coordinate 1 .* not strictly inside"):
        require_interior_polydisk_point((0j, complex(0.8, 0.8)), 2)
    # coordinate 0 is boundary-adjacent, coordinate 1 outside the disk: the
    # disk check runs over every coordinate before the interior check
    boundary_adjacent = complex(1.0 - 1e-13)
    with pytest.raises(PointError, match=r"coordinate 1 \(1\.5\+0j\) is not strictly inside"):
        require_interior_polydisk_point((boundary_adjacent, complex(1.5)), 2)
    with pytest.raises(PointError, match="coordinate 0 .* boundary-adjacent"):
        require_interior_polydisk_point((boundary_adjacent, 0j), 2)


def test_interior_point_margin():
    inside = complex(1.0 - 2e-12)
    assert require_interior_point(inside) == inside
    with pytest.raises(PointError, match="center .* boundary-adjacent"):
        require_interior_point(complex(0.0, 1.0 - 1e-13), "center")
    with pytest.raises(PointError, match="not strictly inside the unit disk"):
        require_interior_point(complex(-1.0))
