"""Batched family generation and the chunked truncation loop, against point(k)
and against a per-puncture reference loop kept here."""

import cmath
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from squeezefn.chunked import (
    _candidates,
    _distances,
    _next_stop,
    _offsets,
    _spread,
    _stop_level,
    _tail_start,
)
from squeezefn.domains import (
    _TAIL_LIMIT_INDEX,
    BoundaryOrbitFamily,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    RadialFamily,
    SequencePunctures,
    _cartesian,
    parse_domain_spec,
)
from squeezefn.hyperbolic import (
    PointError,
    radial_separation_bound,
    require_interior_point,
    require_interior_polydisk_point,
    rho,
    rho_max,
)
from squeezefn.invariants import (
    _SEQUENCE_CAP,
    COLLISION_EPS,
    CertificationError,
    InvariantValue,
    _measure,
    _tail_stops,
    lower_bound_certificate,
    polydisk_squeezing_punctured,
    squeezing_punctured_disk,
)


def bits(x: float):
    return repr(x), math.copysign(1.0, x)


def unchecked(family, n=None):
    """The sequence domain of a planar ``family``, of dimension n if given,
    built without the domain's checks: chunk and puncture do not use them,
    and a family the checks reject (at theta = 0 and small q its first
    points meet within the separation floor) still has chunks to compare."""
    cls = SequencePunctures if n is None else PolySequencePunctures
    domain = object.__new__(cls)
    object.__setattr__(domain, "family", family)
    if n is not None:
        object.__setattr__(domain, "n", n)
    return domain


def poly(n, q, theta):
    return unchecked(RadialFamily(q, theta), n)


# --- domain chunks against puncture(k) and tail_lower_bound(n) ----------------

thetas = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 2.3, -2.3]),
                   st.floats(-50.0, 50.0, allow_nan=False))
families = st.one_of(
    st.builds(RadialFamily, q=st.floats(1e-3, 1.0, exclude_max=True), theta=thetas).map(unchecked),
    st.builds(BoundaryOrbitFamily, c=st.floats(1e-3, 1.0, exclude_max=True),
              p=st.one_of(st.sampled_from([1.0, 2.0, 3.0, 6.0]), st.floats(0.05, 6.0)),
              theta=thetas).map(unchecked),
    st.builds(poly, n=st.integers(1, 3),
              q=st.floats(1e-3, 1.0, exclude_max=True), theta=thetas),
)
windows = st.tuples(st.one_of(st.integers(0, 40), st.integers(_SEQUENCE_CAP - 40, _SEQUENCE_CAP)),
                    st.integers(1, 40))


def tie_c(k: int, p: int) -> float:
    """The c at which 1 - c / k**p rounds from a tie when k**p is libm's pow,
    for a k whose k**p is not a float: the correctly rounded integer power
    differs from libm's there (k**3 at k = 208069, k**6 at k = 457), and
    with this c the modulus and the tail bound differ too."""
    return max(float(k**p), math.pow(k, p)) / 2**54


@settings(max_examples=300, deadline=None)
@given(families, windows)
@example(unchecked(RadialFamily(q=0.99, theta=-0.0)), (0, 8))
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=1.0, theta=0.0)), (_SEQUENCE_CAP - 8, 8))
@example(poly(n=2, q=0.5, theta=-0.0), (0, 3))
# whole-number p: exact int64 powers while every k**p < 2**53, math.pow beyond
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=3.0, theta=2.3)), (208022, 40))  # 208063**3 < 2**53
@example(unchecked(BoundaryOrbitFamily(c=tie_c(208069, 3), p=3.0, theta=2.3)), (208060, 40))
@example(unchecked(BoundaryOrbitFamily(c=tie_c(208069, 3), p=3, theta=2.3)),
         (208060, 40))  # a Python int p
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=6.0, theta=2.3)), (0, 40))
@example(unchecked(BoundaryOrbitFamily(c=tie_c(457, 6), p=6.0, theta=2.3)), (420, 40))
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=2, theta=2.3)), (0, 40))  # a Python int p
# signed zero and subnormal angles: bits() compares the signs of zeros too
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=2.0, theta=-0.0)), (0, 8))
@example(unchecked(RadialFamily(q=0.5, theta=0.0)), (0, 8))
@example(unchecked(RadialFamily(q=0.5, theta=5e-324)), (0, 8))
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=1.0, theta=-5e-324)), (_SEQUENCE_CAP - 8, 8))
# a Python int theta beyond 2**53: theta * 3 is exact in ints but not in floats
@example(unchecked(RadialFamily(q=0.5, theta=2**53 + 1)), (0, 8))
def test_family_chunk_is_bitwise_point_and_tail(domain, window):
    start, width = window
    stop = start + width
    re, im, tails = domain.chunk(start, stop)
    assert len(tails) == width
    for i, k in enumerate(range(start + 1, stop + 1)):
        point, planar = domain.puncture(k), domain.family.point(k)
        if isinstance(point, tuple):  # the family's point in coordinate 0, +0j elsewhere
            assert [bits(c.real) + bits(c.imag) for c in point] == (
                [bits(planar.real) + bits(planar.imag)] + [bits(0.0) * 2] * (domain.n - 1))
            point = point[0]  # a polydisk family's chunk is its coordinate 0
        x, y = float(re[i]), float(im[i])
        assert (bits(x), bits(y)) == (bits(point.real), bits(point.imag)), (k, point)
        assert bits(float(tails[i])) == bits(domain.tail_lower_bound(k)), k


# cmath.exp at huge arguments: any theta the parser accepts (theta * k finite
# for every k <= _TAIL_LIMIT_INDEX), at indices up to _TAIL_LIMIT_INDEX
HUGE_THETA = sys.float_info.max / _TAIL_LIMIT_INDEX
while not math.isfinite(HUGE_THETA * _TAIL_LIMIT_INDEX):
    HUGE_THETA = math.nextafter(HUGE_THETA, 0.0)


def or_reject(cls):
    def build(*args):
        try:
            return cls(*args)
        except DomainError:  # e.g. two of the first 64 points closer than the floor
            reject()
    return build


huge_thetas = st.one_of(st.sampled_from([1e302, -1e302, HUGE_THETA, -HUGE_THETA, -0.0, 1e15]),
                        st.floats(-HUGE_THETA, HUGE_THETA))
unit_params = st.floats(1e-3, 1.0, exclude_max=True)
huge_families = st.one_of(
    st.builds(or_reject(RadialFamily), unit_params, huge_thetas).map(unchecked),
    st.builds(or_reject(BoundaryOrbitFamily), unit_params, st.floats(0.05, 6.0),
              huge_thetas).map(unchecked),
    st.builds(or_reject(poly), st.integers(1, 3), unit_params, huge_thetas),
)
far_windows = st.tuples(st.one_of(st.integers(0, _TAIL_LIMIT_INDEX),
                                  st.integers(_TAIL_LIMIT_INDEX - 40, _TAIL_LIMIT_INDEX)),
                        st.integers(1, 40)).map(
    lambda w: (min(w[0], _TAIL_LIMIT_INDEX - w[1]), w[1]))


@settings(max_examples=200, deadline=None)
@given(huge_families, far_windows)
@example(unchecked(RadialFamily(q=0.5, theta=1e302)), (_TAIL_LIMIT_INDEX - 40, 40))
@example(unchecked(BoundaryOrbitFamily(c=0.5, p=1.0, theta=-HUGE_THETA)),
         (_TAIL_LIMIT_INDEX - 8, 8))
@example(poly(n=2, q=0.5, theta=-0.0), (_TAIL_LIMIT_INDEX - 3, 3))
def test_family_chunk_is_bitwise_point_and_tail_at_huge_angles(domain, window):
    # the same comparison as above, over windows ending at most at _TAIL_LIMIT_INDEX
    test_family_chunk_is_bitwise_point_and_tail.hypothesis.inner_test(domain, window)


@pytest.mark.parametrize("family", [
    lambda theta: RadialFamily(q=0.9, theta=theta),
    lambda theta: BoundaryOrbitFamily(c=0.5, p=2.0, theta=theta),
], ids=["radial-q09", "orbit-p2"])
def test_negative_zero_angle_is_the_zero_angle(family):
    # at theta = -0.0 the punctures' imaginary parts are -0.0, not +0.0; the
    # kernel squares differences, so values, indices and certificates agree
    plus, minus = (SequencePunctures(family=family(theta)) for theta in (0.0, -0.0))
    assert bits(minus.puncture(3).imag) == bits(-0.0)
    for z in (0.5 + 0.1j, -0.3 + 0j, 0.95j, complex(0.97, -0.01), -0.999 + 0j):
        value = squeezing_punctured_disk(plus, z)
        assert repr(squeezing_punctured_disk(minus, z)) == repr(value), z
        for claim in (value.value, math.nextafter(value.value, 1.0)):
            assert repr(lower_bound_certificate(minus, z, claim)) == repr(
                lower_bound_certificate(plus, z, claim)), (z, claim)


DENSE = 2**17


@pytest.mark.parametrize("family", [
    BoundaryOrbitFamily(c=0.5, p=1.0, theta=2.3),
    BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3),
    RadialFamily(q=0.99, theta=1.0),
], ids=["orbit-p1", "orbit-p2", "radial-q099"])
def test_family_chunk_is_bitwise_point_at_every_index(family):
    # the deep families' first 2**17 punctures in one chunk: the windows above
    # are 40 wide, and numpy's cos and sin must be libm's at every angle here
    domain = SequencePunctures(family=family)
    re, im, tails = domain.chunk(0, DENSE)
    points = np.array([domain.puncture(k) for k in range(1, DENSE + 1)], dtype=complex)
    bounds = np.array([domain.tail_lower_bound(k) for k in range(1, DENSE + 1)])
    for name, got, expect in (("re", re, points.real), ("im", im, points.imag),
                              ("tail", tails, bounds)):
        got, expect = (np.ascontiguousarray(a).view(np.uint64) for a in (got, expect))
        bad = np.flatnonzero(got != expect)
        assert bad.size == 0, f"{name} differs at {bad.size} indices, first k = {bad[0] + 1}"


LISTINGS = [
    FinitePunctures((0.5 + 0j, -0.0 - 0.5j, complex(0.3, -0.0))),
    SequencePunctures(prefix=(0.5 + 0j, 0.5j, -0.25 + 0.25j), tail_constant=0.9),
    PolySequencePunctures(n=2, prefix=((0.5 + 0j, -0j), (0j, complex(-0.0, 0.5)), (0.3j, 0.3 + 0j))),
]


@pytest.mark.parametrize("domain", LISTINGS, ids=["finite", "tail-constant", "poly"])
def test_listing_chunk_is_bitwise_point_and_tail(domain):
    # every window of a listing: its points, and its tails, which are +0.0 up
    # to the last point and then the tail constant (NaN for None)
    count = domain.known_count()
    for start in range(count):
        for stop in range(start + 1, count + 1):
            re, im, tails = domain.chunk(start, stop)
            for i, k in enumerate(range(start + 1, stop + 1)):
                point = domain.puncture(k)
                got = [complex(x, y) for x, y in zip(np.atleast_2d(re)[:, i], np.atleast_2d(im)[:, i])]
                want = list(point) if isinstance(point, tuple) else [point]
                assert [bits(c.real) + bits(c.imag) for c in got] == [
                    bits(c.real) + bits(c.imag) for c in want], (start, stop, k)
                tail = domain.tail_lower_bound(k)
                assert bits(float(tails[i])) == bits(math.nan if tail is None else tail), (start, stop, k)


# --- the chunked evaluators against the per-puncture loop ---------------------


def reference_min(domain, z, anchor, dist):
    """The per-puncture certified-truncation loop, one puncture at a time."""
    count = domain.known_count()
    best, best_idx, examined = math.inf, 0, 0
    while True:
        if best_idx and count is None:
            m = domain.tail_lower_bound(examined)
            if m > anchor and radial_separation_bound(m, anchor) > best:
                return InvariantValue(best, truncation_index=examined,
                                      tail_bound_used=m, attained_index=best_idx)
        if examined == count:
            break
        if examined >= _SEQUENCE_CAP:
            raise CertificationError(
                f"tail bound failed to certify within {_SEQUENCE_CAP} punctures")
        examined += 1
        d = dist(z, domain.puncture(examined))
        if d < COLLISION_EPS:
            raise PointError(f"query point coincides with puncture {examined} "
                             f"(distance {d:.3e} < {COLLISION_EPS:g})")
        if d < best:
            best, best_idx = d, examined
    m = domain.tail_lower_bound(count)
    if m is None:
        return InvariantValue(best, truncation_index=0, attained_index=best_idx)
    if m <= anchor or radial_separation_bound(m, anchor) < best:
        raise CertificationError(
            f"sequence exhausted without certification: tail constant {m!r} "
            f"gives bound below the prefix minimum {best!r} at this point")
    return InvariantValue(best, truncation_index=count, tail_bound_used=m,
                          attained_index=best_idx)


def reference_squeezing(domain, z):
    if isinstance(domain, PolySequencePunctures):
        z = require_interior_polydisk_point(z, domain.n)
        return reference_min(domain, z, max(abs(c) for c in z), rho_max)
    z = require_interior_point(z)
    return reference_min(domain, z, abs(z), rho)


def reference_certificate(domain, z, claimed):
    """(passed, observed, violating_index, details) of the per-puncture loop."""
    z = require_interior_point(z)
    anchor = abs(z)
    count = domain.known_count()
    examined = 0
    while True:
        m = domain.tail_lower_bound(examined)
        if m is None:
            return True, (claimed,), None, f"all {examined} punctures covered, no tail"
        if m > anchor and radial_separation_bound(m, anchor) >= claimed:
            return (True, (m,), None,
                    f"examined {examined} punctures; tail bound m = {m!r} covers the rest")
        if count is not None and examined >= count:
            return False, (m,), None, f"tail constant {m!r} cannot cover the claim"
        if examined >= _SEQUENCE_CAP:
            return (False, (claimed,), None,
                    f"tail failed to cover within {_SEQUENCE_CAP} punctures")
        examined += 1
        fa = rho(z, domain.puncture(examined))
        if fa < claimed:
            return (False, (fa,), examined,
                    f"puncture {examined} image modulus {fa!r} < {claimed!r}")


def outcome(f):
    try:
        return repr(f())
    except (PointError, CertificationError) as e:
        return f"{type(e).__name__}: {e}"


def certificate(domain, z, claimed):
    out = lower_bound_certificate(domain, z, claimed)
    return out.passed, out.observed, out.violating_index, out.details


def claims_around(value: float):
    below = [value * 0.5, value - 2e-12, math.nextafter(value - 1e-12, 0.0), value - 1e-12,
             math.nextafter(value, 0.0)]
    above = [math.nextafter(value, 1.0), value + 1e-13, min(value * 1.5, 0.999)]
    return [c for c in below + [value] + above if 0.0 < c < 1.0]


def evaluate_at(domain, z):
    if isinstance(domain, PolySequencePunctures):
        return polydisk_squeezing_punctured(domain, z)
    return squeezing_punctured_disk(domain, z)


def check_against_reference(domain, z):
    got = outcome(lambda: evaluate_at(domain, z))
    assert got == outcome(lambda: reference_squeezing(domain, z))
    if isinstance(domain, PolySequencePunctures):
        return
    try:
        value = squeezing_punctured_disk(domain, z).value
    except (PointError, CertificationError):
        value = 0.01
    for claimed in claims_around(value):
        assert (outcome(lambda: certificate(domain, z, claimed))
                == outcome(lambda: reference_certificate(domain, z, claimed))), claimed


P1 = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3}
DEEP = [  # the reference points of the deep benchmark workload
    (P1, -0.99), (P1, -0.999), (P1, -0.9999), (P1, -0.99999),
    ({"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3}, -0.99999),
    ({"kind": "sequence", "family": "radial", "q": 0.99, "theta": 1.0}, -0.99),
    ({"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5], [-0.6, 0.2]],
      "tail_modulus_constant": 0.99}, 0.1 + 0.1j),
    ({"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5, "theta": 1.0},
     (0.3 + 0.2j, -0.1j)),
    ({"kind": "poly_sequence", "n": 3, "family": "radial", "q": 0.5, "theta": 1.0},
     (0.3 + 0.2j, -0.1j, 0.25 + 0j)),
]


@pytest.mark.parametrize("doc, z", DEEP, ids=[f"{d.get('family', 'listed')}-{z}" for d, z in DEEP])
def test_deep_reference_points_match_the_per_puncture_loop(doc, z):
    check_against_reference(parse_domain_spec(doc), complex(z) if not isinstance(z, tuple) else z)


P2 = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3}
RADIAL_Q099 = {"kind": "sequence", "family": "radial", "q": 0.99, "theta": 1.0}
HUGE_P1 = dict(P1, theta=1e302)  # angles too large to reduce: no puncture is left out
DEEP_PINS = [  # (doc, z, value, truncation_index, tail_bound_used, attained_index)
    (P1, -0.99, 0.2739146045638394, 87, 0.9943181818181818, 56),
    (P1, -0.999, 0.7861437720583353, 4174, 0.9998802395209581, 4151),
    (P1, -0.9999, 0.33109768016427343, 9949, 0.9999497487437186, 4151),
    (P1, -0.99999, 0.4369645238918503, 127608, 0.9999960817810656, 126878),
    (P2, -0.99999, 0.9998865282136176, 29685, 0.9999999994326296, 56),
]


@pytest.mark.parametrize("doc, z, value, index, tail, attained", DEEP_PINS,
                         ids=[f"p{d['p']:g}-{z}" for d, z, *_ in DEEP_PINS])
def test_deep_reference_points_are_pinned(doc, z, value, index, tail, attained):
    # pinned values catch drift that point(k) and the chunks would share
    got = squeezing_punctured_disk(parse_domain_spec(doc), complex(z))
    assert (repr(got.value), got.truncation_index, repr(got.tail_bound_used),
            got.mesh_error, got.attained_index) == (repr(value), index, repr(tail), 0.0, attained)


# --- the candidate window of a single-point scan ----------------------------------


def left_out(z, bound, y):
    """Mask of the chunk positions that the window at ``bound`` leaves out."""
    return _offsets(z, y) > _spread(z, bound, y)


def window_case(family, start, width, z):
    """The angles of a chunk and the _distances of its punctures (of
    coordinate 0 in a polydisk domain) from z."""
    y = family.angles(start, start + width)
    re, im = _cartesian(family.moduli(np.arange(start + 1, start + width + 1)), y)
    return y, _distances(z, re, im)


window_thetas = st.one_of(st.sampled_from([1e302, -1e302, 2.3, 1.0, -0.0, 1e15]),
                          st.floats(-1e302, 1e302), st.floats(-50.0, 50.0))
window_families = st.one_of(
    st.builds(or_reject(RadialFamily), unit_params, window_thetas),
    st.builds(or_reject(BoundaryOrbitFamily), unit_params, st.floats(0.05, 6.0), window_thetas),
)


@settings(max_examples=300, deadline=None)
@given(window_families, st.integers(0, 10**6), st.integers(1, 2000),
       st.floats(0.0, 11.9), st.floats(-math.pi, math.pi), st.data())
@example(BoundaryOrbitFamily(0.5, 1.0, 2.3), 8192, 2000, 5.0, math.pi, None)
def test_window_leaves_out_only_punctures_beyond_the_bound(family, start, width, u, arg, data):
    z = cmath.rect(1.0 - 10.0**-u, arg)  # u = 0 is z = 0
    y, dist = window_case(family, start, width, z)
    i = data.draw(st.integers(0, width - 1)) if data else int(dist.argmin())
    at_i = [dist[i], math.nextafter(dist[i], 0.0)]  # the distance of puncture i, a float below
    above = [math.nextafter(dist[i], 1.0)] + ([data.draw(st.floats(0.0, 1.0, exclude_min=True))]
                                              if data else [])
    for bound in at_i + above:
        out = left_out(z, bound, y)
        assert (dist[out] > bound).all(), (bound, dist[out].min())
        assert bound not in at_i or not out[i], (i, bound)


@pytest.mark.parametrize("doc, mod", [(P1, 0.99999), (P2, 0.99999), (RADIAL_Q099, 0.99), (HUGE_P1, 0.99)],
                         ids=["p1", "p2", "radial", "theta-1e302"])
def test_window_at_the_deep_points(doc, mod):
    # near the boundary almost every puncture is left out; the attained index
    # is kept at its own distance and one float below it
    domain, z = parse_domain_spec(doc), complex(-mod, 0.0)
    got = squeezing_punctured_disk(domain, z)
    start = max(0, got.attained_index - 1000)
    y, dist = window_case(domain.family, start, 2000, z)
    i = got.attained_index - start - 1
    assert bits(float(dist[i])) == bits(got.value)
    for bound in (got.value, math.nextafter(got.value, 0.0)):
        out = left_out(z, bound, y)
        assert not out[i] and (dist[out] > bound).all()
        if doc is HUGE_P1:  # angles too large to reduce: no window
            assert not out.any()
        else:
            assert out.sum() > 1900


# --- the certified tail_index of a family and the scan's tail skip ------------

# about the largest q whose tail bound passes the parse check: m(10**6) > 1 - 1e-6
Q_LIMIT = 1.0 - 1.4e-5
TAIL_INDEX_CAP = 2**53
tail_families = st.one_of(
    st.builds(RadialFamily, q=st.one_of(st.floats(1e-3, Q_LIMIT), st.floats(0.999, Q_LIMIT),
                                        st.just(Q_LIMIT)), theta=st.just(1.0)),
    st.builds(BoundaryOrbitFamily, c=unit_params,
              p=st.one_of(st.sampled_from([1.0, 2.0, 3.0, 6.0]), st.floats(0.5, 6.0)),
              theta=st.just(1.0)),
    # flat tails: (n+1)**p rounds to 1, so every tail is the float 1 - c
    st.builds(BoundaryOrbitFamily, c=st.one_of(st.just(1e-7), st.floats(1e-9, 1e-6)),
              p=st.just(1e-20), theta=st.just(1.0)),
)
# indices around where whole-number powers k**p leave the int64 range of
# the chunks (2**53: k = 94906265 for p = 2, 208063 for p = 3, 455 for p = 6)
tail_targets = st.one_of(st.integers(0, 100), st.integers(0, 10**7),
                         st.integers(94_906_200, 94_906_330), st.integers(208_000, 208_130),
                         st.integers(400, 520))


@settings(max_examples=400, deadline=None)
@given(tail_families, tail_targets, st.floats(0.0, 1.0, exclude_max=True), st.integers(-2, 1),
       st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)))
@example(RadialFamily(Q_LIMIT, 1.0), 10**6, 0.5, 0, None)
@example(BoundaryOrbitFamily(0.5, 3.0, 1.0), 208_063, 0.0, -1, None)
@example(BoundaryOrbitFamily(0.5, 2.0, 1.0), 94_906_265, 0.999, 0, None)
@example(BoundaryOrbitFamily(1e-7, 1e-20, 1.0), 0, 0.5, 0, None)
@example(BoundaryOrbitFamily(1e-7, 1e-20, 1.0), 0, 0.5, 1, None)
def test_tail_index_is_a_certified_lower_bound_near_the_stop(family, target, share, shift, bound):
    # the level of a chunk: the least float tail that _tail_stops accepts, for
    # an anchor and a running minimum; drawn free, or from the separation
    # bound of the target index's tail, shifted by a few floats
    m = family.tail_modulus(target)
    anchor = share * min(m, 1.0 - 1e-12)
    if bound is None:
        bound = radial_separation_bound(m, anchor)
        for _ in range(abs(shift)):
            bound = math.nextafter(bound, math.copysign(math.inf, shift))
    level = _stop_level(anchor, bound)
    if level == math.inf:
        assert not bound < 1.0
        return
    assert _tail_stops(level, anchor, bound)
    assert not _tail_stops(math.nextafter(level, 0.0), anchor, bound)
    n0 = unchecked(family).tail_index(level)
    assert 0 <= n0 <= TAIL_INDEX_CAP
    low = max(0, n0 - 64)
    assert all(family.tail_modulus(n) < level for n in range(low, n0)), n0
    if n0 > low + 1:  # the chunk's tails m(low + 1) .. m(n0 - 1), from int64 powers or math.pow
        assert (unchecked(family).tails(low, n0 - 1) < level).all(), n0
    # the first real stop is a few indices on; beyond 10**8 the bound's
    # relative margin, about 1e-13, may be worth more than a few indices
    if n0 < 10**8:
        assert any(family.tail_modulus(n) >= level for n in range(n0, n0 + 4)), n0
    if getattr(family, "p", None) == 1e-20:  # flat tails reach the level at once or never
        assert n0 in (0, TAIL_INDEX_CAP)


FLAT = BoundaryOrbitFamily(c=1e-7, p=1e-20, theta=2.3)
TAIL_SKIP = [  # (domain, point): tails computed only where the stop can fall
    # flat tails: no tail covers, so every scan of a value runs to the cap
    (SequencePunctures(family=FLAT), complex(0.3, 0.1)),
    # q at the parse limit: the first punctures lie near 0, m(n) creeps up
    (SequencePunctures(family=RadialFamily(q=Q_LIMIT, theta=1.0)), complex(0.004, 0.002)),
    (SequencePunctures(family=RadialFamily(q=Q_LIMIT, theta=1.0)), complex(-0.02, 0.0)),
    # non-whole p near the boundary
    (SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=1.5, theta=2.3)), complex(-0.999, 0.0)),
    (SequencePunctures(family=BoundaryOrbitFamily(c=0.3, p=2.7, theta=1.0)), cmath.rect(0.9999, 2.0)),
    (SequencePunctures(family=BoundaryOrbitFamily(c=0.01, p=0.8, theta=2.3)), complex(-0.99, 0.0)),
    # polydisk families, near the boundary in coordinate 0 and in another
    (PolySequencePunctures(n=2, family=RadialFamily(q=0.99, theta=1.0)), (complex(-0.999, 0.0), 0.5j)),
    (PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)),
     (cmath.rect(0.9999, 1.0), 0.1 + 0j, -0.2j)),
    (PolySequencePunctures(n=2, family=RadialFamily(q=0.5, theta=1.0)), (0.1 + 0j, complex(0.0, 0.999))),
]


@pytest.mark.parametrize("domain, z", TAIL_SKIP, ids=[
    "flat", "q-limit-small-z", "q-limit", "p1.5", "p2.7", "p0.8-c0.01", "poly-n2", "poly-n3", "poly-far-coordinate"])
def test_tail_skip_cases_match_the_per_puncture_loop(domain, z):
    check_against_reference(domain, z)


class LooseTailIndex(SequencePunctures):
    """A sequence domain whose tail_index is a loose but valid lower bound:
    the scan must then find stops well past the index it starts tails from."""

    def tail_index(self, level):
        return max(0, super().tail_index(level) // 2 - 50)


@pytest.mark.parametrize("doc, z", [DEEP[i] for i in (0, 1, 2, 4, 5, 6)],
                         ids=["p1-0.99", "p1-0.999", "p1-0.9999", "p2", "radial", "listed"])
def test_a_loose_tail_index_changes_no_outcome(doc, z):
    domain = parse_domain_spec(doc)
    loose = LooseTailIndex(prefix=domain.prefix, family=domain.family,
                           tail_constant=domain.tail_constant)
    assert squeezing_punctured_disk(loose, complex(z)) == squeezing_punctured_disk(domain, complex(z))
    check_against_reference(loose, complex(z))


def test_sequence_cap_matches_the_per_puncture_loop():
    domain = parse_domain_spec(P1)
    z = complex(-0.999999, 0.0)
    with pytest.raises(CertificationError, match=f"within {_SEQUENCE_CAP} punctures"):
        squeezing_punctured_disk(domain, z)
    check_against_reference(domain, z)


points = st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(0.0, 2.0 * math.pi))
listed = st.lists(points.filter(lambda p: abs(p) < 0.98), min_size=1, max_size=12)
sequence_domains = st.one_of(
    st.builds(or_reject(lambda q, theta: SequencePunctures(family=RadialFamily(q, theta))),
              st.floats(0.3, 0.995), thetas),
    st.builds(or_reject(lambda c, p, theta: SequencePunctures(family=BoundaryOrbitFamily(c, p, theta))),
              st.floats(0.1, 0.9), st.floats(1.0, 3.0), thetas),
    st.builds(or_reject(lambda pts, tail: SequencePunctures(prefix=tuple(pts), tail_constant=tail)),
              listed, st.one_of(st.none(), st.floats(0.05, 0.999))),
    st.builds(or_reject(lambda pts: FinitePunctures(tuple(pts))), listed),
)


def near_boundary_examples(test):
    """@examples at |z| = 1 - 2**-j, j <= 14, opposite the first punctures (the
    truncation profile's points) and at an angle in between, where the
    candidate window of a single-point scan spans about 2**(1 - j) radians."""
    for doc in (P1, P2, RADIAL_Q099, HUGE_P1):
        for j in range(1, 15):
            for z in (complex(2.0**-j - 1.0, 0.0), cmath.rect(1.0 - 2.0**-j, 2.0)):
                test = example(parse_domain_spec(doc), z, 0, 1.0)(test)
    return test


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence_domains, points, st.integers(0, 4), st.sampled_from([1.0, 1.0 + 1e-16, 1.0 - 1e-15]))
@near_boundary_examples
def test_chunked_evaluators_match_the_per_puncture_loop(domain, z, on_puncture, scale):
    if on_puncture:  # a query point on or within an ulp of a puncture
        count = domain.known_count() or 30
        z = domain.puncture(min(on_puncture * 7, count)) * scale
    check_against_reference(domain, z)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_chunked_polydisk_matches_the_per_puncture_loop(data, n):
    coords = st.lists(points.filter(lambda p: abs(p) < 0.98), min_size=n, max_size=n)
    try:
        if data.draw(st.booleans()):
            domain = PolySequencePunctures(n=n, family=RadialFamily(
                data.draw(st.floats(0.3, 0.99)), data.draw(thetas)))
        else:
            domain = PolySequencePunctures(
                n=n, prefix=tuple(tuple(c) for c in data.draw(st.lists(coords, min_size=1, max_size=8))),
                tail_constant=data.draw(st.one_of(st.none(), st.floats(0.05, 0.999))))
    except DomainError:
        reject()
    z = tuple(data.draw(points) for _ in range(n))
    if data.draw(st.booleans()) and all(abs(c) < 0.99 for c in domain.puncture(1)):
        z = domain.puncture(1)
    check_against_reference(domain, z)


@pytest.mark.parametrize("step", [-1, 0, 1])
@pytest.mark.parametrize("domain, m", [
    # at the origin: m(0) = 1 - 0.3 of the radial family, checked before any puncture
    (SequencePunctures(family=RadialFamily(q=0.3, theta=1.0)), 0.7),
    # the tail constant 0.4, checked after the listed puncture at distance 0.5
    (SequencePunctures(prefix=(0.5 + 0j,), tail_constant=0.4), 0.4),
], ids=["family-m0", "listed-tail"])
def test_certificate_tail_covers_exactly_at_the_floor(domain, m, step):
    floor = {-1: math.nextafter(m, 0.0), 0: m, 1: math.nextafter(m, 1.0)}[step]
    got = certificate(domain, 0j, floor)
    assert got == reference_certificate(domain, 0j, floor)
    assert got[0] is (m >= floor)


@pytest.mark.parametrize("step", [-1, 0, 1])
def test_value_tail_constant_covers_exactly_at_a_tie(step):
    # at z = 0 the listed point lies at distance 0.5, and the separation bound
    # of a tail constant m is m: m = 0.5 covers the minimum by the >= of a tail
    # constant, the float below it does not
    m = {-1: math.nextafter(0.5, 0.0), 0: 0.5, 1: math.nextafter(0.5, 1.0)}[step]
    domain = SequencePunctures(prefix=(0.5 + 0j,), tail_constant=m)
    got = outcome(lambda: squeezing_punctured_disk(domain, 0j))
    assert got == outcome(lambda: reference_squeezing(domain, 0j))
    if step < 0:
        assert got == ("CertificationError: sequence exhausted without certification: tail "
                       f"constant {m!r} gives bound below the prefix minimum 0.5 at this point")
    else:
        assert got == repr(InvariantValue(0.5, truncation_index=1, tail_bound_used=m,
                                          attained_index=1))


# --- the scalar head of a family scan -----------------------------------------

RADIAL_Q05 = {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0}
POLY_Q05 = {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5, "theta": 1.0}
HEAD = 8  # _GRID_FIRST_CHUNK: punctures a family scan measures in the scalar pass before numpy
HEAD_STOPS = [  # (doc, z, N): values whose scan stops at N, around the end of the head
    (RADIAL_Q05, -0.22 - 0.82j, 7), (RADIAL_Q05, 0.63 - 0.63j, 8), (RADIAL_Q05, 0.65 - 0.65j, 9),
    (P2, 0.68 - 0.39j, 7), (P2, 0.57 - 0.57j, 8), (P2, 0.59 - 0.59j, 9),
    (HUGE_P1, -0.49 + 0.13j, 7), (HUGE_P1, -0.27 + 0.47j, 8), (HUGE_P1, -0.28 + 0.48j, 9),
    (POLY_Q05, (-0.22 - 0.82j, 0.1j), 7), (POLY_Q05, (0.63 - 0.63j, 0.1j), 8),
    (POLY_Q05, (0.65 - 0.65j, 0.1j), 9),
]
HEAD_IDS = {id(RADIAL_Q05): "radial", id(P2): "orbit-p2", id(HUGE_P1): "theta-1e302", id(POLY_Q05): "poly"}


@pytest.mark.parametrize("doc, z, stop", HEAD_STOPS,
                         ids=[f"{HEAD_IDS[id(d)]}-N{n}" for d, _, n in HEAD_STOPS])
def test_stops_around_the_head_match_the_per_puncture_loop(doc, z, stop):
    domain = parse_domain_spec(doc)
    assert evaluate_at(domain, z).truncation_index == stop
    check_against_reference(domain, z)


@pytest.mark.parametrize("k", [HEAD, HEAD + 1])
@pytest.mark.parametrize("doc", [RADIAL_Q05, P2, HUGE_P1, POLY_Q05],
                         ids=["radial", "orbit-p2", "theta-1e302", "poly"])
def test_collisions_at_the_end_of_the_head(doc, k):
    # at a_k the tails before k do not exceed |z| = |a_k|, so the scan reaches it
    domain = parse_domain_spec(doc)
    z = domain.puncture(k)
    with pytest.raises(PointError, match=f"^query point coincides with puncture {k} "):
        evaluate_at(domain, z)
    check_against_reference(domain, z)


@pytest.mark.parametrize("doc, z", [(d, z) for d, z, n in HEAD_STOPS if n == HEAD + 1 and d is not POLY_Q05],
                         ids=["radial", "orbit-p2", "theta-1e302"])
def test_certificates_stop_inside_and_just_past_the_head(doc, z):
    # the separation bound of m(n) certifies a claim at n exactly; the float
    # above that of m(8) needs m(9), past the head
    domain = parse_domain_spec(doc)
    value = squeezing_punctured_disk(domain, z).value
    sep = [radial_separation_bound(domain.tail_lower_bound(n), abs(z)) for n in range(HEAD + 1)]
    for claimed, stop in [(sep[4], 4), (sep[HEAD - 1], HEAD - 1), (sep[HEAD], HEAD),
                          (math.nextafter(sep[HEAD], 1.0), HEAD + 1)]:
        assert claimed <= value
        got = certificate(domain, z, claimed)
        assert got == reference_certificate(domain, z, claimed)
        assert got[0] and got[3].startswith(f"examined {stop} punctures;"), (claimed, got)


# --- the seeded window of a value scan ----------------------------------------

RING = [cmath.rect(0.99, 2.0 * math.pi * (i + offset) / 8) for offset in (0.0, 0.5) for i in range(8)]


@pytest.mark.parametrize("z", RING, ids=[f"ring-{i}" for i in range(len(RING))])
def test_ring_points_match_the_per_puncture_loop(z):
    # the deep workload's ring at |z| = 0.99: a value's window is at its seed
    check_against_reference(parse_domain_spec(RADIAL_Q099), z)


def converted(domain, evaluate) -> int:
    """Punctures converted by one evaluation: chunk parts and scalar punctures
    (the scan's head and a seed), as scripts/truncation_profile.py counts them."""
    count = [0]
    cls = type(domain)
    convert, point = cls.parts, cls.puncture

    def parts(self, index, y):
        count[0] += len(index)
        return convert(self, index, y)

    def puncture(self, k):
        count[0] += 1
        return point(self, k)

    with mock.patch.multiple(cls, parts=parts, puncture=puncture):
        evaluate()
    return count[0]


@pytest.mark.parametrize("z", [complex(-0.99, 0.0)] + RING, ids=["ref"] + [f"ring-{i}" for i in range(len(RING))])
def test_a_ring_value_converts_about_what_its_certificate_does(z):
    # the seed measures HEAD punctures and its window reuses them; the
    # certificate's window is at its claim, the value
    domain = parse_domain_spec(RADIAL_Q099)
    value = squeezing_punctured_disk(domain, z).value
    by_value = converted(domain, lambda: squeezing_punctured_disk(domain, z))
    by_certificate = converted(domain, lambda: lower_bound_certificate(domain, z, value))
    assert by_value <= by_certificate + HEAD, (by_value, by_certificate)


def first_chunk(domain, z):
    """The running minimum after a value scan's scalar head at z and the
    angles of its first numpy chunk."""
    best = min(rho(z, domain.puncture(k)) for k in range(1, HEAD + 1))
    stop = _next_stop(HEAD, _tail_start(domain, abs(z), best))
    return best, domain.family.angles(HEAD, stop)


def radially_inside(domain, j, t):
    """A point on the ray of a_j, inside it: a_j is nearest arg z and at a
    distance whose stop level lies just above |a_j| = m(j - 1), so the
    certified _tail_start of that distance is below j."""
    return domain.puncture(j) * (1.0 - t)


RADIAL_Q099_DOMAIN = parse_domain_spec(RADIAL_Q099)
P1_DOMAIN = parse_domain_spec(P1)
LOOSE_Q099 = LooseTailIndex(family=RADIAL_Q099_DOMAIN.family)
FIRST_CHUNKS = [  # (domain, z, seeded)
    (RADIAL_Q099_DOMAIN, complex(-0.99, 0.0), True),
    (P1_DOMAIN, complex(-0.999, 0.0), True),
    (RADIAL_Q099_DOMAIN, RING[3], True),
    (LOOSE_Q099, complex(-0.99, 0.0), False),
    (RADIAL_Q099_DOMAIN, radially_inside(RADIAL_Q099_DOMAIN, 120, 1e-3), False),
    (RADIAL_Q099_DOMAIN, radially_inside(RADIAL_Q099_DOMAIN, 240, 1e-2), False),
    (P1_DOMAIN, radially_inside(P1_DOMAIN, 60, 1e-3), False),
]


@pytest.mark.parametrize("domain, z, seeded", FIRST_CHUNKS, ids=[
    "radial", "p1", "ring", "loose-radial", "inside-a120", "inside-a240", "p1-inside-a60"])
def test_seed_window_or_the_window_at_the_running_minimum(domain, z, seeded):
    # the first numpy chunk of a value scan: the window at the seed d* keeps
    # fewer punctures than the one at the running minimum; where a stop could
    # fall before the seed's puncture (_tail_start(d*) < its index: a loose
    # tail_index, or z on the ray of that puncture) the window stays at the
    # running minimum
    best, y = first_chunk(domain, z)
    index, dist = _candidates(domain, z, abs(z), COLLISION_EPS, best, HEAD, y, _measure(domain, z))
    at_best = np.flatnonzero(_offsets(z, y) <= _spread(z, best, y)) + (HEAD + 1.0)
    assert at_best.size > HEAD
    if seeded:
        assert set(index.tolist()) < set(at_best.tolist())
    else:
        assert index.tolist() == at_best.tolist()
    assert [bits(float(d)) for d in dist] == [bits(rho(z, domain.puncture(int(k)))) for k in index]
    check_against_reference(domain, z)


@pytest.mark.parametrize("doc, j", [(RADIAL_Q099, j) for j in (30, 60, 120, 240)] + [(P1, 30), (P1, 60)],
                         ids=[f"radial-a{j}" for j in (30, 60, 120, 240)] + ["p1-a30", "p1-a60"])
@pytest.mark.parametrize("t", [1e-3, 1e-2])
def test_points_radially_inside_a_puncture_match_the_per_puncture_loop(doc, j, t):
    domain = parse_domain_spec(doc)
    z = radially_inside(domain, j, t)
    got = squeezing_punctured_disk(domain, z)
    assert got.attained_index == got.truncation_index == j
    check_against_reference(domain, z)


class OverclaimingTail(SequencePunctures):
    """A family domain whose tail bounds run SHIFT indices ahead of its
    moduli, m'(n) = m(n + SHIFT), with a tail_index to match: its stop rule is
    unsound, and its punctures past a stop may come closer than the value.
    The scan must still give what the per-puncture loop gives, which stops
    by the same rule: a seed past such a stop must not move the window."""

    SHIFT = 200

    def tail_lower_bound(self, examined):
        return super().tail_lower_bound(examined + self.SHIFT)

    def tails(self, start, stop):
        return super().tails(start + self.SHIFT, stop + self.SHIFT)

    def tail_index(self, level):
        return max(0, super().tail_index(level) - self.SHIFT)


class OverclaimingByFifty(OverclaimingTail):
    SHIFT = 50


@pytest.mark.parametrize("domain, z", [(OverclaimingTail(family=RADIAL_Q099_DOMAIN.family), z) for z in RING[:8]]
                         + [(OverclaimingByFifty(family=P1_DOMAIN.family), z) for z in RING[4:8]],
                         ids=[f"radial-ring-{i}" for i in range(8)] + [f"p1-ring-{i}" for i in range(4, 8)])
def test_seed_changes_no_outcome_under_an_overclaiming_tail(domain, z):
    check_against_reference(domain, z)


TANGENT_INDICES = (47, 61, 89, 152, 215, 285)


def on_the_window_edge(domain, j, side, s=0.05):
    """A point at distance s from a_j whose ray from 0 through a_j is tangent
    to {w : rho(z, w) <= s} at a_j: z is the point at distance s along the
    geodesic through a_j orthogonal to its diameter, so a_j is nearest z on
    that diameter and lies on the edge of its own candidate window."""
    w = domain.puncture(j)
    u = side * 1j * s * w / abs(w)
    return (u + w) / (1.0 + w.conjugate() * u)


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("j", TANGENT_INDICES)
def test_seed_keeps_its_puncture_at_the_edge_of_its_window(j, side):
    # the window at d* = rho(z, a_j) must keep a_j itself, which needs its
    # rounding margins: a_j lies where the window's edge touches the disk
    z = on_the_window_edge(RADIAL_Q099_DOMAIN, j, side)
    got = squeezing_punctured_disk(RADIAL_Q099_DOMAIN, z)
    assert got.attained_index == j and abs(got.value - 0.05) < 1e-12
    check_against_reference(RADIAL_Q099_DOMAIN, z)


near_boundary_domains = st.sampled_from([  # (domain, largest u): the reference loop's cost bounds u
    (parse_domain_spec(dict(RADIAL_Q099, q=0.9)), 5.0),
    (RADIAL_Q099_DOMAIN, 4.0),
    (P1_DOMAIN, 3.0),
    (parse_domain_spec(P2), 5.0),
    (parse_domain_spec(dict(P2, theta=1e302)), 4.0),
    (parse_domain_spec(HUGE_P1), 3.0),
    (PolySequencePunctures(n=2, family=RadialFamily(q=0.99, theta=1.0)), 4.0),
    (PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)), 5.0),
])


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_boundary_domains, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi),
       st.floats(0.0, 0.9), st.floats(-math.pi, math.pi))
def test_near_boundary_values_match_the_per_puncture_loop(case, share, arg, other, other_arg):
    # |z| = 1 - 10**-u with u from 1 up to the case's bound: values are
    # seeded, certificates are not
    domain, u_max = case
    z = cmath.rect(1.0 - 10.0 ** -(1.0 + share * (u_max - 1.0)), arg)
    if isinstance(domain, PolySequencePunctures):
        z = (z,) + (cmath.rect(other, other_arg),) * (domain.n - 1)
    check_against_reference(domain, z)
