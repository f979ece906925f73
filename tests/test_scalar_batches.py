"""The single-point scan measures a candidate set of at most _SCALAR_BATCH
punctures by puncture(k) and rho, and probes a tail pass over at most
_SCALAR_TAIL indices by tail_lower_bound(n), one index at a time; larger
batches stay in numpy.  Both sides give the same bits, so every value,
index, tail and certificate outcome must be byte-identical to the numpy
path's.  The numpy path is kept here as the reference: with both bounds
set to 0, every nonempty batch takes it."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from squeezefn import chunked
from squeezefn.chunked import _SCALAR_BATCH, _SCALAR_TAIL, _first_stop
from squeezefn.domains import (
    BoundaryOrbitFamily,
    PolySequencePunctures,
    RadialFamily,
    SequencePunctures,
    parse_domain_spec,
)
from squeezefn.hyperbolic import PointError, radial_separation_bound, rho_max
from squeezefn.invariants import CertificationError, _measure
from test_chunked import (
    DEEP,
    HUGE_P1,
    P1,
    P2,
    RADIAL_Q099,
    RING,
    OverclaimingTail,
    bits,
    certificate,
    check_against_reference,
    evaluate_at,
    outcome,
    poly,
)

K, T = _SCALAR_BATCH, _SCALAR_TAIL


def batch(k):
    """The scan with both its scalar batch bounds, of candidates and of tail
    indices, at k; 0 is the numpy path."""
    return mock.patch.multiple(chunked, _SCALAR_BATCH=k, _SCALAR_TAIL=k)


def outcomes(domain, z):
    """The repr of a value, or its error, and of the certificate outcomes at
    claims around it (for a disk domain): one float below and above the
    value, the value, and a claim at its half."""
    got = [outcome(lambda: evaluate_at(domain, z))]
    if not isinstance(domain, PolySequencePunctures):
        try:
            value = evaluate_at(domain, z).value
        except (PointError, CertificationError):
            value = 0.01
        for claimed in (math.nextafter(value, 0.0), value, math.nextafter(value, 1.0), value * 0.5):
            if 0.0 < claimed < 1.0:
                got.append(outcome(lambda: certificate(domain, z, claimed)))
    return got


def batch_sizes(domain, z):
    """The candidate set sizes and tail pass spans of one value and one
    certificate at z (at half the value)."""
    sizes, spans = set(), set()
    candidates, first_stop = chunked._candidates, chunked._first_stop

    def counted_candidates(*args):
        index, dist = candidates(*args)
        sizes.add(index.size)
        return index, dist

    def counted_first_stop(domain, anchor, index, run, lo, hi):
        if lo <= hi:
            spans.add(hi - lo + 1)
        return first_stop(domain, anchor, index, run, lo, hi)

    with mock.patch.multiple(chunked, _candidates=counted_candidates, _first_stop=counted_first_stop):
        outcomes(domain, z)
    return sizes, spans


# --- whole evaluations, each batch forced to K - 1, K and K + 1 -------------------

RADIAL_Q099_DOMAIN = parse_domain_spec(RADIAL_Q099)
FORCED = [(parse_domain_spec(doc), complex(z) if not isinstance(z, tuple) else z) for doc, z in DEEP] + [
    (RADIAL_Q099_DOMAIN, RING[1]), (RADIAL_Q099_DOMAIN, RING[6]),
    (parse_domain_spec(HUGE_P1), complex(-0.9, 0.0)),
    (PolySequencePunctures(n=2, family=RadialFamily(q=0.99, theta=1.0)), (complex(-0.999, 0.0), 0.5j)),
    (PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)),
     (cmath.rect(0.9999, 1.0), 0.1 + 0j, -0.2j)),
    (OverclaimingTail(family=RADIAL_Q099_DOMAIN.family), RING[2]),
]
FORCED_IDS = [f"deep-{i}" for i in range(len(DEEP))] + [
    "ring-1", "ring-6", "theta-1e302", "poly-n2", "poly-n3", "overclaiming"]


@pytest.mark.parametrize("domain, z", FORCED, ids=FORCED_IDS)
def test_every_batch_size_around_the_bound_is_the_numpy_path(domain, z):
    # each candidate set and tail pass of these evaluations is made, in
    # turn, one below the bound, at it and one above it
    with batch(0):
        reference = outcomes(domain, z)
    assert outcomes(domain, z) == reference
    sizes, spans = batch_sizes(domain, z)
    for s in sorted((sizes | spans) - {0}):
        for k in (s + 1, s, s - 1):
            with batch(k):
                assert outcomes(domain, z) == reference, (s, k)


def test_the_default_bound_splits_the_deep_batches():
    # at the default bounds the deep points measure small candidate sets and
    # every tail pass in scalar, and their largest candidate sets in numpy
    sizes, spans = set(), set()
    for doc, z in DEEP:
        domain = parse_domain_spec(doc)
        got, passes = batch_sizes(domain, complex(z) if not isinstance(z, tuple) else z)
        sizes |= got
        spans |= passes
    assert any(0 < s <= K for s in sizes) and any(s > K for s in sizes), sorted(sizes)
    assert spans and max(spans) <= T, sorted(spans)


CHUNK_FAMILIES = [  # (domain, z): near 0 the window keeps every puncture of a chunk
    (parse_domain_spec(RADIAL_Q099), 0.01 + 0.02j),
    (parse_domain_spec(P1), -0.03 + 0j),
    (parse_domain_spec(P2), 0.02j),
    (parse_domain_spec(HUGE_P1), 0.5 - 0.5j),
    (PolySequencePunctures(n=2, family=RadialFamily(q=0.99, theta=1.0)), (0.01 + 0j, 0.5j)),
    (PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)), (0.02j, 0.3 + 0j, -0.2 + 0.1j)),
]


def converted_by(domain, run):
    """(punctures converted by puncture(k), by parts) in ``run``."""
    counts = [0, 0]
    cls = type(domain)
    point, convert = cls.puncture, cls.parts

    def puncture(self, k):
        counts[0] += 1
        return point(self, k)

    def parts(self, index, y):
        counts[1] += len(index)
        return convert(self, index, y)

    with mock.patch.multiple(cls, puncture=puncture, parts=parts):
        got = run()
    return got, tuple(counts)


@pytest.mark.parametrize("size", [K - 1, K, K + 1])
@pytest.mark.parametrize("domain, z", CHUNK_FAMILIES, ids=["radial", "p1", "p2", "theta-1e302", "poly-n2", "poly-n3"])
def test_candidate_sets_around_the_bound_are_the_numpy_conversion(domain, z, size):
    # a chunk of ``size`` punctures at 1000: near 0 (or at theta = 1e302,
    # at any point) every one is a candidate, measured by the scalar kernel
    # up to K and converted in numpy beyond
    y = domain.family.angles(1000, 1000 + size)
    args = (domain, z, abs(z[0] if isinstance(z, tuple) else z), 0.5, 0.25, 1000, y, _measure(domain, z))
    (index, dist), counts = converted_by(domain, lambda: chunked._candidates(*args))
    with batch(0):
        ref_index, ref_dist = chunked._candidates(*args)
    assert index.tolist() == ref_index.tolist() == list(range(1001, 1001 + size))
    assert [bits(d) for d in dist.tolist()] == [bits(d) for d in ref_dist.tolist()]
    assert counts == ((size, 0) if size <= K else (0, size))


# --- random families and points near the boundary --------------------------------

near_boundary = st.sampled_from([
    RADIAL_Q099_DOMAIN,
    parse_domain_spec(dict(RADIAL_Q099, q=0.9)),
    parse_domain_spec(P1),
    parse_domain_spec(P2),
    parse_domain_spec(HUGE_P1),
    PolySequencePunctures(n=2, family=RadialFamily(q=0.99, theta=1.0)),
    PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)),
])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(near_boundary, st.floats(0.9, 0.99999), st.floats(-math.pi, math.pi),
       st.floats(0.0, 0.9), st.floats(-math.pi, math.pi))
@example(parse_domain_spec(P1), 0.99999, math.pi, 0.0, 0.0)
@example(parse_domain_spec(HUGE_P1), 0.99999, math.pi, 0.0, 0.0)
@example(PolySequencePunctures(n=3, family=RadialFamily(q=0.9, theta=2.3)), 0.99999, 1.0, 0.9, 2.0)
def test_near_boundary_outcomes_are_the_numpy_path(domain, mod, arg, other, other_arg):
    z = cmath.rect(mod, arg)
    if isinstance(domain, PolySequencePunctures):
        z = (z,) + (cmath.rect(other, other_arg),) * (domain.n - 1)
    with batch(0):
        reference = outcomes(domain, z)
    assert outcomes(domain, z) == reference


def test_small_batches_change_nothing_under_an_overclaiming_tail():
    # the scalar probes read tails through the domain, which the
    # overclaiming domain overrides with tail_lower_bound and tails alike
    domain = OverclaimingTail(family=RADIAL_Q099_DOMAIN.family)
    for z in RING[:4]:
        with batch(0):
            reference = outcomes(domain, z)
        assert outcomes(domain, z) == reference
        check_against_reference(domain, z)


# --- one tail pass, scalar against numpy ------------------------------------------

TAIL_FAMILIES = [RadialFamily(q=0.99, theta=1.0), BoundaryOrbitFamily(c=0.5, p=1.0, theta=2.3),
                 BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3)]


def probe(domain, anchor, index, run, lo, hi, k=None):
    """_first_stop with its tail bound at k, or at the default."""
    with mock.patch.object(chunked, "_SCALAR_TAIL", T if k is None else k):
        got = _first_stop(domain, anchor, np.array(index, dtype=float), np.array(run), lo, hi)
    return None if got is None else (got[0], bits(got[1]), got[2])


def tail_case(family, lo, span, picks, shifts):
    """A tail pass over lo .. lo + span - 1 with a candidate before it, which
    leaves the running minimum at 1, and candidates at indices of the pass,
    each lowering it to within a few floats of the separation bound of its
    own index's tail: below it, a stop falls at that index exactly when the
    minimum there counts the candidate."""
    domain = SequencePunctures(family=family)
    hi = lo + span - 1
    anchor = domain.tail_lower_bound(lo - 1) * 0.5
    index = sorted({lo + p % span for p in picks})
    run = [1.0, 1.0]
    for n, shift in zip(index, shifts + [0] * len(index)):
        level = radial_separation_bound(domain.tail_lower_bound(n), anchor)
        for _ in range(abs(shift)):
            level = math.nextafter(level, math.copysign(1.0, shift))
        run.append(min(run[-1], level))
    return domain, anchor, [lo - 1] + index, run, lo, hi


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TAIL_FAMILIES), st.integers(1, 10**6), st.sampled_from([1, 2, T, T + 1, 32]),
       st.lists(st.integers(0, 10**3), max_size=6), st.lists(st.integers(-3, 3), max_size=7))
@example(TAIL_FAMILIES[0], 500, 1, [0], [-1])  # a stop at lo, set by the candidate at lo
@example(TAIL_FAMILIES[1], 500, 3, [1], [-1])  # a stop at lo + 1, set by the candidate there
@example(TAIL_FAMILIES[2], 50, T, [T - 1], [-1])
@example(TAIL_FAMILIES[1], 500, T + 1, [T], [-1])
@example(TAIL_FAMILIES[1], 500, T + 1, [3, 5], [2, 0])  # no stop at either candidate
def test_scalar_tail_probe_is_the_numpy_pass(family, lo, span, picks, shifts):
    case = tail_case(family, lo, span, picks, shifts)
    scalar, numpy = probe(*case, k=10**9), probe(*case, k=0)
    assert scalar == numpy
    assert probe(*case) == numpy  # the default: scalar up to T indices, numpy beyond


def test_a_stop_at_a_candidate_counts_that_candidate():
    # the minimum after the candidate at 501 is just below the separation
    # bound of m(501): the stop falls at 501, with both candidates counted;
    # without the candidate at 501 (bisect_left) it would fall at 502
    domain, anchor, index, run, lo, hi = tail_case(TAIL_FAMILIES[1], 500, 3, [1], [-1])
    assert index == [499, 501]
    assert probe(domain, anchor, index, run, lo, hi) == (501, bits(domain.tail_lower_bound(501)), 2)
    domain, anchor, index, run, lo, hi = tail_case(TAIL_FAMILIES[0], 500, 1, [0], [-1])
    assert probe(domain, anchor, index, run, lo, hi) == (500, bits(domain.tail_lower_bound(500)), 2)


# --- the scalar kernel --------------------------------------------------------------

coordinates = st.one_of(
    st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(-math.pi, math.pi)),
    st.sampled_from([0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0), 0.5 + 0j, -0.5 + 0j, 0.5j]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), coordinates, st.lists(coordinates, min_size=2, max_size=2),
       st.floats(0.3, 0.995), st.floats(-50.0, 50.0), st.integers(1, 10**6))
@example(2, 0j, [0.5 + 0j, 0j], 0.5, 0.0, 1)  # rho(z_0, a_1) = |a_1| = 0.5 ties |z_1|
@example(3, 0j, [0.5j, -0.5 + 0j], 0.5, 1.0, 3)
def test_polydisk_constant_coordinates_are_rho_max_on_the_embedded_point(n, z0, rest, q, theta, k):
    # a polydisk family's puncture is 0j beyond coordinate 0: the scalar
    # kernel takes max(rho(z_0, a_0), max_j rho(z_j, 0j)), which must be rho_max
    domain = poly(n, q, theta)
    z = (z0, *rest[:n - 1])
    assert bits(_measure(domain, z)(k)) == bits(rho_max(z, domain.puncture(k)))

