import cmath
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezefn.block_domains import Block, RemovedBalls, RemovedPolydisks, euclid_distance
from squeezefn.blocks import polydisk_squeezing_removed_blocks
from squeezefn.domains import (
    PAIR_SEPARATION,
    Annulus,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    SequencePunctures,
    _require_separated,
    parse_domain_spec,
)
from squeezefn.families import BoundaryOrbitFamily, RadialBlockFamily, RadialFamily
from squeezefn.serialize import serialize_domain_spec
from squeezefn.verification import Lcg


# --- parsing ---------------------------------------------------------------

def test_parse_finite_punctures():
    d = parse_domain_spec('{"kind":"finite_punctures","points":[[0.5,0],[0,0.5]]}')
    assert isinstance(d, FinitePunctures)
    assert d.punctures == (complex(0.5), complex(0, 0.5))


def test_parse_radial_sequence():
    d = parse_domain_spec('{"kind":"sequence","family":"radial","q":0.5,"theta":1.0}')
    assert isinstance(d, SequencePunctures)
    assert d.puncture(1) == 0.5 * cmath.exp(1j)
    assert d.tail_lower_bound(0) == 0.5
    assert d.tail_lower_bound(1) == 0.75


def test_parse_removed_polydisk_and_overlap_error():
    doc = {"kind": "removed_polydisks", "n": 2,
           "blocks": [{"center": [[0, 0], [0, 0]], "radius": 0.6}]}
    d = parse_domain_spec(doc)
    assert isinstance(d, RemovedPolydisks) and d.blocks[0].radius == 0.6
    doc["blocks"].append({"center": [[0.5, 0], [0, 0]], "radius": 0.3})
    with pytest.raises(DomainError, match="intersecting closures"):
        parse_domain_spec(doc)


@pytest.mark.parametrize("doc,fragment", [
    ("{not json", "not valid JSON"),
    ('{"points":[[0,0]]}', "missing the 'kind'"),
    ('{"kind":"nosuch"}', "unknown domain kind"),
    ('{"kind":"finite_punctures"}', "missing 'points'"),
    ('{"kind":"finite_punctures","points":[]}', "nonempty list"),
    ('{"kind":"finite_punctures","points":[[0.5,0],[0.5,0]]}', "identical"),
    ('{"kind":"finite_punctures","points":[[2,0]]}', "not strictly inside"),
    ('{"kind":"finite_punctures","points":[[0.5,"x"]]}', "expected a number"),
    ('{"kind":"sequence"}', "either 'points' or 'family'"),
    ('{"kind":"sequence","family":"nosuch","q":0.5}', "unknown family"),
    ('{"kind":"sequence","family":"radial","q":0.5}', "needs parameters"),
    ('{"kind":"sequence","family":["radial"],"q":0.5,"theta":0}', "unknown family"),
    ('{"kind":"poly_sequence","n":2,"family":"radial","q":0.5}', r"needs parameters \['theta'\]"),
    ('{"kind":"removed_balls","n":2,"family":"radial","q":0.5,"theta":0,"r0":"x"}',
     "removed_balls.r0: expected a number"),
    ('{"kind":"sequence","family":"radial","q":1.5,"theta":0}', "q must be in"),
    ('{"kind":"sequence","points":[[0.5,0]],"family":"radial","q":0.5,"theta":0}',
     "unexpected fields"),
    ('{"kind":"sequence","points":[[0.5,0]],"tail_modulus_constant":1.5}',
     "tail_modulus_constant must be in"),
    ('{"kind":"poly_sequence","points":[[[0.5,0]]]}', "missing 'n'"),
    ('{"kind":"poly_sequence","n":2,"points":[[[0.5,0]]]}', "expected 2"),
    ('{"kind":"removed_polydisks","n":1,"blocks":[{"center":[[0,0]],"radius":0.1}]}',
     "must be an integer >= 2"),
    ('{"kind":"removed_polydisks","n":2,"blocks":[{"center":[[0.5,0],[0,0]],"radius":0.6}]}',
     "not strictly inside the polydisk"),
    ('{"kind":"removed_balls","n":2,"blocks":[{"center":[[0,0],[0,0]],"radius":-1}]}',
     "radius must be positive"),
    ('{"kind":"annulus","r":1.5}', "inner radius must be in"),
    ('{"kind":"annulus"}', "missing 'r'"),
    ('{"kind":"product_of_balls","n":0}', "must be an integer >= 1"),
    ('{"kind":"product_of_balls","n":2.5}', "expected an integer"),
])
def test_parse_rejections_have_distinct_diagnostics(doc, fragment):
    with pytest.raises(DomainError, match=fragment):
        parse_domain_spec(doc)


@pytest.mark.parametrize("doc", [
    '{"kind":"finite_punctures","points":[[NaN,0.0],[0.5,0.0]]}',
    '{"kind":"sequence","points":[[0.5,0.0],[0.0,Infinity]],"tail_modulus_constant":0.9}',
    '{"kind":"poly_sequence","n":2,"points":[[[0.5,0.0],[NaN,0.0]]]}',
    '{"kind":"sequence","family":"radial","q":0.5,"theta":NaN}',
    '{"kind":"sequence","family":"boundary_orbit","c":0.5,"p":Infinity,"theta":1.0}',
    '{"kind":"removed_polydisks","n":2,"blocks":[{"center":[[NaN,0],[0,0]],"radius":0.1}]}',
    '{"kind":"removed_balls","n":2,"blocks":[{"center":[[0,0],[0,0]],"radius":NaN}]}',
    '{"kind":"removed_balls","n":2,"family":"radial","q":0.5,"theta":NaN,"r0":0.25}',
])
def test_non_finite_numbers_rejected(doc):
    with pytest.raises(DomainError, match="finite"):
        parse_domain_spec(doc)


def test_nearly_coincident_punctures_rejected():
    with pytest.raises(DomainError, match="closer than"):
        FinitePunctures((complex(0.5), complex(0.5 + 1e-13)))


def test_roundtrip_parse_serialize_parse():
    docs = [
        {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5], [-0.25, 0.125]]},
        {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
        {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
        {"kind": "sequence", "points": [[0.1, 0.2]], "tail_modulus_constant": 0.9},
        {"kind": "poly_sequence", "n": 2, "points": [[[0.5, 0.0], [0.0, 0.0]]]},
        {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5, "theta": 1.0},
        {"kind": "removed_polydisks", "n": 2,
         "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]},
        {"kind": "removed_polydisks", "n": 2, "family": "radial",
         "q": 0.5, "theta": 2.0, "r0": 0.25},
        {"kind": "removed_balls", "n": 3, "family": "radial",
         "q": 0.5, "theta": 1.0, "r0": 0.1},
        {"kind": "annulus", "r": 0.25},
        {"kind": "product_of_balls", "n": 4},
    ]
    for doc in docs:
        first = parse_domain_spec(doc)
        assert serialize_domain_spec(first) == doc
        again = parse_domain_spec(json.loads(json.dumps(serialize_domain_spec(first))))
        assert first == again, doc


def test_sequence_kinds_stay_distinct_types():
    # evaluators route on isinstance: neither sequence type may pass for the other
    disk = parse_domain_spec({"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0})
    poly = parse_domain_spec({"kind": "poly_sequence", "n": 1, "family": "radial",
                              "q": 0.5, "theta": 1.0})
    assert isinstance(disk, SequencePunctures) and not isinstance(disk, PolySequencePunctures)
    assert isinstance(poly, PolySequencePunctures) and not isinstance(poly, SequencePunctures)
    # one planar family; the domain owns the dimension and the padding
    assert disk.family == poly.family == RadialFamily(0.5, 1.0)
    assert disk != poly
    assert poly.puncture(1) == (disk.puncture(1),)


@settings(max_examples=100)
@given(st.lists(
    st.tuples(st.floats(0.01, 0.9), st.floats(0.0, 2.0 * math.pi)),
    min_size=1, max_size=6, unique=True,
))
def test_roundtrip_finite_punctures_random(polar_pts):
    pts = [complex(r * math.cos(p), r * math.sin(p)) for r, p in polar_pts]
    if any(abs(a - b) < 1e-9 for i, a in enumerate(pts) for b in pts[i + 1:]):
        return
    d = FinitePunctures(tuple(pts))
    assert parse_domain_spec(serialize_domain_spec(d)) == d


def reference_separation(points, what, first):
    """The message of the pairwise double loop that _require_separated
    replaces, or None when every pair is separated."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            p, q = points[i], points[j]
            gap = max(abs(x - y) for x, y in zip(p, q)) if isinstance(p, tuple) else abs(p - q)
            if gap < PAIR_SEPARATION:
                close = "identical" if gap == 0.0 else f"closer than {PAIR_SEPARATION:g}"
                return f"{what} {i + first} and {j + first} are {close}"
    return None


# gaps around the floor, along directions that move the sort key (the sum of
# the real and imaginary parts) by anything from 0 to sqrt(2) times the gap
_GAPS = (0.0, 0.5e-12, math.nextafter(1e-12, 0.0), 1e-12, math.nextafter(1e-12, 1.0),
         1.5e-12, 3e-12)
_DIRECTIONS = (1, 1j, -1, (1 + 1j) / math.sqrt(2), (1 - 1j) / math.sqrt(2),
               -(1 + 1j) / math.sqrt(2))


@st.composite
def near_point_lists(draw):
    dim = draw(st.integers(0, 3))  # 0: planar points, else n-tuples
    part = st.floats(-0.6, 0.6)
    coordinate = st.builds(complex, part, part)
    point = coordinate if dim == 0 else st.tuples(*[coordinate] * dim)
    points = draw(st.lists(point, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 8))):
        source = draw(st.sampled_from(points))
        if dim == 0:
            near = source + draw(st.sampled_from(_GAPS)) * draw(st.sampled_from(_DIRECTIONS))
        else:
            near = tuple(c + draw(st.sampled_from(_GAPS)) * draw(st.sampled_from(_DIRECTIONS))
                         for c in source)
        points.insert(draw(st.integers(0, len(points))), near)
    return points


@settings(max_examples=400, deadline=None)
@given(near_point_lists(), st.integers(0, 1))
def test_require_separated_matches_the_double_loop(points, first):
    expected = reference_separation(points, "points", first)
    if expected is None:
        _require_separated(points, "points", first)
    else:
        with pytest.raises(DomainError) as err:
            _require_separated(points, "points", first)
        assert str(err.value) == expected


# --- sequence access and tail bounds -----------------------------------------

def test_puncture_at_is_deterministic():
    d = SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))
    assert d.puncture(7) == d.puncture(7)
    assert d.puncture(1) == (1.0 - 0.5) * cmath.exp(1j)


def test_prefix_puncture_access():
    d = SequencePunctures(prefix=(complex(0.1), complex(0.2)))
    assert d.puncture(2) == complex(0.2)
    with pytest.raises(DomainError, match="no generator"):
        d.puncture(3)
    with pytest.raises(DomainError, match="must be >= 1"):
        d.puncture(0)


def test_tail_lower_bound_prefix_semantics():
    d = SequencePunctures(prefix=(complex(0.1), complex(0.2)))
    assert d.tail_lower_bound(0) == 0.0
    assert d.tail_lower_bound(2) is None  # exhausted: infimum is over the prefix
    dc = SequencePunctures(prefix=(complex(0.1),), tail_constant=0.9)
    assert dc.tail_lower_bound(0) == 0.0
    assert dc.tail_lower_bound(1) == 0.9


@pytest.mark.parametrize("family", [
    RadialFamily(q=0.5, theta=1.0),
    RadialFamily(q=0.9, theta=0.37),
    BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3),
    BoundaryOrbitFamily(c=0.9, p=1.0, theta=0.11),
])
def test_family_tail_bound_contract(family):
    # nondecreasing toward 1 on a sampled grid, and a true lower bound on the
    # moduli of all later punctures
    grid = [0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
    vals = [family.tail_modulus(n) for n in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0 - 1e-6
    rng = Lcg(2024)
    for _ in range(100):
        n = int(rng.uniform() * 10_000)
        k = n + 1 + int(rng.uniform() * 10_000)
        # float moduli can undershoot the real bound by an ulp of hypot
        assert abs(family.point(k)) >= family.tail_modulus(n) - 5e-16


@pytest.mark.parametrize("family", [
    RadialFamily(q=0.5, theta=1.0),
    BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3),
])
def test_family_bound_holds_at_every_index(family):
    for k in range(1, 10_001):
        assert abs(family.point(k)) >= family.tail_modulus(k - 1) - 5e-16


def test_slow_family_rejected_at_parse():
    # c/(N+1)^p with p = 0.5 has m(1e6) ~ 1 - 9e-4: cannot certify efficiently
    with pytest.raises(DomainError, match="does not converge to 1"):
        SequencePunctures(family=BoundaryOrbitFamily(c=0.9, p=0.25, theta=1.0))


def test_poly_family_points():
    fam = RadialFamily(0.5, 1.0)
    d = PolySequencePunctures(n=2, family=fam)
    assert d.puncture(1) == (0.5 * cmath.exp(1j), 0j)
    assert d.tail_lower_bound(0) == 0.5


# --- blocks -------------------------------------------------------------------

def test_block_family_blocks_are_disjoint_and_inside():
    fam = RadialBlockFamily(q=0.5, theta=1.0, r0=0.1)
    d = RemovedPolydisks(n=2, family=fam)
    blocks = [d.block(k) for k in range(1, 41)]
    for b in blocks:
        assert max(abs(c) for c in b.center) + b.radius < 1.0
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            gap = max(abs(x - y) for x, y in zip(a.center, b.center))
            assert gap > a.radius + b.radius


def test_block_family_tail_bound_monotone():
    fam = RadialBlockFamily(q=0.5, theta=1.0, r0=0.1)
    d = RemovedBalls(n=3, family=fam)
    vals = [fam.tail_inner_modulus(n) for n in (0, 1, 10, 100, 1_000)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    for k in range(1, 200):
        b = d.block(k)
        assert b == Block((fam.point(k), 0j, 0j), fam.radius(k))
        inner = max(abs(c) for c in b.center) - b.radius
        assert inner >= fam.tail_inner_modulus(k - 1) - 5e-16


@pytest.mark.parametrize("kind", ["removed_polydisks", "removed_balls"])
def test_block_family_with_small_q_parses(kind):
    # 1 - (1 - r0) q^k rounds to 1.0 from k = 31 on, yet the law keeps every
    # block inside the polydisk
    doc = {"kind": kind, "n": 2, "family": "radial", "q": 0.3, "theta": 1.0, "r0": 0.5}
    d = parse_domain_spec(doc)
    assert serialize_domain_spec(d) == doc
    assert parse_domain_spec(json.loads(json.dumps(doc))) == d
    z = (complex(0.1), complex(0.1))
    res = polydisk_squeezing_removed_blocks(d, z)
    listed = type(d)(n=2, blocks=tuple(d.block(k) for k in range(1, res.truncation_index + 1)))
    assert res.value == polydisk_squeezing_removed_blocks(listed, z).value


def reference_disjointness(blocks, metric, what):
    """The message of the pairwise double loop that the sorted sweep replaces
    for listed blocks, or None when all closures are disjoint."""
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if metric(blocks[i].center, blocks[j].center) <= blocks[i].radius + blocks[j].radius:
                return f"{what}: blocks {i} and {j} have intersecting closures"
    return None


@st.composite
def block_lists(draw):
    # lattice centers and radii make tangent closures (distance = r_i + r_j,
    # also Euclidean 3-4-5) common; |center_j| + radius stays below 1
    n = draw(st.integers(2, 3))
    part = st.one_of(st.integers(-8, 8).map(lambda v: v / 16), st.floats(-0.5, 0.5))
    coordinate = st.builds(complex, part, part)
    radius = st.sampled_from((1e-9, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4))
    return n, draw(st.lists(st.builds(Block, st.tuples(*[coordinate] * n), radius),
                            min_size=1, max_size=8))


@settings(max_examples=400, deadline=None)
@given(block_lists(), st.sampled_from([RemovedPolydisks, RemovedBalls]))
def test_block_disjointness_matches_the_double_loop(case, cls):
    n, blocks = case
    expected = reference_disjointness(blocks, cls.metric, cls.kind)
    if expected is None:
        cls(n=n, blocks=tuple(blocks))
    else:
        with pytest.raises(DomainError) as err:
            cls(n=n, blocks=tuple(blocks))
        assert str(err.value) == expected


def test_block_disjointness_sweeps_listed_blocks(monkeypatch):
    # 1500 small balls on a circle: the double loop made 1,124,250 metric calls
    calls = []

    def counting(a, b):
        calls.append(None)
        return euclid_distance(a, b)

    monkeypatch.setattr(RemovedBalls, "metric", staticmethod(counting))
    ring = tuple(Block((0.5 * cmath.exp(2j * math.pi * k / 1500), 0j), 1e-5) for k in range(1500))
    RemovedBalls(n=2, blocks=ring)
    assert 0 < len(calls) < 20 * 1500


def test_disjointness_metric_differs_between_kinds():
    blocks = (
        Block((complex(0.0), complex(0.0)), 0.125),
        Block((complex(0.2), complex(0.2)), 0.125),
    )
    # euclidean center gap ~0.283 > 0.25: valid as removed balls
    RemovedBalls(n=2, blocks=blocks)
    # sup-norm center gap 0.2 <= 0.25: closures intersect as polydisk blocks
    with pytest.raises(DomainError, match="intersecting closures"):
        RemovedPolydisks(n=2, blocks=blocks)


def test_annulus_and_product_validation():
    assert Annulus(0.25).inner_radius == 0.25
    assert ProductOfBalls(3).n == 3
    with pytest.raises(DomainError):
        Annulus(0.0)
    with pytest.raises(DomainError):
        ProductOfBalls(0)


@pytest.mark.parametrize("build, message", [
    (lambda: SequencePunctures(family=RadialBlockFamily(0.5, 1.0, 0.25)),
     "sequence: RadialBlockFamily is not a sequence family"),
    (lambda: PolySequencePunctures(n=1, family=RadialBlockFamily(0.5, 1.0, 0.25)),
     "poly_sequence: RadialBlockFamily is not a poly_sequence family"),
    (lambda: PolySequencePunctures(n=1, family=BoundaryOrbitFamily(0.5, 1.0, 1.0)),
     "poly_sequence: BoundaryOrbitFamily is not a poly_sequence family"),
    (lambda: RemovedPolydisks(n=2, family=RadialFamily(0.5, 1.0)),
     "removed_polydisks: RadialFamily is not a removed_polydisks family"),
    (lambda: RemovedBalls(n=2, family=BoundaryOrbitFamily(0.5, 1.0, 1.0)),
     "removed_balls: BoundaryOrbitFamily is not a removed_balls family"),
], ids=["disk-block-family", "poly-block-family", "poly-orbit-family", "blocks-planar-family",
        "balls-orbit-family"])
def test_domain_rejects_a_family_of_another_kind(build, message):
    # every family is planar; only the parser's (kind, family) table, by exact
    # class, tells them apart: a block family extends the radial law
    with pytest.raises(DomainError, match=message):
        build()


LISTINGS = {
    "poly_sequence": {"points": [[[0.5, 0.0]]]},
    "removed_balls": {"blocks": [{"center": [[0.0, 0.0]], "radius": 0.25}]},
    "removed_polydisks": {"blocks": [{"center": [[0.0, 0.0]], "radius": 0.25}]},
}
RADIAL_PARAMS = {"family": "radial", "q": 0.5, "theta": 1.0}


@pytest.mark.parametrize("kind, n", [("poly_sequence", 0), ("removed_balls", 1),
                                     ("removed_polydisks", 1)])
def test_bad_dimension_reads_the_same_with_a_family(kind, n):
    # the domain owns its dimension: a family document gets the listing's message
    family = dict(RADIAL_PARAMS, **({} if kind == "poly_sequence" else {"r0": 0.25}))
    for rest in (LISTINGS[kind], family):
        with pytest.raises(DomainError) as err:
            parse_domain_spec({"kind": kind, "n": n, **rest})
        assert str(err.value) == f"{kind}: dimension must be an integer >= {n + 1}, got {n}"


def test_family_parameters_are_checked_before_the_dimension():
    # the family is built before its domain, so a bad parameter is reported first
    with pytest.raises(DomainError) as err:
        parse_domain_spec({"kind": "poly_sequence", "n": 0, **RADIAL_PARAMS, "q": 2.0})
    assert str(err.value) == "radial family: q must be in (0, 1), got 2.0"
