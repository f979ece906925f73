"""Guards of the domain constructors and the evaluators, each pinned to its
exact message: the domain, point and certification errors a caller sees."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezefn import invariants
from squeezefn.block_domains import Block, RemovedBalls, RemovedPolydisks
from squeezefn.blocks import polydisk_squeezing_removed_blocks, removed_block_display_formula
from squeezefn.certificates import lower_bound_certificate, product_of_balls_ratio_contradiction
from squeezefn.domains import (
    MAX_DIMENSION,
    Annulus,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    SequencePunctures,
    parse_domain_spec,
)
from squeezefn.families import BoundaryOrbitFamily, RadialBlockFamily, RadialFamily, _check_tail
from squeezefn.grid import MAX_GRID_CELLS, GridJob, run_grid
from squeezefn.hyperbolic import MobiusMap, PointError
from squeezefn.invariants import (
    CertificationError,
    annulus_squeezing,
    polydisk_squeezing_punctured,
    product_of_balls_squeezing,
    product_of_balls_T_lower_bound,
    squeezing_punctured_disk,
)
from squeezefn.serialize import serialize_domain_spec
from squeezefn.verification import (
    MAX_ORACLE_SAMPLES,
    MAX_TRIALS,
    annulus_compact_removal_gap,
    boundary_min_oracle,
    brute_force_infimum,
    run_suite,
)

BLOCK_CLASSES = [RemovedPolydisks, RemovedBalls]
ORIGIN_BLOCK = Block((0j, 0j), 0.25)
BLOCK_FAMILY = RadialBlockFamily(q=0.5, theta=1.0, r0=0.25)
RADIAL = RadialFamily(q=0.5, theta=1.0)


def raises_exactly(exc, message):
    return pytest.raises(exc, match=f"^{re.escape(message)}$")


# --- removed blocks ----------------------------------------------------------------

@pytest.mark.parametrize("cls", BLOCK_CLASSES)
def test_blocks_and_family_are_exclusive(cls):
    with raises_exactly(DomainError, f"{cls.kind}: give either blocks or a family, not both"):
        cls(n=2, blocks=(ORIGIN_BLOCK,), family=BLOCK_FAMILY)


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
def test_empty_block_list(cls):
    with raises_exactly(DomainError, f"{cls.kind}: empty block list"):
        cls(n=2)


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
def test_block_beyond_the_list(cls):
    d = cls(n=2, blocks=(ORIGIN_BLOCK,))
    assert d.block(1) == ORIGIN_BLOCK
    with raises_exactly(DomainError, "no block family attached: block 2 is beyond the list"):
        d.block(2)


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
@pytest.mark.parametrize("listed", [True, False], ids=["listed", "family"])
@pytest.mark.parametrize("k, shown", [(0, "0"), (-3, "-3"), ("1", "'1'"), (None, "None"),
                                      (math.nan, "nan")])
def test_block_index_below_one_or_not_a_number(cls, listed, k, shown):
    # a family's law would give block(0) centre 0 and radius r0, and block(-3)
    # a centre of modulus 6.93 outside the polydisk; "1" and None used to
    # raise a bare TypeError, and a family's block(nan) a message about the
    # radius
    d = cls(n=2, blocks=(ORIGIN_BLOCK,)) if listed else cls(n=2, family=BLOCK_FAMILY)
    with raises_exactly(DomainError, f"block index must be >= 1, got {shown}"):
        d.block(k)


@pytest.mark.parametrize("domain", [FinitePunctures((0.5 + 0j,)),
                                    SequencePunctures(family=RADIAL),
                                    PolySequencePunctures(n=2, family=RADIAL)],
                         ids=["finite", "family", "poly-family"])
@pytest.mark.parametrize("k, shown", [("1", "'1'"), (None, "None"), (0, "0"), (math.nan, "nan")])
def test_puncture_index_not_a_number(domain, k, shown):
    # a family's puncture(nan) used to be nan+nanj
    with raises_exactly(DomainError, f"puncture index must be >= 1, got {shown}"):
        domain.puncture(k)


@pytest.mark.parametrize("domain", [FinitePunctures((0.5 + 0j, 0.5j)),
                                    SequencePunctures(prefix=(0.5 + 0j, 0.5j), tail_constant=0.9)],
                         ids=["finite", "tail-constant"])
@pytest.mark.parametrize("k", [1.0, 1.5])
def test_listed_puncture_index_not_a_whole_number(domain, k):
    # a float index used to end in a bare TypeError from tuple indexing
    with raises_exactly(DomainError, f"puncture index must be a whole number, got {k!r}"):
        domain.puncture(k)


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
@pytest.mark.parametrize("k", [1.0, 1.5])
def test_listed_block_index_not_a_whole_number(cls, k):
    d = cls(n=2, blocks=(ORIGIN_BLOCK, Block((0.5 + 0j, 0j), 0.2)))
    with raises_exactly(DomainError, f"block index must be a whole number, got {k!r}"):
        d.block(k)


@pytest.mark.parametrize("domain", [SequencePunctures(family=RADIAL),
                                    PolySequencePunctures(n=2, family=RADIAL)],
                         ids=["family", "poly-family"])
@pytest.mark.parametrize("k", [1.5, 1.0, 3.0])
def test_family_puncture_index_not_a_whole_number(domain, k):
    # the law at k = 1.5 used to come back as a puncture the domain does not have
    with raises_exactly(DomainError, f"puncture index must be a whole number, got {k!r}"):
        domain.puncture(k)


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
@pytest.mark.parametrize("k", [1.5, 1.0])
def test_family_block_index_not_a_whole_number(cls, k):
    d = cls(n=2, family=BLOCK_FAMILY)
    with raises_exactly(DomainError, f"block index must be a whole number, got {k!r}"):
        d.block(k)


@pytest.mark.parametrize("domain", [SequencePunctures(family=RADIAL),
                                    FinitePunctures((0.5 + 0j, 0.5j)),
                                    SequencePunctures(prefix=(0.5 + 0j, 0.5j), tail_constant=0.9)],
                         ids=["family", "finite", "tail-constant"])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_tail_index_not_a_whole_number(domain, k):
    # a family's tail_lower_bound(0.5) was the law's bound there, a listing's 0.0
    with raises_exactly(DomainError, f"tail bound index must be a whole number, got {k!r}"):
        domain.tail_lower_bound(k)


@pytest.mark.parametrize("index", [np.int64, np.int32, np.uint8, bool], ids=lambda t: t.__name__)
def test_indices_that_operator_index_takes(index):
    # numpy integers and bools index as the ints they stand for, bitwise
    k = index(1) if index is bool else index(3)
    family, poly = SequencePunctures(family=RADIAL), PolySequencePunctures(n=2, family=RADIAL)
    listing = SequencePunctures(prefix=(0.5 + 0j, 0.5j, -0.5j), tail_constant=0.9)
    for domain in (family, poly, listing, FinitePunctures((0.5 + 0j, 0.5j, -0.5j))):
        assert repr(domain.puncture(k)) == repr(domain.puncture(int(k)))
        assert repr(domain.tail_lower_bound(k)) == repr(domain.tail_lower_bound(int(k)))
    for cls in BLOCK_CLASSES:
        d = cls(n=2, family=BLOCK_FAMILY)
        assert repr(d.block(k)) == repr(d.block(int(k)))


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
def test_block_family_cap(cls, monkeypatch):
    # (0.9, 0) certifies only after 7 blocks of this family
    d = cls(n=2, family=BLOCK_FAMILY)
    monkeypatch.setattr(invariants, "_SEQUENCE_CAP", 3)
    with raises_exactly(CertificationError, "block tail bound failed to certify within 3 blocks"):
        polydisk_squeezing_removed_blocks(d, (complex(0.9), 0j))


@pytest.mark.parametrize("cls", BLOCK_CLASSES)
def test_display_formula_rejects_block_families(cls):
    d = cls(n=2, family=BLOCK_FAMILY)
    with raises_exactly(DomainError, "display formula is not certified for block families; "
                                     "use an explicit block list"):
        removed_block_display_formula(d, (0j, 0j))


@pytest.mark.parametrize("evaluator", [product_of_balls_squeezing, product_of_balls_T_lower_bound])
@pytest.mark.parametrize("z", [[(0j, 0j)], [(0j, 0j), (0j,)], [(0j, 0j)] * 3])
def test_product_point_shape(evaluator, z):
    with raises_exactly(PointError, "product point must have 2 factors of 2 coordinates"):
        evaluator(ProductOfBalls(2), z)


@pytest.mark.parametrize("evaluator", [product_of_balls_squeezing, product_of_balls_T_lower_bound])
@pytest.mark.parametrize("z, message", [
    # each ended in a bare TypeError: 'int' object is not iterable
    (5, "product point must be a sequence of 2 factors, got int"),
    ([5, 6], "product point factor 0 must be a sequence of 2 numbers, got int"),
    ([[0.1, 0], 7], "product point factor 1 must be a sequence of 2 numbers, got int"),
    ([None, [0, 0]], "product point factor 0 must be a sequence of 2 numbers, got NoneType"),
], ids=["number", "numbers", "second-factor", "none-factor"])
def test_product_point_and_factors_are_sequences(evaluator, z, message):
    with raises_exactly(PointError, message):
        evaluator(ProductOfBalls(2), z)


# --- sequences ---------------------------------------------------------------------

def test_points_and_family_are_exclusive():
    with raises_exactly(DomainError, "sequence: give either points or a family, not both"):
        SequencePunctures(prefix=(0.5 + 0j,), family=RADIAL)


def test_family_rejects_a_tail_constant():
    with raises_exactly(DomainError, "sequence: a family carries its own tail bound; "
                                     "tail_modulus_constant is not allowed"):
        SequencePunctures(family=RADIAL, tail_constant=0.9)


def test_empty_point_lists():
    with raises_exactly(DomainError, "punctures: empty point list"):
        FinitePunctures(())
    with raises_exactly(DomainError, "poly_sequence: empty point list"):
        PolySequencePunctures(n=2)


@pytest.mark.parametrize("domain", [SequencePunctures(family=RADIAL),
                                    FinitePunctures((0.5 + 0j,))])
@pytest.mark.parametrize("k, shown", [(-1, "-1"), ("1", "'1'"), (None, "None"), (math.nan, "nan")])
def test_negative_tail_index(domain, k, shown):
    # "1" used to raise a bare TypeError, and a listing's nan gave its tail constant
    with raises_exactly(DomainError, f"tail bound index must be >= 0, got {shown}"):
        domain.tail_lower_bound(k)


def test_serialize_rejects_other_objects():
    with raises_exactly(DomainError, "cannot serialize Block"):
        serialize_domain_spec(ORIGIN_BLOCK)


def test_tail_bound_must_not_decrease():
    with raises_exactly(DomainError, "tail bound must be nondecreasing in [0, 1], got m(1) = 0.25"):
        _check_tail(lambda n: 0.5 if n == 0 else 0.25, "tail bound")


# --- evaluator type guards ---------------------------------------------------------

ANNULUS = Annulus(0.5)


@pytest.mark.parametrize("evaluator, call, domain", [
    (squeezing_punctured_disk, lambda f, d: f(d, 0j), ANNULUS),
    (lower_bound_certificate, lambda f, d: f(d, 0j, 0.5), ANNULUS),
    # the kind is checked before the point, which a block domain takes as a tuple
    (lower_bound_certificate, lambda f, d: f(d, (0.5 + 0j, 0j), 0.5), RemovedPolydisks(2, blocks=(ORIGIN_BLOCK,))),
    (lower_bound_certificate, lambda f, d: f(d, (0.5 + 0j, 0j), 0.5), RemovedBalls(2, family=BLOCK_FAMILY)),
    (polydisk_squeezing_punctured, lambda f, d: f(d, (0j, 0j)), ANNULUS),
    (polydisk_squeezing_removed_blocks, lambda f, d: f(d, (0j, 0j)), ANNULUS),
    (removed_block_display_formula, lambda f, d: f(d, (0j, 0j)), ANNULUS),
    (annulus_squeezing, lambda f, d: f(d, 0.75 + 0j), ProductOfBalls(2)),
    (product_of_balls_squeezing, lambda f, d: f(d), ANNULUS),
    (product_of_balls_T_lower_bound, lambda f, d: f(d), ANNULUS),
    # the oracles: an AttributeError before, from puncture or center
    (brute_force_infimum, lambda f, d: f(d, 0.5, 10), ANNULUS),
    (brute_force_infimum, lambda f, d: f(d, (0.5 + 0j, 0j), 10), RemovedPolydisks(2, blocks=(ORIGIN_BLOCK,))),
    (boundary_min_oracle, lambda f, d: f(d, (0.5 + 0j, 0j), 4000), ANNULUS),
    (boundary_min_oracle, lambda f, d: f(d, (0.5 + 0j, 0j), 4000), RemovedBalls(2, blocks=(ORIGIN_BLOCK,))),
])
def test_evaluators_reject_other_domains(evaluator, call, domain):
    message = f"{evaluator.__name__} does not apply to {type(domain).__name__}"
    with raises_exactly(DomainError, message):
        call(evaluator, domain)


def test_grid_rejects_polydisk_invariant_on_planar_domain():
    job = GridJob(FinitePunctures((0.5 + 0j,)), (-0.5, 0.5, -0.5, 0.5), (2, 2),
                  "polydisk-squeezing")
    with raises_exactly(DomainError,
                        "grid invariant 'polydisk-squeezing' does not apply to planar domains"):
        run_grid(job)


# --- integers beyond the float range -----------------------------------------------

HUGE = 10**400  # int too large for a float; not printed in messages


@pytest.mark.parametrize("build, message", [
    (lambda: BoundaryOrbitFamily(0.5, HUGE, 1.0), "boundary_orbit family: p must be finite"),
    (lambda: BoundaryOrbitFamily(0.5, 2.0, HUGE), "boundary_orbit family: theta must be finite"),
    (lambda: RadialFamily(0.5, HUGE), "radial family: theta must be finite"),
    (lambda: RadialBlockFamily(0.5, HUGE, 0.25), "block family: theta must be finite"),
    (lambda: Block((0j, 0j), HUGE), "block: radius must be finite"),
    (lambda: Block((HUGE, 0j), 0.1), "block: center[0] must be finite"),
], ids=["orbit-p", "orbit-theta", "radial-theta", "block-family-theta",
        "block-radius", "block-center"])
def test_integers_beyond_the_float_range_are_domain_errors(build, message):
    with raises_exactly(DomainError, f"{message}, got an integer too large for a float"):
        build()


# more digits than str() converts: a range check may not print them
HUGER = 10**5000


@pytest.mark.parametrize("build, message", [
    (lambda: RadialFamily(HUGER, 1.0), "radial family: q must be in (0, 1)"),
    (lambda: RadialFamily(-HUGER, 1.0), "radial family: q must be in (0, 1)"),
    (lambda: BoundaryOrbitFamily(HUGER, 1.0, 1.0), "boundary_orbit family: c must be in (0, 1)"),
    (lambda: BoundaryOrbitFamily(0.5, -HUGER, 1.0), "boundary_orbit family: p must be positive"),
    (lambda: RadialBlockFamily(0.5, 1.0, HUGER), "block family: r0 must be in (0, 1)"),
    (lambda: RadialBlockFamily(HUGER, 1.0, 0.25), "block family: q must be in (0, 1)"),
], ids=["radial-q", "radial-q-negative", "orbit-c", "orbit-p-negative", "block-r0", "block-q"])
def test_range_checks_do_not_print_integers_beyond_the_float_range(build, message):
    with raises_exactly(DomainError, f"{message}, got an integer too large for a float"):
        build()


@pytest.mark.parametrize("value", [2.0, -0.0, math.nan, math.inf, -math.inf, 3, -10**300])
@pytest.mark.parametrize("build, message", [
    (lambda v: RadialFamily(v, 1.0), "radial family: q must be in (0, 1)"),
    (lambda v: BoundaryOrbitFamily(v, 1.0, 1.0), "boundary_orbit family: c must be in (0, 1)"),
    (lambda v: RadialBlockFamily(0.5, 1.0, v), "block family: r0 must be in (0, 1)"),
], ids=["radial-q", "orbit-c", "block-r0"])
def test_range_checks_print_other_values(build, message, value):
    with raises_exactly(DomainError, f"{message}, got {value!r}"):
        build(value)


@pytest.mark.parametrize("value", [-2.0, -0.0, 0, -math.inf, -10**300])
def test_orbit_p_check_prints_other_values(value):
    with raises_exactly(DomainError, f"boundary_orbit family: p must be positive, got {value!r}"):
        BoundaryOrbitFamily(0.5, value, 1.0)


@pytest.mark.parametrize("doc, message", [
    ('{"kind":"sequence","family":"radial","q":NaN,"theta":1.0}',
     "radial family: q must be in (0, 1), got nan"),
    ('{"kind":"sequence","family":"boundary_orbit","c":-Infinity,"p":1.0,"theta":1.0}',
     "boundary_orbit family: c must be in (0, 1), got -inf"),
    ('{"kind":"sequence","family":"boundary_orbit","c":0.5,"p":-Infinity,"theta":1.0}',
     "boundary_orbit family: p must be positive, got -inf"),
    ('{"kind":"removed_balls","n":2,"family":"radial","q":0.5,"theta":1.0,"r0":NaN}',
     "block family: r0 must be in (0, 1), got nan"),
], ids=["q-nan", "c-minus-inf", "p-minus-inf", "r0-nan"])
def test_json_nan_and_infinity_parameters(doc, message):
    with raises_exactly(DomainError, message):
        parse_domain_spec(doc)


def test_integer_angle_whose_multiples_overflow():
    theta = 10**303  # a float, but theta * k overflows for k near 10**6
    with raises_exactly(DomainError, "radial family: theta * k overflows for indices up to "
                                     f"1000000, got theta={theta!r}"):
        RadialFamily(0.5, theta)


@pytest.mark.parametrize("center, rotation", [(0j, HUGE), (HUGE, 0.0)], ids=["rotation", "center"])
def test_mobius_map_rejects_integers_beyond_the_float_range(center, rotation):
    with raises_exactly(PointError, "Mobius map: int too large to convert to float"):
        MobiusMap(center, rotation)


@pytest.mark.parametrize("center, rotation, message", [
    ("0.5+0.1j", 0.0, "Mobius center must be a number, got str"),
    (None, 0.0, "Mobius center must be a number, got NoneType"),
    ([0.5, 0.1], 0.0, "Mobius center must be a number, got list"),
    (0.5, "1.5", "Mobius rotation must be a real number, got str"),
    (0.5, None, "Mobius rotation must be a real number, got NoneType"),
    (0.5, [1.5], "Mobius rotation must be a real number, got list"),
    (0.5, 1.5j, "Mobius rotation must be a real number, got complex"),
    (0.5, math.inf, "Mobius rotation must be finite, got inf"),
    (0.5, -math.inf, "Mobius rotation must be finite, got -inf"),
    (0.5, math.nan, "Mobius rotation must be finite, got nan"),
], ids=["center-string", "center-none", "center-list", "rotation-string", "rotation-none",
        "rotation-list", "rotation-complex", "rotation-inf", "rotation-minus-inf", "rotation-nan"])
def test_mobius_map_rejects_a_center_or_rotation_that_is_not_a_finite_number(center, rotation, message):
    with raises_exactly(PointError, message):
        MobiusMap(center, rotation)


def test_mobius_map_takes_numpy_scalars():
    import numpy as np

    expected = MobiusMap(0.25 + 0.5j, 1.5)
    assert MobiusMap(np.complex128(0.25 + 0.5j), np.float64(1.5)) == expected
    assert MobiusMap(np.complex128(0.25 + 0.5j), np.float32(1.5))(0.1j) == expected(0.1j)
    assert MobiusMap(np.float64(0.25), np.int64(2)) == MobiusMap(0.25, 2.0)


ORIGIN_POLYDISKS = RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,))


@pytest.mark.parametrize("build, message", [
    (lambda: Annulus(HUGER), "annulus: inner radius must be in (0, 1)"),
    (lambda: Annulus(-HUGER), "annulus: inner radius must be in (0, 1)"),
    (lambda: ProductOfBalls(-HUGER), "product_of_balls: n must be an integer >= 1"),
    (lambda: PolySequencePunctures(n=-HUGER, family=RADIAL),
     "poly_sequence: dimension must be an integer >= 1"),
    (lambda: RemovedBalls(n=-HUGER, family=BLOCK_FAMILY),
     "removed_balls: dimension must be an integer >= 2"),
    (lambda: SequencePunctures(prefix=(0.5 + 0j,), tail_constant=HUGER),
     "sequence: tail_modulus_constant must be in (0, 1)"),
    (lambda: SequencePunctures(family=RADIAL).puncture(-HUGER), "puncture index must be >= 1"),
    (lambda: SequencePunctures(family=RADIAL).tail_lower_bound(-HUGER),
     "tail bound index must be >= 0"),
    (lambda: lower_bound_certificate(SequencePunctures(family=RADIAL), 0j, HUGER),
     "claimed bound must be in (0, 1)"),
    (lambda: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (0.5 + 0j, 0j), mesh_tol=-HUGER),
     "mesh tolerance must be positive"),
    (lambda: product_of_balls_ratio_contradiction(-HUGER), "ratio contradiction check needs n > 1"),
    (lambda: product_of_balls_ratio_contradiction(HUGER), "ratio contradiction check: n must be finite"),
    (lambda: run_suite("all", trials=-HUGER), "invariance suite needs trials >= 1"),
    (lambda: run_suite("invariance", trials=-HUGER), "invariance suite needs trials >= 1"),
    (lambda: run_suite("truncation", trials=-HUGER), "truncation suite needs trials >= 1"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), 0j, -HUGER),
     "brute force needs count >= 1"),
    (lambda: run_suite("all", samples=-HUGER), "boundary oracle needs samples >= 4000"),
], ids=["annulus", "annulus-negative", "product-n", "poly-n", "balls-n", "tail-constant",
        "puncture-index", "tail-index", "claimed", "mesh-tol", "ratio-n-negative", "ratio-n",
        "invariance-trials", "invariance-trials-negative", "truncation-trials",
        "brute-force-count", "oracle-samples"])
def test_entry_points_do_not_print_integers_beyond_the_str_limit(build, message):
    with raises_exactly(DomainError, f"{message}, got an integer too large for a float"):
        build()


@pytest.mark.parametrize("n", [10**20, MAX_DIMENSION + 1, True], ids=["1e20", "limit", "bool"])
@pytest.mark.parametrize("build, what, least", [
    (ProductOfBalls, "product_of_balls: n", 1),
    (lambda n: PolySequencePunctures(n=n, family=RADIAL), "poly_sequence: dimension", 1),
    (lambda n: RemovedPolydisks(n=n, family=BLOCK_FAMILY), "removed_polydisks: dimension", 2),
    (lambda n: RemovedBalls(n=n, family=BLOCK_FAMILY), "removed_balls: dimension", 2),
], ids=["product", "poly", "polydisks", "balls"])
def test_constructors_refuse_what_the_parser_refuses_as_a_dimension(build, what, least, n):
    # the block domains ended in an OverflowError at 10**20; the others took
    # 10**20 and True, which a document may not give
    with raises_exactly(DomainError, f"{what} must be an integer >= {least}, got True" if n is True
                        else f"{what} above the limit {MAX_DIMENSION}"):
        build(n)


def disk_oracle(samples):
    return lambda: annulus_compact_removal_gap(samples=samples)


def ball_oracle(samples):
    return lambda: boundary_min_oracle(ORIGIN_BLOCK, (0.5 + 0j, 0j), samples, "ball")


@pytest.mark.parametrize("build, message", [
    # before the budgets were checked: MemoryError (16 TiB), OverflowError,
    # ValueError and MemoryError (4 TiB); with the oracles' grids walked in
    # bounded blocks, 10**12 samples would run for hours
    (disk_oracle(10**12), "disk oracle samples above the limit 4000000"),
    (disk_oracle(HUGE), "disk oracle samples above the limit 4000000"),
    (disk_oracle(HUGER), "disk oracle samples above the limit 4000000"),
    (disk_oracle(MAX_ORACLE_SAMPLES + 1), "disk oracle samples above the limit 4000000"),
    (disk_oracle(math.nan), "disk oracle samples must be a finite integer, got nan"),
    (disk_oracle(math.inf), "disk oracle samples must be a finite integer, got inf"),
    (disk_oracle(1e6 + 0.5), "disk oracle samples must be a finite integer, got 1000000.5"),
    (ball_oracle(10**12), "boundary oracle samples above the limit 4000000"),
    (ball_oracle(HUGE), "boundary oracle samples above the limit 4000000"),
    (ball_oracle(math.nan), "boundary oracle samples must be a finite integer, got nan"),
    (ball_oracle(-math.inf), "boundary oracle samples must be a finite integer, got -inf"),
    (ball_oracle(-HUGER), "boundary oracle needs samples >= 1000, got an integer too large for a float"),
    (lambda: run_suite("paper-claims", samples=math.nan),
     "boundary oracle samples must be a finite integer, got nan"),
    # not numbers: a bare TypeError from the message's cmath.isfinite before
    (disk_oracle("1000"), "disk oracle samples must be a finite integer, got '1000'"),
    (lambda: boundary_min_oracle(Block((0j,), 0.25), (0.5 + 0j,), "1000"),
     "boundary oracle samples must be a finite integer, got '1000'"),
    (disk_oracle(None), "disk oracle samples must be a finite integer, got None"),
    (ball_oracle([1000]), "boundary oracle samples must be a finite integer, got [1000]"),
    # trials and brute-force counts meet the same guard; a fraction, NaN or
    # an infinity ended in a bare TypeError from range()
    (lambda: run_suite("invariance", trials=2.5), "invariance suite trials must be a finite integer, got 2.5"),
    (lambda: run_suite("truncation", trials=2.5), "truncation suite trials must be a finite integer, got 2.5"),
    (lambda: run_suite("all", trials=2.5), "invariance suite trials must be a finite integer, got 2.5"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), 0j, 2.5),
     "brute force count must be a finite integer, got 2.5"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), 0j, math.nan),
     "brute force count must be a finite integer, got nan"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), 0j, math.inf),
     "brute force count must be a finite integer, got inf"),
], ids=["disk-1e12", "disk-huge", "disk-huger", "disk-limit", "disk-nan", "disk-inf",
        "disk-fraction", "ball-1e12", "ball-huge", "ball-nan", "ball-minus-inf",
        "ball-minus-huger", "suite-nan", "disk-string", "boundary-string", "disk-none",
        "ball-list", "invariance-trials-fraction", "truncation-trials-fraction", "all-trials-fraction",
        "brute-force-fraction", "brute-force-nan", "brute-force-inf"])
def test_oracle_budgets_are_finite_integers_up_to_the_limit(build, message):
    with raises_exactly(DomainError, message):
        build()


@pytest.mark.parametrize("suite", ["paper-claims", "invariance", "truncation", "boundary-oracle", "all"])
@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**23, HUGER], ids=["limit", "1e23", "huger"])
def test_trial_counts_above_the_limit_are_rejected(suite, trials):
    # before the limit, 10**23 trials ran until stopped, past 1.4 GB resident
    what = "invariance" if suite == "all" else suite  # all runs invariance first
    with raises_exactly(DomainError, f"{what} suite trials above the limit 20000"):
        run_suite(suite, trials=trials)


@pytest.mark.parametrize("suite", ["paper-claims", "boundary-oracle"])
@pytest.mark.parametrize("trials, message", [
    (0, " needs trials >= 1, got 0"),
    (-1, " needs trials >= 1, got -1"),
    (math.nan, " trials must be a finite integer, got nan"),
    ("3", " trials must be a finite integer, got '3'"),
    (99999999999, " trials above the limit 20000"),
    (2.5, " trials must be a finite integer, got 2.5"),
], ids=["zero", "negative", "nan", "string", "1e11", "fraction"])
def test_suites_without_trials_still_check_a_given_count(suite, trials, message):
    # they run no trials, and before ignored a count the others refuse
    with raises_exactly(DomainError, f"{suite} suite{message}"):
        run_suite(suite, trials=trials)


FINITE_PAIR = FinitePunctures((0.5 + 0j, 0.5j))
ORBIT = BoundaryOrbitFamily(0.5, 2.0, 2.3)
POLY_RADIAL = PolySequencePunctures(n=2, family=RADIAL)


def brute_force(domain, z):
    return lambda: brute_force_infimum(domain, z, 100)


def block_oracle(z, geometry="polydisk"):
    return lambda: boundary_min_oracle(ORIGIN_BLOCK, z, 4000, geometry)


NEAR_ONE = 1.0 - 1e-13  # inside the disk, within the interior margin


@pytest.mark.parametrize("build, message", [
    # outside the disk a "distance" came out above 1: 1.00035 and 1.5
    (brute_force(SequencePunctures(family=RADIAL), 2 + 0j), "point (2+0j) is not strictly inside the unit disk"),
    (brute_force(FINITE_PAIR, -1.0), "point (-1+0j) is not strictly inside the unit disk"),
    (block_oracle((2 + 0j, 0j)), "point coordinate 0 (2+0j) is not strictly inside the unit disk"),
    (block_oracle((0j, 2 + 0j), "ball"), "point coordinate 1 (2+0j) is not strictly inside the unit disk"),
    (brute_force(POLY_RADIAL, (0j, 2 + 0j)), "point coordinate 1 (2+0j) is not strictly inside the unit disk"),
    # a NaN gave nan
    (brute_force(SequencePunctures(family=RADIAL), complex(math.nan, 0.0)),
     "point (nan+0j) is not a finite complex number"),
    (block_oracle((complex(math.nan, 0.0), 0j)), "point coordinate 0 (nan+0j) is not a finite complex number"),
    # boundary-adjacent, which the evaluators refuse as anchors
    (brute_force(SequencePunctures(family=RADIAL), NEAR_ONE),
     f"point {complex(NEAR_ONE)!r} is numerically boundary-adjacent (modulus >= 1 - 1e-12)"),
    (block_oracle((0j, NEAR_ONE)),
     f"point coordinate 1 {complex(NEAR_ONE)!r} is numerically boundary-adjacent (modulus >= 1 - 1e-12)"),
    # a third coordinate was dropped (2/7 returned); one short was an
    # IndexError in the oracle and cut the brute force's zip short (0.5386)
    (block_oracle((0.5 + 0j, 0j, 0j)), "point has 3 coordinates, expected 2"),
    (block_oracle((0.5 + 0j,)), "point has 1 coordinates, expected 2"),
    (brute_force(POLY_RADIAL, (0.5 + 0j,)), "point has 1 coordinates, expected 2"),
    (brute_force(POLY_RADIAL, (0.5 + 0j, 0j, 0j)), "point has 3 coordinates, expected 2"),
    # not numbers: AttributeError, TypeError or numpy's UFuncTypeError
    (brute_force(SequencePunctures(family=RADIAL), "0.5"), "point must be a number, got str"),
    (brute_force(FINITE_PAIR, (0.5 + 0j, 0j)), "point must be a number, got tuple"),
    (brute_force(POLY_RADIAL, 0.5), "point must be a sequence of 2 numbers, got float"),
    (block_oracle("ab"), "point coordinate 0 must be a number, got str"),
    (block_oracle(0.5), "point must be a sequence of 2 numbers, got float"),
], ids=["brute-force-outside", "finite-on-the-circle", "oracle-outside", "ball-oracle-outside",
        "poly-brute-force-outside", "brute-force-nan", "oracle-nan", "brute-force-boundary-adjacent",
        "oracle-boundary-adjacent", "oracle-three-coordinates", "oracle-one-coordinate",
        "poly-brute-force-one-coordinate", "poly-brute-force-three-coordinates", "brute-force-string",
        "brute-force-tuple", "poly-brute-force-number", "oracle-string", "oracle-number"])
def test_oracles_refuse_points_the_evaluators_refuse(build, message):
    with raises_exactly(PointError, message):
        build()


def test_oracle_budgets_take_whole_floats_and_numpy_integers():
    import numpy as np
    assert annulus_compact_removal_gap(samples=4000.0) == annulus_compact_removal_gap(samples=4000)
    assert (boundary_min_oracle(ORIGIN_BLOCK, (0.5 + 0j, 0j), np.int64(4000), "ball")
            == boundary_min_oracle(ORIGIN_BLOCK, (0.5 + 0j, 0j), 4000, "ball"))
    # trials and brute-force counts follow the same rule
    assert run_suite("invariance", trials=2.0) == run_suite("invariance", trials=2)
    assert run_suite("truncation", trials=np.float64(2.0)) == run_suite("truncation", trials=2)
    assert (brute_force_infimum(SequencePunctures(family=RADIAL), 0.1j, 2.0)
            == brute_force_infimum(SequencePunctures(family=RADIAL), 0.1j, 2))


@pytest.mark.parametrize("build, message", [
    (lambda: squeezing_punctured_disk(FINITE_PAIR, HUGE), "point"),
    (lambda: squeezing_punctured_disk(SequencePunctures(family=RADIAL), HUGE), "point"),
    (lambda: lower_bound_certificate(FINITE_PAIR, HUGE, 0.5), "point"),
    (lambda: lower_bound_certificate(POLY_RADIAL, (0j, HUGE), 0.5), "point coordinate 1"),
    (lambda: annulus_squeezing(Annulus(0.25), HUGE), "point"),
    (lambda: MobiusMap(0.1)(HUGE), "point"),
    (lambda: polydisk_squeezing_punctured(PolySequencePunctures(n=2, family=RADIAL), (0j, HUGE)),
     "point coordinate 1"),
    (lambda: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (0.5, HUGE)), "point coordinate 1"),
    (lambda: removed_block_display_formula(ORIGIN_POLYDISKS, (HUGE, 0j)), "point coordinate 0"),
    (lambda: product_of_balls_squeezing(ProductOfBalls(2), ((0, 0), (0, HUGE))),
     "product point factor 1"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), HUGE, 10), "point"),
    (lambda: boundary_min_oracle(ORIGIN_BLOCK, (0.5, HUGE), 4000), "point coordinate 1"),
], ids=["finite", "sequence", "certificate", "poly-certificate", "annulus", "mobius-call",
        "poly-sequence", "removed-blocks", "display-formula", "product-of-balls", "brute-force",
        "boundary-oracle"])
def test_points_beyond_the_float_range_are_point_errors(build, message):
    with raises_exactly(PointError, f"{message}: int too large to convert to float"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: SequencePunctures(family=RADIAL).puncture(HUGER),
     "puncture index overflows the family's float arithmetic, got an integer too large for a float"),
    (lambda: PolySequencePunctures(n=2, family=RADIAL).puncture(HUGE),
     "puncture index overflows the family's float arithmetic, got an integer too large for a float"),
    (lambda: SequencePunctures(family=ORBIT).puncture(10**200),  # k**p beyond the float range
     f"puncture index overflows the family's float arithmetic, got {10**200!r}"),
    (lambda: SequencePunctures(family=RADIAL).tail_lower_bound(HUGER),
     "tail bound index overflows the family's float arithmetic, got an integer too large for a float"),
    (lambda: SequencePunctures(family=ORBIT).tail_lower_bound(HUGE),
     "tail bound index overflows the family's float arithmetic, got an integer too large for a float"),
    (lambda: RemovedBalls(n=2, family=BLOCK_FAMILY).block(HUGER),
     "block index overflows the family's float arithmetic, got an integer too large for a float"),
    (lambda: FINITE_PAIR.puncture(HUGER),
     "no generator attached: puncture an integer too large for a float is beyond the "
     "2-point prefix"),
    (lambda: RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,)).block(HUGER),
     "no block family attached: block an integer too large for a float is beyond the list"),
], ids=["puncture", "poly-puncture", "orbit-power", "tail-bound", "orbit-tail-bound",
        "block", "listed-puncture", "listed-block"])
def test_indices_beyond_the_float_range_are_domain_errors(build, message):
    with raises_exactly(DomainError, message):
        build()


@pytest.mark.parametrize("point, kind", [("0.1+0.2j", "str"), ("a", "str"), (b"0.1", "bytes"),
                                         (None, "NoneType"), ([0.1, 0.2], "list")],
                         ids=["complex-string", "malformed-string", "bytes", "none", "list"])
@pytest.mark.parametrize("build, what", [
    (lambda z: squeezing_punctured_disk(FINITE_PAIR, z), "point"),
    (lambda z: squeezing_punctured_disk(SequencePunctures(family=RADIAL), z), "point"),
    (lambda z: lower_bound_certificate(FINITE_PAIR, z, 0.5), "point"),
    (lambda z: lower_bound_certificate(POLY_RADIAL, (0j, z), 0.5), "point coordinate 1"),
    (lambda z: annulus_squeezing(Annulus(0.25), z), "point"),
    (lambda z: MobiusMap(0.1)(z), "point"),
    (lambda z: polydisk_squeezing_punctured(POLY_RADIAL, (0j, z)), "point coordinate 1"),
    (lambda z: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (z, 0.5)), "point coordinate 0"),
    (lambda z: product_of_balls_squeezing(ProductOfBalls(2), ((0, 0), (z, 0))),
     "product point factor 1"),
], ids=["finite", "sequence", "certificate", "poly-certificate", "annulus", "mobius-call",
        "poly-sequence", "removed-blocks", "product-of-balls"])
def test_points_that_are_not_numbers_are_point_errors(build, what, point, kind):
    with raises_exactly(PointError, f"{what} must be a number, got {kind}"):
        build(point)


@pytest.mark.parametrize("point, kind", [(None, "NoneType"), (0.5, "float")])
def test_polydisk_points_that_are_not_sequences_are_point_errors(point, kind):
    with raises_exactly(PointError, f"point must be a sequence of 2 numbers, got {kind}"):
        polydisk_squeezing_punctured(POLY_RADIAL, point)


def test_numpy_scalar_points_are_numbers():
    import numpy as np

    domain = SequencePunctures(family=RADIAL)
    expected = squeezing_punctured_disk(domain, 0.25 + 0.5j)
    assert squeezing_punctured_disk(domain, np.complex128(0.25 + 0.5j)) == expected
    assert squeezing_punctured_disk(domain, np.float64(0.25)) == squeezing_punctured_disk(domain, 0.25)
    assert squeezing_punctured_disk(domain, np.int64(0)) == squeezing_punctured_disk(domain, 0)
    assert (polydisk_squeezing_punctured(POLY_RADIAL, (np.float32(0.25), np.complex64(0.5j)))
            == polydisk_squeezing_punctured(POLY_RADIAL, (0.25, 0.5j)))


@pytest.mark.parametrize("build, message", [
    (lambda: lower_bound_certificate(SequencePunctures(family=RADIAL), 0.1j, "0.5"),
     "claimed bound must be in (0, 1), got '0.5'"),
    (lambda: lower_bound_certificate(SequencePunctures(family=RADIAL), 0.1j, None),
     "claimed bound must be in (0, 1), got None"),
    (lambda: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (0.5 + 0j, 0j), mesh_tol="1e-3"),
     "mesh tolerance must be positive, got '1e-3'"),
    (lambda: product_of_balls_ratio_contradiction("3"), "ratio contradiction check needs n > 1, got '3'"),
    (lambda: brute_force_infimum(SequencePunctures(family=RADIAL), 0j, "3"),
     "brute force count must be a finite integer, got '3'"),
    (lambda: run_suite("truncation", trials="3"), "truncation suite trials must be a finite integer, got '3'"),
    (lambda: run_suite("invariance", trials=[3]), "invariance suite trials must be a finite integer, got [3]"),
    (lambda: run_suite("invariance", seed="1"), "seed must be an integer, got '1'"),
    (lambda: run_suite("truncation", trials=1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: lower_bound_certificate(SequencePunctures(family=RADIAL), 0.1j, np.complex128(0.5)),
     "claimed bound must be in (0, 1), got np.complex128(0.5+0j)"),
    (lambda: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (0.5 + 0j, 0j), mesh_tol=1e-3 + 0j),
     "mesh tolerance must be positive, got (0.001+0j)"),
    (lambda: polydisk_squeezing_removed_blocks(ORIGIN_POLYDISKS, (0.5 + 0j, 0j), mesh_tol=np.complex64(1e-3)),
     "mesh tolerance must be positive, got np.complex64(0.001+0j)"),
    (lambda: product_of_balls_ratio_contradiction(3 + 0j),
     "ratio contradiction check needs n > 1, got (3+0j)"),
    (lambda: product_of_balls_ratio_contradiction(np.complex128(3)),
     "ratio contradiction check needs n > 1, got np.complex128(3+0j)"),
], ids=["claimed-string", "claimed-none", "mesh-tol-string", "ratio-n-string", "brute-force-count-string",
        "truncation-trials-string", "invariance-trials-list", "invariance-seed-string",
        "truncation-seed-float", "claimed-numpy-complex", "mesh-tol-complex", "mesh-tol-numpy-complex64",
        "ratio-n-complex",
        "ratio-n-numpy-complex"])
def test_numeric_arguments_that_are_not_numbers_are_domain_errors(build, message):
    # each ended in a bare TypeError from its guard's comparison, or from the
    # generator's & on the seed; numpy's complex scalars, which numpy orders,
    # passed the guards, and a complex bound or tolerance entered the arithmetic
    with raises_exactly(DomainError, message):
        build()


def test_seeds_take_numpy_integers():
    import numpy as np
    assert run_suite("invariance", trials=2, seed=np.int64(3)) == run_suite("invariance", trials=2, seed=3)


@pytest.mark.parametrize("build, message", [
    (lambda: RadialFamily("0.5", 1.0), "radial family: q must be in (0, 1), got '0.5'"),
    (lambda: RadialFamily(0.5, "1.0"), "radial family: theta must be finite, got '1.0'"),
    (lambda: RadialFamily(0.5, 1 + 0j), "radial family: theta must be a real number, got (1+0j)"),
    (lambda: BoundaryOrbitFamily("0.5", 2.0, 1.0), "boundary_orbit family: c must be in (0, 1), got '0.5'"),
    (lambda: BoundaryOrbitFamily(0.5, "2", 1.0), "boundary_orbit family: p must be positive, got '2'"),
    (lambda: RadialBlockFamily(0.5, 1.0, "0.2"), "block family: r0 must be in (0, 1), got '0.2'"),
    (lambda: Annulus("0.3"), "annulus: inner radius must be in (0, 1), got '0.3'"),
    (lambda: Block((0j,), "0.2"), "block: radius must be finite, got '0.2'"),
    (lambda: Block(("0",), 0.2), "block: center[0] must be finite, got '0'"),
    (lambda: SequencePunctures(prefix=(0.5,), tail_constant="0.9"),
     "sequence: tail_modulus_constant must be in (0, 1), got '0.9'"),
    (lambda: RemovedPolydisks(2, blocks=[(0, 0.25)]), "removed_polydisks: block 0 is not a Block, got (0, 0.25)"),
    (lambda: GridJob(Annulus(0.25), (-0.5, 0.5, -0.5, 0.5), (2.5, 2), "squeezing"),
     "grid resolution must be integers, got (2.5, 2)"),
    (lambda: RadialFamily(0.5 + 0j, 1.0), "radial family: q must be in (0, 1), got (0.5+0j)"),
    (lambda: RadialFamily(np.complex128(0.5), 1.0),
     "radial family: q must be in (0, 1), got np.complex128(0.5+0j)"),
    (lambda: RadialFamily(0.5, np.complex64(1.0)),
     "radial family: theta must be a real number, got np.complex64(1+0j)"),
    (lambda: BoundaryOrbitFamily(np.complex64(0.5), 2.0, 1.0),
     "boundary_orbit family: c must be in (0, 1), got np.complex64(0.5+0j)"),
    (lambda: BoundaryOrbitFamily(0.5, 2 + 0j, 1.0), "boundary_orbit family: p must be positive, got (2+0j)"),
    (lambda: BoundaryOrbitFamily(0.5, np.complex128(2.0), 1.0),
     "boundary_orbit family: p must be positive, got np.complex128(2+0j)"),
    (lambda: RadialBlockFamily(0.5, 1.0, np.complex64(0.25)),
     "block family: r0 must be in (0, 1), got np.complex64(0.25+0j)"),
    (lambda: Annulus(0.25 + 0.5j), "annulus: inner radius must be in (0, 1), got (0.25+0.5j)"),
    (lambda: Annulus(np.complex128(0.25 + 0.5j)),
     "annulus: inner radius must be in (0, 1), got np.complex128(0.25+0.5j)"),
    (lambda: Annulus(np.clongdouble(0.25)),
     "annulus: inner radius must be in (0, 1), got np.clongdouble('0.25+0j')"),
    (lambda: SequencePunctures(prefix=(0.5,), tail_constant=np.complex128(0.9)),
     "sequence: tail_modulus_constant must be in (0, 1), got np.complex128(0.9+0j)"),
], ids=["radial-q", "radial-theta", "radial-theta-complex", "orbit-c", "orbit-p", "block-family-r0",
        "annulus", "block-radius", "block-center", "tail-constant", "block-list-entry", "grid-resolution",
        "radial-q-complex", "radial-q-numpy-complex", "radial-theta-numpy-complex64",
        "orbit-c-numpy-complex64",
        "orbit-p-complex", "orbit-p-numpy-complex", "block-family-r0-numpy-complex64", "annulus-complex",
        "annulus-numpy-complex", "annulus-numpy-clongdouble", "tail-constant-numpy-complex"])
def test_record_fields_that_are_not_numbers_are_domain_errors(build, message):
    # each ended in a bare TypeError from its guard's comparison or from
    # cmath.isfinite, an AttributeError on the block's center, a TypeError
    # from float() on a complex theta, or (the grid) a TypeError in range()
    # once run_grid started; a numpy complex scalar, which numpy orders, was
    # taken as a parameter (an annulus at np.complex128(0.25+0.5j) gave the
    # value (0.5+1j) at 0.5)
    with raises_exactly(DomainError, message):
        build()


def test_grid_resolution_takes_numpy_integers():
    import numpy as np

    rect = (-0.5, 0.5, -0.5, 0.5)
    assert (run_grid(GridJob(Annulus(0.25), rect, (np.int64(3), np.int32(2)), "squeezing"))
            == run_grid(GridJob(Annulus(0.25), rect, (3, 2), "squeezing")))


@pytest.mark.parametrize("build, message", [
    (lambda: FinitePunctures(5), "punctures must be a list, got 5"),
    (lambda: FinitePunctures(None), "punctures must be a list, got None"),
    (lambda: SequencePunctures(prefix=5), "sequence points must be a list, got 5"),
    (lambda: PolySequencePunctures(2, prefix=5), "poly_sequence points must be a list, got 5"),
    (lambda: PolySequencePunctures(2, prefix=(5,)), "poly point 0 must be a list, got 5"),
    (lambda: Block(5, 0.2), "block: center must be a list, got 5"),
    (lambda: RemovedPolydisks(2, blocks=5), "removed_polydisks: blocks must be a list, got 5"),
    (lambda: RemovedBalls(2, blocks=5), "removed_balls: blocks must be a list, got 5"),
    (lambda: GridJob(Annulus(0.25), (-0.5, 0.5), (3, 3), "squeezing"),
     "grid rectangle must be four numbers, got (-0.5, 0.5)"),
    (lambda: GridJob(Annulus(0.25), 5, (3, 3), "squeezing"), "grid rectangle must be four numbers, got 5"),
    (lambda: GridJob(Annulus(0.25), ("-0.5", "0.5", "-0.5", "0.5"), (3, 3), "squeezing"),
     "grid rectangle must be four numbers, got ('-0.5', '0.5', '-0.5', '0.5')"),
    (lambda: GridJob(Annulus(0.25), (-0.5, 0.5, -0.5, 0.5), (3,), "squeezing"),
     "grid resolution must be two integers, got (3,)"),
    (lambda: GridJob(Annulus(0.25), (-0.5, 0.5, -0.5, 0.5), (3, 3, 3), "squeezing"),
     "grid resolution must be two integers, got (3, 3, 3)"),
], ids=["finite-number", "finite-none", "sequence-prefix", "poly-prefix", "poly-point", "block-center",
        "polydisk-blocks", "ball-blocks", "grid-rect-short", "grid-rect-number", "grid-rect-strings",
        "grid-resolution-short",
        "grid-resolution-long"])
def test_record_fields_that_are_not_lists_are_domain_errors(build, message):
    # each ended in a bare TypeError ("'int' object is not iterable", or the
    # rectangle's str - str) or, for the grid's rectangle and resolution, a
    # ValueError from unpacking
    with raises_exactly(DomainError, message):
        build()


HUGE_INT = "an integer too large for a float"


@pytest.mark.parametrize("rect, resolution, message", [
    ((-10**400, 10**400, -0.5, 0.5), (3, 3),
     f"grid rectangle ({HUGE_INT}, {HUGE_INT}, -0.5, 0.5) does not have a finite extent"),
    ((10**400, 10**400 + 1, -0.5, 0.5), (3, 3),
     f"grid rectangle ({HUGE_INT}, {HUGE_INT}, -0.5, 0.5) does not have a finite extent"),
    ((10**5000,), (3, 3), f"grid rectangle must be four numbers, got ({HUGE_INT},)"),
    ([-10**5000, 10**5000, -0.5, 0.5], (3, 3),
     f"grid rectangle [{HUGE_INT}, {HUGE_INT}, -0.5, 0.5] does not have a finite extent"),
    ((-0.5, 0.5, -0.5, 0.5), (10**5000, 3), f"grid resolution {HUGE_INT}x3 has more than {MAX_GRID_CELLS} cells"),
    ((-0.5, 0.5, -0.5, 0.5), (10**5000, 2.5), f"grid resolution must be integers, got ({HUGE_INT}, 2.5)"),
], ids=["rect-extent", "rect-corners", "rect-short", "rect-list", "resolution-cells", "resolution-float"])
def test_grid_ints_beyond_the_float_range_are_domain_errors(rect, resolution, message):
    # the extent ended in a bare OverflowError from math.isfinite, corners
    # with a finite extent in one from run_grid, and the others in a
    # ValueError from printing an int of more than 4300 digits
    with raises_exactly(DomainError, message):
        GridJob(Annulus(0.25), rect, resolution, "squeezing")


def test_record_lists_may_be_any_iterable():
    # a generator is read once, into the tuple the record keeps
    blocks = RemovedPolydisks(2, blocks=(b for b in (ORIGIN_BLOCK,)))
    assert blocks == RemovedPolydisks(2, blocks=(ORIGIN_BLOCK,))
    assert Block(iter((0j, 0j)), 0.25) == ORIGIN_BLOCK


# --- any value where a number belongs ------------------------------------------------

# Valid counts are drawn small: a valid count runs as long as it asks.  The
# brute force runs over a listing, whose puncture beyond the list is refused.
OUTSIDE = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**20, -10**20, 10**400, -10**400]),
    st.floats(-3.0, 3.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]),
    st.integers(-3, 3).map(np.int64),
    st.sampled_from([np.float64(math.nan), np.float64(2.0), np.float64(0.5), np.float64(-np.inf)]),
    st.booleans(),
    st.complex_numbers(max_magnitude=3.0),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
)
LISTING = SequencePunctures(prefix=(0.5 + 0j, 0.5j), tail_constant=0.9)
OUTSIDE_NUMBER_CALLS = (
    SequencePunctures(family=RADIAL).puncture,
    LISTING.puncture,
    SequencePunctures(family=RADIAL).tail_lower_bound,
    LISTING.tail_lower_bound,
    RemovedPolydisks(n=2, family=BLOCK_FAMILY).block,
    ORIGIN_POLYDISKS.block,
    lambda v: run_suite("invariance", trials=v),
    lambda v: run_suite("truncation", trials=v),
    lambda v: run_suite("paper-claims", trials=v, samples=3),
    lambda v: run_suite("invariance", trials=1, samples=v),
    lambda v: brute_force_infimum(LISTING, 0j, v),
    lambda v: boundary_min_oracle(ORIGIN_BLOCK, (0.5 + 0j, 0j), v, "ball"),
    lambda v: annulus_compact_removal_gap(samples=v),
    lambda v: RadialFamily(v, 1.0),
    lambda v: BoundaryOrbitFamily(v, 2.0, 1.0),
    lambda v: RadialBlockFamily(0.5, 1.0, v),
    lambda v: SequencePunctures(prefix=(0.5 + 0j,), tail_constant=v),
    Annulus,
    lambda v: lower_bound_certificate(SequencePunctures(family=RADIAL), 0.1j, v),
    ProductOfBalls,
    lambda v: PolySequencePunctures(n=v, family=RADIAL),
    lambda v: RemovedPolydisks(n=v, family=BLOCK_FAMILY),
    lambda v: RemovedBalls(n=v, family=BLOCK_FAMILY),
    lambda v: RadialFamily(0.5, v),
    lambda v: BoundaryOrbitFamily(0.5, 2.0, v),
    # points, and coordinates of points, of the oracles and the product of balls
    lambda v: brute_force_infimum(LISTING, v, 2),
    lambda v: brute_force_infimum(POLY_RADIAL, (0j, v), 2),
    lambda v: boundary_min_oracle(ORIGIN_BLOCK, v, 1000),
    lambda v: boundary_min_oracle(ORIGIN_BLOCK, (v, 0j), 1000, "ball"),
    lambda v: product_of_balls_squeezing(ProductOfBalls(2), v),
    lambda v: product_of_balls_squeezing(ProductOfBalls(2), [v, (0j, 0j)]),
)


@settings(max_examples=150, deadline=None)
@given(value=OUTSIDE)
def test_any_value_where_a_number_belongs_is_taken_or_refused(value):
    # indices, counts, (0, 1) parameters, dimensions, angles and points: each
    # call returns, or raises a DomainError or a PointError and nothing else
    for call in OUTSIDE_NUMBER_CALLS:
        try:
            call(value)
        except (DomainError, PointError):
            pass
