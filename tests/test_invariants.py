import cmath
import math

import pytest

from squeezefn.cli import GridJob, run_grid
from squeezefn.domains import (
    Annulus,
    BoundaryOrbitFamily,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    RadialFamily,
    SequencePunctures,
)
from squeezefn.hyperbolic import MobiusMap, PointError, radial_separation_bound, rho
from squeezefn.invariants import (
    CertificationError,
    annulus_squeezing,
    fridman_caratheodory_punctured_disk,
    lower_bound_certificate,
    polydisk_squeezing_punctured,
    product_of_balls_T_lower_bound,
    product_of_balls_ratio_contradiction,
    product_of_balls_squeezing,
    squeezing_punctured_disk,
)
from squeezefn.verification import Lcg, brute_force_infimum, random_finite_domain, random_query_point

RADIAL = SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))


# --- finite punctured disk ----------------------------------------------------

def test_two_puncture_domain_at_origin():
    d = FinitePunctures((complex(0.5), complex(0.0, 0.5)))
    res = squeezing_punctured_disk(d, 0j)
    assert res.value == 0.5
    assert res.truncation_index == 0
    assert res.tail_bound_used == 0.0
    assert res.mesh_error == 0.0


def test_single_puncture_value_is_distance():
    rng = Lcg(5)
    for _ in range(100):
        a = rng.disk_point(0.95)
        d = FinitePunctures((a,))
        z = random_query_point(rng, d)
        assert squeezing_punctured_disk(d, z).value == rho(z, a)


def test_tie_break_records_smallest_attaining_index():
    d = FinitePunctures((complex(0.5), complex(-0.5)))
    res = squeezing_punctured_disk(d, 0j)
    assert res.value == 0.5
    assert res.attained_index == 1


def test_query_on_puncture_rejected():
    d = FinitePunctures((complex(0.5),))
    with pytest.raises(PointError, match=r"coincides with puncture"):
        squeezing_punctured_disk(d, complex(0.5))
    with pytest.raises(PointError, match=r"coincides with puncture"):
        squeezing_punctured_disk(d, complex(0.5 + 1e-16))


def test_boundary_adjacent_query_rejected():
    d = FinitePunctures((complex(0.5),))
    with pytest.raises(PointError, match="boundary-adjacent"):
        squeezing_punctured_disk(d, complex(0.99999999999999))


def test_monotone_under_puncture_augmentation():
    rng = Lcg(11)
    for _ in range(200):
        d = random_finite_domain(rng)
        z = random_query_point(rng, d)
        base = squeezing_punctured_disk(d, z).value
        extra = rng.disk_point(0.95)
        if abs(extra - z) < 1e-3 or any(abs(extra - a) < 1e-6 for a in d.punctures):
            continue
        grown = FinitePunctures(d.punctures + (extra,))
        assert squeezing_punctured_disk(grown, z).value <= base


def test_mobius_equivariance_of_formula():
    rng = Lcg(99)
    for _ in range(1000):
        d = random_finite_domain(rng)
        z = random_query_point(rng, d)
        mob = MobiusMap(center=rng.disk_point(0.9),
                        rotation=2.0 * math.pi * rng.uniform())
        mapped = FinitePunctures(tuple(mob(a) for a in d.punctures))
        lhs = squeezing_punctured_disk(mapped, mob(z)).value
        rhs = squeezing_punctured_disk(d, z).value
        assert abs(lhs - rhs) <= 1e-12


# --- certified sequences --------------------------------------------------------

def test_radial_family_at_origin():
    res = squeezing_punctured_disk(RADIAL, 0j)
    assert res.value == 0.5
    assert res.attained_index == 1
    assert res.truncation_index == 1
    assert res.tail_bound_used == 0.75
    # oracle: the minimum over a long explicit prefix agrees
    assert brute_force_infimum(RADIAL, 0j, 1000) == 0.5


def test_certified_result_matches_brute_force():
    rng = Lcg(31337)
    for _ in range(100):
        z = rng.disk_point(0.9)
        res = squeezing_punctured_disk(RADIAL, z)
        count = max(10 * res.truncation_index, res.truncation_index + 1000)
        assert brute_force_infimum(RADIAL, z, count) == res.value
        tail = radial_separation_bound(res.tail_bound_used, abs(z))
        assert tail > res.value


def test_certified_result_independent_of_family_rate():
    slow = SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=1.5, theta=0.7))
    rng = Lcg(8)
    for _ in range(50):
        z = rng.disk_point(0.85)
        res = squeezing_punctured_disk(slow, z)
        count = max(10 * res.truncation_index, res.truncation_index + 1000)
        assert brute_force_infimum(slow, z, count) == res.value


def test_tail_bound_invariant_on_result():
    rng = Lcg(17)
    for _ in range(50):
        z = rng.disk_point(0.9)
        res = squeezing_punctured_disk(RADIAL, z)
        assert 0.0 < res.value <= 1.0
        bound = radial_separation_bound(res.tail_bound_used, abs(z))
        assert bound >= res.value


def test_prefix_with_constant_certifies_or_raises():
    ok = SequencePunctures(prefix=(complex(0.5),), tail_constant=0.8)
    res = squeezing_punctured_disk(ok, 0j)
    assert res.value == 0.5 and res.truncation_index == 1 and res.tail_bound_used == 0.8
    bad = SequencePunctures(prefix=(complex(0.9),), tail_constant=0.4)
    with pytest.raises(CertificationError, match="exhausted without certification"):
        squeezing_punctured_disk(bad, 0j)


def test_points_only_sequence_is_exact_listing():
    d = SequencePunctures(prefix=(complex(0.5), complex(0.3, 0.2)))
    res = squeezing_punctured_disk(d, 0j)
    assert res.value == min(rho(0j, complex(0.5)), rho(0j, complex(0.3, 0.2)))
    assert res.truncation_index == 0


def test_value_decays_toward_puncture():
    # approaching the first puncture geometrically drives the value to 0
    a1 = RADIAL.puncture(1)
    direction = a1 / abs(a1)
    for j in range(1, 41):
        z = a1 - 0.1 * 2.0**-j * direction
        res = squeezing_punctured_disk(RADIAL, z)
        assert res.value <= rho(z, a1)
    assert res.value < 1e-6


# --- Fridman invariant -----------------------------------------------------------

def test_fridman_equals_squeezing_bitwise():
    rng = Lcg(404)
    for _ in range(100):
        d = random_finite_domain(rng)
        z = random_query_point(rng, d)
        assert fridman_caratheodory_punctured_disk(d, z) == squeezing_punctured_disk(d, z)
    assert fridman_caratheodory_punctured_disk(RADIAL, 0j) == squeezing_punctured_disk(RADIAL, 0j)


# --- embedding certificate --------------------------------------------------------

def test_certificate_passes_at_the_value():
    d = FinitePunctures((complex(0.5),))
    out = lower_bound_certificate(d, 0j, 0.5)
    assert out.passed


def test_certificate_fails_above_the_value():
    d = FinitePunctures((complex(0.5),))
    out = lower_bound_certificate(d, 0j, 0.6)
    assert not out.passed
    assert out.violating_index == 1


def test_certificate_covers_radial_tail_finitely():
    out = lower_bound_certificate(RADIAL, 0j, 0.5)
    assert out.passed
    assert "tail bound" in out.details


def test_certificate_rejects_bad_claim_range():
    with pytest.raises(DomainError):
        lower_bound_certificate(RADIAL, 0j, 1.5)


def test_certificate_fail_when_constant_cannot_cover():
    d = SequencePunctures(prefix=(complex(0.9),), tail_constant=0.4)
    out = lower_bound_certificate(d, 0j, 0.5)
    assert not out.passed
    assert out.violating_index is None


def test_certificate_scans_a_listing_beyond_the_family_cap():
    # a listing longer than the 200000-puncture cap for generated families:
    # the tail constant covers only at its last entry, as in the evaluation
    ring = (0.6 * cmath.exp(2j * math.pi * k / 200_000) for k in range(200_000))
    d = SequencePunctures(prefix=(complex(0.5), *ring), tail_constant=0.99)
    res = squeezing_punctured_disk(d, 0j)
    assert (res.value, res.truncation_index, res.tail_bound_used) == (0.5, 200_001, 0.99)
    out = lower_bound_certificate(d, 0j, res.value)
    assert out.passed, out.details
    assert out.details == "examined 200001 punctures; tail bound m = 0.99 covers the rest"


def test_finite_set_is_an_exact_listing():
    # a finite set and the listing of its points without a tail constant agree
    # in value, grid and certificate, passed or failed
    pts = (complex(0.5), 0.5j, complex(-0.25, 0.125))
    finite, listed = FinitePunctures(pts), SequencePunctures(prefix=pts)
    z = complex(0.1, 0.2)
    value = squeezing_punctured_disk(finite, z)
    assert repr(value) == repr(squeezing_punctured_disk(listed, z))
    grids = [run_grid(GridJob(d, (-0.98, 0.98, -0.98, 0.98), (16, 16), "squeezing"))
             for d in (finite, listed)]
    assert grids[0] == grids[1]
    for claimed in (value.value, math.nextafter(value.value, 1.0)):
        outcomes = [lower_bound_certificate(d, z, claimed) for d in (finite, listed)]
        assert outcomes[0] == outcomes[1]
    assert outcomes[0].violating_index == value.attained_index
    assert lower_bound_certificate(finite, z, value.value).details == \
        "all 3 punctures covered, no tail"


# --- punctured polydisk -------------------------------------------------------------

def test_poly_single_puncture():
    d = PolySequencePunctures(n=2, prefix=(((complex(0.5), 0j)),))
    res = polydisk_squeezing_punctured(d, (0j, 0j))
    assert res.value == 0.5


def test_poly_radial_family_at_origin():
    d = PolySequencePunctures(n=2, family=RadialFamily(0.5, 1.0))
    res = polydisk_squeezing_punctured(d, (0j, 0j))
    assert res.value == 0.5
    assert res.attained_index == 1
    assert brute_force_infimum(d, (0j, 0j), 1000) == 0.5


def test_poly_certified_matches_brute_force():
    d = PolySequencePunctures(n=2, family=RadialFamily(0.5, 1.0))
    rng = Lcg(55)
    for _ in range(50):
        z = (rng.disk_point(0.85), rng.disk_point(0.85))
        res = polydisk_squeezing_punctured(d, z)
        count = max(10 * res.truncation_index, res.truncation_index + 1000)
        assert brute_force_infimum(d, z, count) == res.value


def test_poly_n1_collapses_to_disk_case():
    poly = PolySequencePunctures(n=1, family=RadialFamily(0.5, 1.0))
    rng = Lcg(3)
    for _ in range(25):
        z = rng.disk_point(0.9)
        assert polydisk_squeezing_punctured(poly, (z,)).value == \
            squeezing_punctured_disk(RADIAL, z).value


POLY_RADIAL = PolySequencePunctures(n=2, family=RadialFamily(0.5, 1.0))
POLY_LISTED = PolySequencePunctures(n=2, prefix=((0.5 + 0j, 0j), (0j, 0.5j), (-0.3 + 0.3j, 0.4 + 0j)),
                                    tail_constant=0.9)


@pytest.mark.parametrize("domain, z, head", [
    (POLY_LISTED, (0.1 + 0.2j, -0.1j), True),
    (POLY_RADIAL, (0.3 + 0.2j, -0.1j), True),            # stops at puncture 1
    (POLY_RADIAL, (0.999 * cmath.exp(12j), 0.1j), False),  # stops at puncture 12
], ids=["listing", "family-head", "family-past-head"])
def test_poly_certificate_holds_up_to_the_brute_force_infimum(domain, z, head):
    # the claim passes at the infimum and the float below it, and fails at
    # the float above it on the puncture that attains it
    res = polydisk_squeezing_punctured(domain, z)
    assert (res.truncation_index <= 8) is head  # the scalar head's 8 punctures
    value = brute_force_infimum(domain, z, domain.known_count() or res.truncation_index + 1000)
    assert value == res.value
    for claimed in (math.nextafter(value, 0.0), value):
        out = lower_bound_certificate(domain, z, claimed)
        assert out.passed and out.observed == (res.tail_bound_used,), out
    out = lower_bound_certificate(domain, z, math.nextafter(value, 1.0))
    assert not out.passed
    assert (out.observed, out.violating_index) == ((value,), res.attained_index)


def test_poly_dimension_mismatch():
    d = PolySequencePunctures(n=2, family=RadialFamily(0.5, 1.0))
    with pytest.raises(PointError):
        polydisk_squeezing_punctured(d, (0j,))


# --- annulus ---------------------------------------------------------------------

def test_annulus_reference_value():
    assert annulus_squeezing(Annulus(0.25), complex(0.5)) == 0.5


def test_annulus_outer_branch():
    assert annulus_squeezing(Annulus(0.25), complex(0.9)) == 0.9


def test_annulus_branch_symmetry_point():
    r = 0.36
    z = complex(math.sqrt(r))
    v = annulus_squeezing(Annulus(r), z)
    assert v == pytest.approx(math.sqrt(r), abs=1e-15)
    assert v == pytest.approx(r / abs(z), abs=1e-15)


def test_annulus_rejects_points_outside():
    with pytest.raises(PointError):
        annulus_squeezing(Annulus(0.25), complex(0.1))
    with pytest.raises(PointError):
        annulus_squeezing(Annulus(0.25), complex(0.25))
    with pytest.raises(PointError):
        annulus_squeezing(Annulus(0.25), complex(1.0 - 1e-14))


# --- products of balls --------------------------------------------------------------

def test_product_of_balls_values():
    assert product_of_balls_squeezing(ProductOfBalls(1)) == 1.0
    assert product_of_balls_squeezing(ProductOfBalls(2)) == 1.0 / math.sqrt(2.0)
    assert product_of_balls_squeezing(ProductOfBalls(4)) == 0.5


def test_product_of_balls_lower_bound():
    assert product_of_balls_T_lower_bound(ProductOfBalls(2)) == 1.0 / math.sqrt(2.0)
    assert product_of_balls_T_lower_bound(ProductOfBalls(1)) == 1.0
    for n in range(1, 9):
        assert product_of_balls_T_lower_bound(ProductOfBalls(n)) <= 1.0


def test_product_of_balls_point_validation():
    d = ProductOfBalls(2)
    good = ((complex(0.5), 0j), (0j, complex(0.3)))
    assert product_of_balls_squeezing(d, good) == 1.0 / math.sqrt(2.0)
    with pytest.raises(PointError):
        product_of_balls_squeezing(d, ((complex(0.8), complex(0.8)), (0j, 0j)))


def test_ratio_contradictions():
    for n in (2, 4):
        out = product_of_balls_ratio_contradiction(n)
        assert out.passed
        forced_high, forced_low = out.observed
        assert forced_high == pytest.approx(math.sqrt(n), abs=1e-15)
        assert forced_low == pytest.approx(n**-1.5, abs=1e-15)
    with pytest.raises(DomainError):
        product_of_balls_ratio_contradiction(1)


@pytest.mark.parametrize("domain", [FinitePunctures((complex(0.5),)), SequencePunctures(
    family=RadialFamily(q=0.5, theta=1.0))], ids=["finite", "radial-q05"])
def test_certificate_rejects_a_claim_just_above_the_value(domain):
    # the infimum at 0 is 0.5 on both; a claim 5e-13 above it is false
    assert squeezing_punctured_disk(domain, 0j).value == 0.5
    out = lower_bound_certificate(domain, 0j, 0.5 + 5e-13)
    assert not out.passed
    assert out.violating_index == 1
    assert lower_bound_certificate(domain, 0j, 0.5).passed
