import json

import pytest

from squeezefn.domains import (
    DomainError,
    FinitePunctures,
    RadialFamily,
    SequencePunctures,
)
from squeezefn.verification import (
    Lcg,
    boundary_oracle_suite,
    brute_force_infimum,
    claims_suite,
    format_reports,
    invariance_suite,
    reports_to_json,
    run_suite,
    truncation_suite,
)

RADIAL = SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))


# --- the seeded generator ------------------------------------------------------

def test_lcg_is_the_documented_recurrence():
    rng = Lcg(42)
    state = 42
    for _ in range(5):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        assert rng.next_u64() == state


def test_lcg_uniform_range_and_reproducibility():
    a = Lcg(7)
    b = Lcg(7)
    va = [a.uniform() for _ in range(1000)]
    vb = [b.uniform() for _ in range(1000)]
    assert va == vb
    assert all(0.0 <= x < 1.0 for x in va)


def test_lcg_disk_point_stays_in_radius():
    rng = Lcg(1)
    assert all(abs(rng.disk_point(0.9)) <= 0.9 for _ in range(500))


# --- brute force oracle -----------------------------------------------------------

def test_brute_force_radial_reference():
    assert brute_force_infimum(RADIAL, 0j, 1000) == 0.5


def test_brute_force_prefix_and_exhaustion():
    d = SequencePunctures(prefix=(complex(0.5), complex(0.25)))
    assert brute_force_infimum(d, 0j, 2) == 0.25
    with pytest.raises(DomainError, match="no generator"):
        brute_force_infimum(d, 0j, 3)


def test_brute_force_k1():
    assert brute_force_infimum(RADIAL, 0j, 1) == 0.5
    assert brute_force_infimum(FinitePunctures((complex(0.3),)), 0j, 1) == 0.3
    with pytest.raises(DomainError, match="no generator"):
        brute_force_infimum(FinitePunctures((complex(0.3),)), 0j, 2)


def test_brute_force_rejects_zero_count():
    with pytest.raises(DomainError):
        brute_force_infimum(RADIAL, 0j, 0)


# --- suites ------------------------------------------------------------------------

def test_invariance_suite_all_pass_and_reproducible():
    first = invariance_suite(trials=100, seed=42)
    second = invariance_suite(trials=100, seed=42)
    assert first == second
    assert all(r.passed for r in first)
    assert len(first) == 100
    names = [r.check_name for r in first]
    assert names == sorted(names)


def test_invariance_suite_seed_changes_draws():
    assert invariance_suite(trials=5, seed=1) != invariance_suite(trials=5, seed=2)


def test_truncation_suite_passes():
    reports = truncation_suite(trials=25, seed=7)
    assert all(r.passed for r in reports)
    assert all(r.tolerance == 0.0 for r in reports)


def test_boundary_oracle_suite_passes():
    reports = boundary_oracle_suite(samples=50_000)
    assert all(r.passed for r in reports), format_reports(reports)


def test_claims_suite_passes_and_is_sorted():
    reports = claims_suite()
    assert all(r.passed for r in reports), format_reports(reports)
    names = [r.check_name for r in reports]
    assert names == sorted(names)
    byname = {r.check_name: r for r in reports}
    assert byname["claims/removed-disk-min-analytic"].observed == 2.0 / 7.0
    assert byname["claims/annulus-value"].observed == 0.5
    assert byname["claims/annulus-vs-removed-disk-gap"].expected == 3.0 / 14.0
    assert byname["claims/fridman-equals-squeezing"].observed == 0.0


def test_report_serialization_formats():
    reports = claims_suite()
    for line, report in zip(format_reports(reports).splitlines(), reports):
        name, status, observed, expected, tolerance = line.split("\t")
        assert name == report.check_name
        assert status == ("PASS" if report.passed else "FAIL")
        assert float(observed) == report.observed
        assert float(expected) == report.expected
        assert float(tolerance) == report.tolerance
    parsed = json.loads(json.dumps(reports_to_json(reports)))
    assert parsed[0]["check_name"] == reports[0].check_name
    assert isinstance(parsed[0]["passed"], bool)


def test_run_suite_dispatch_and_unknown_name():
    assert run_suite("invariance", trials=5) == invariance_suite(trials=5)
    assert run_suite("boundary-oracle", samples=4_000) == boundary_oracle_suite(samples=4_000)
    with pytest.raises(DomainError, match="unknown suite"):
        run_suite("nosuch")


def test_run_suite_all_merges_and_sorts():
    reports = run_suite("all", trials=5, samples=50_000)
    names = [r.check_name for r in reports]
    assert names == sorted(names)
    assert any(n.startswith("claims/") for n in names)
    assert any(n.startswith("invariance/") for n in names)
    assert any(n.startswith("truncation/") for n in names)
    assert any(n.startswith("boundary-oracle/") for n in names)
