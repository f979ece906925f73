import hashlib
import json
import math

import pytest

from squeezefn.cli import main
from squeezefn.domains import DomainError, FinitePunctures, SequencePunctures
from squeezefn.families import BoundaryOrbitFamily, RadialFamily
from squeezefn.hyperbolic import _prepare, radial_separation_bound
from squeezefn.invariants import squeezing_punctured_disk
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
    VerificationReport,
    _prefix_infimum,
    write_reports_json,
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


def brute_force_truncation_suite(trials, seed):
    """truncation_suite with a fresh brute_force_infimum in every trial."""
    rng = Lcg(seed)
    domains = (("radial", RADIAL),
               ("orbit", SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3))))
    width = len(str(trials - 1))
    reports = []
    for name, domain in domains:
        for t in range(trials):
            z = rng.disk_point(0.9)
            res = squeezing_punctured_disk(domain, z)
            count = max(10 * res.truncation_index, res.truncation_index + 1000)
            oracle = brute_force_infimum(domain, z, count)
            tail = radial_separation_bound(res.tail_bound_used, abs(z))
            reports.append(VerificationReport(
                check_name=f"truncation/{name}-{t:0{width}d}",
                passed=oracle == res.value and tail > res.value,
                observed=res.value,
                expected=oracle,
                tolerance=0.0,
                details=f"stopped at {res.truncation_index}, tail bound {tail!r}",
            ))
    return sorted(reports, key=lambda r: r.check_name)


def test_prefix_infimum_is_the_brute_force_at_every_count():
    # moduli 0.8, 0.7, ..., 0.1: at 0 each range's minimum is its last point
    domain = SequencePunctures(prefix=tuple(complex(0.9 - 0.1 * k) for k in range(1, 9)))
    prefix = []
    for count in (3, 1, 5, 2, 8, 8, 4):
        assert _prefix_infimum(prefix, domain, 0j, count) == brute_force_infimum(domain, 0j, count)
    points = [domain.puncture(k) for k in range(1, 9)]
    assert [p.tolist() for p in prefix] == [list(c) for c in zip(*(_prepare(a.real, a.imag) for a in points))]


@pytest.mark.parametrize("seed", [7, 1])
def test_truncation_suite_shares_its_prefix_exactly(seed):
    # the trials' counts are not monotone, so the shared prefix is both
    # extended and sliced
    assert truncation_suite(trials=25, seed=seed) == brute_force_truncation_suite(25, seed)


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


@pytest.mark.parametrize("reports", [
    [],
    [VerificationReport("c", True, 0.5, 0.5, 0.0, "line\nbreak, \"quote\" and \u00e9")],
    [VerificationReport("e", False, math.inf, -0.0, math.nan, ""), VerificationReport("f", True, 1e-300, 2 / 7, 0.0)],
], ids=["empty", "escapes", "non-finite"])
def test_reports_written_one_at_a_time_are_the_json_text(reports):
    written = []
    write_reports_json(reports, written.append)
    assert "".join(written) == json.dumps(reports_to_json(reports), indent=2) + "\n"
    assert len(written) == len(reports) + 1  # a write per report, and the close


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


# SHA-256 of `verify --suite all` at the default settings, text and JSON:
# the suites' every value, name and detail
VERIFY_ALL_SHA256 = {
    "text": "328fb01db14b6526d38909709791d5ac15541a0724a05275c2e41dcb6ab15717",
    "json": "0c3b582fc9230fa062e1bdb4bf7ed9267b7ffded262abb426c081bcd5f82a327",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_pinned(capsys, fmt):
    assert main(["verify", "--suite", "all", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[fmt]
