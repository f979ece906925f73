"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import functools
import json
import math
import time

import pytest

from squeezefn.block_domains import Block, RemovedBalls, RemovedPolydisks
from squeezefn.blocks import polydisk_squeezing_removed_blocks, removed_block_display_formula
from squeezefn.certificates import product_of_balls_ratio_contradiction
from squeezefn.cli import main
from squeezefn.domains import FinitePunctures, ProductOfBalls, SequencePunctures
from squeezefn.families import RadialFamily
from squeezefn.hyperbolic import radial_separation_bound, rho
from squeezefn.invariants import (
    fridman_caratheodory_punctured_disk,
    product_of_balls_squeezing,
    product_of_balls_T_lower_bound,
    squeezing_punctured_disk,
)
from squeezefn.verification import (
    Lcg,
    annulus_compact_removal_gap,
    brute_force_infimum,
    invariance_suite,
    random_finite_domain,
    random_query_point,
)

RADIAL = SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))


def criterion(tag):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {tag}: FAIL")
                raise
            print(f"[acceptance] {tag}: PASS")
        return run
    return wrap


@criterion("removed-disk-vs-annulus")
def test_1_removed_disk_min_and_annulus_value():
    out = annulus_compact_removal_gap(samples=1_000_000)
    analytic, sampled, annulus_val, gap = out.observed
    assert analytic == 2.0 / 7.0                      # attained at w = 1/4
    assert abs(sampled - 2.0 / 7.0) <= 1e-4           # dense-sample oracle
    assert annulus_val == 0.5
    assert abs(gap - 3.0 / 14.0) <= 1e-15
    assert out.passed


@criterion("product-of-balls")
def test_2_product_of_balls_reproduction():
    for n in (2, 4):
        domain = ProductOfBalls(n)
        assert abs(product_of_balls_squeezing(domain) - 1.0 / math.sqrt(n)) <= 1e-15
        assert product_of_balls_T_lower_bound(domain) == product_of_balls_squeezing(domain)
        out = product_of_balls_ratio_contradiction(n)
        assert out.passed
        forced_high, forced_low = out.observed
        assert forced_high > 1.0                       # sqrt(n) cannot be a value
        assert forced_low < 1.0 / math.sqrt(n)         # below the lower bound


@criterion("finite-punctures-formula")
def test_3_finite_puncture_cases():
    pair = FinitePunctures((complex(0.5), complex(0.0, 0.5)))
    assert squeezing_punctured_disk(pair, 0j).value == 0.5
    rng = Lcg(2911)
    for _ in range(100):
        a = rng.disk_point(0.95)
        domain = FinitePunctures((a,))
        z = random_query_point(rng, domain)
        assert abs(squeezing_punctured_disk(domain, z).value - rho(z, a)) <= 1e-15


@criterion("certified-truncation")
def test_4_certified_truncation_soundness():
    rng = Lcg(628318)
    for _ in range(100):
        z = rng.disk_point(0.9)
        res = squeezing_punctured_disk(RADIAL, z)
        assert brute_force_infimum(RADIAL, z, 1000) == res.value
        tail = radial_separation_bound(res.tail_bound_used, abs(z))
        assert tail > res.value


@criterion("mobius-invariance")
def test_5_mobius_invariance_suite():
    reports = invariance_suite(trials=1000, seed=42)
    assert len(reports) == 1000
    assert all(r.passed for r in reports)
    assert all(abs(r.observed - r.expected) <= 1e-12 for r in reports)


@criterion("fridman-equals-squeezing")
def test_6_fridman_identity_bitwise():
    rng = Lcg(161803)
    for _ in range(100):
        domain = random_finite_domain(rng)
        z = random_query_point(rng, domain)
        s = squeezing_punctured_disk(domain, z)
        h = fridman_caratheodory_punctured_disk(domain, z)
        assert s.value == h.value
        assert s == h


@criterion("block-boundary-minimization")
def test_7_block_minimization_and_display_formula():
    z = (complex(0.5), 0j)
    for cls in (RemovedPolydisks, RemovedBalls):
        domain = cls(n=2, blocks=(Block((0j, 0j), 0.25),))
        res = polydisk_squeezing_removed_blocks(domain, z)
        assert res.mesh_error <= 1e-6
        assert 0.0 <= res.value - 2.0 / 7.0 <= res.mesh_error
    origin = RemovedPolydisks(n=2, blocks=(Block((0j, 0j), 0.25),))
    res = polydisk_squeezing_removed_blocks(origin, z)
    display = removed_block_display_formula(origin, z)
    assert abs(display - res.value) <= res.mesh_error + 1e-12
    # documented off-center regression: the display formula ignores centers
    off = RemovedPolydisks(n=2, blocks=(Block((complex(0.3), 0j), 0.2),))
    zoff = (complex(-0.5), 0j)
    rigorous = polydisk_squeezing_removed_blocks(off, zoff)
    display_off = removed_block_display_formula(off, zoff)
    assert abs(rigorous.value - 4.0 / 7.0) <= rigorous.mesh_error
    assert display_off == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rigorous.value - display_off > 0.2


@criterion("no-positive-lower-bound")
def test_8_value_vanishes_along_puncture_approach():
    a1 = RADIAL.puncture(1)
    direction = a1 / abs(a1)
    value = 1.0
    for j in range(1, 41):
        z = a1 - 0.1 * 2.0**-j * direction
        value = squeezing_punctured_disk(RADIAL, z).value
        assert value <= rho(z, a1)
    assert value < 1e-6


@criterion("grid-determinism")
def test_9_grid_determinism(tmp_path):
    domain_path = tmp_path / "radial.json"
    domain_path.write_text(json.dumps(
        {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0}))
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    base = ["grid", "--domain", str(domain_path), "--rect=-0.5,0.5,-0.5,0.5",
            "--res", "100,100"]
    start = time.monotonic()
    assert main(base + ["--output", str(outs[0])]) == 0
    assert main(base + ["--output", str(outs[1])]) == 0
    assert main(base + ["--output", str(outs[2]), "--jobs", "8"]) == 0
    elapsed = time.monotonic() - start
    blobs = [p.read_bytes() for p in outs]
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].splitlines()) == 10_001
    assert elapsed < 5.0
