import cmath
import math

import pytest

from squeezefn.block_domains import Block, RemovedBalls, RemovedPolydisks
from squeezefn.blocks import polydisk_squeezing_removed_blocks, removed_block_display_formula
from squeezefn.domains import DomainError
from squeezefn.families import RadialBlockFamily
from squeezefn.hyperbolic import PointError, rho
from squeezefn.invariants import CertificationError
from squeezefn.verification import Lcg, boundary_min_oracle

ORIGIN_BLOCK = Block((0j, 0j), 0.25)
Z_HALF = (complex(0.5), 0j)


def circle_min_oracle(z, c, s, samples=200_000):
    return min(rho(z, c + s * cmath.exp(2j * math.pi * k / samples))
               for k in range(samples))


# --- reference configuration ---------------------------------------------------

def test_origin_polydisk_block_value():
    d = RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,))
    res = polydisk_squeezing_removed_blocks(d, Z_HALF)
    assert res.mesh_error <= 1e-6
    assert 0.0 <= res.value - 2.0 / 7.0 <= res.mesh_error
    assert res.truncation_index == 0
    assert res.mesh_error > 0.0


def test_origin_ball_block_value():
    d = RemovedBalls(n=2, blocks=(ORIGIN_BLOCK,))
    res = polydisk_squeezing_removed_blocks(d, Z_HALF)
    assert res.mesh_error <= 1e-6
    assert 0.0 <= res.value - 2.0 / 7.0 <= res.mesh_error


def test_ball_n3_off_axis_brackets_two_sevenths():
    # the minimum sits on the corner profile (1/4, 0, 0), where the far
    # coordinates give rho(0.1i, 0) = 0.1 and 0
    d = RemovedBalls(n=3, blocks=(Block((0j, 0j, 0j), 0.25),))
    res = polydisk_squeezing_removed_blocks(d, (complex(0.5), 0.1j, 0j), mesh_tol=1e-3)
    assert res.mesh_error <= 1e-3
    assert res.value - res.mesh_error <= 2.0 / 7.0 <= res.value


def test_mesh_tolerance_is_configurable():
    d = RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,))
    loose = polydisk_squeezing_removed_blocks(d, Z_HALF, mesh_tol=1e-3)
    tight = polydisk_squeezing_removed_blocks(d, Z_HALF, mesh_tol=1e-9)
    assert loose.mesh_error <= 1e-3
    assert tight.mesh_error <= 1e-9
    # refining never raises the reported value by more than the coarser error
    assert tight.value <= loose.value + loose.mesh_error


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6])
def test_mesh_tolerance_must_be_positive(tol):
    d = RemovedBalls(n=2, blocks=(ORIGIN_BLOCK,))
    with pytest.raises(DomainError, match="mesh tolerance must be positive"):
        polydisk_squeezing_removed_blocks(d, Z_HALF, mesh_tol=tol)


def test_ball_refinement_cap_raises(monkeypatch):
    from squeezefn import blocks

    monkeypatch.setattr(blocks, "_BALL_EVALS_CAP", 200)
    with pytest.raises(CertificationError, match="mesh tolerance"):
        blocks._ball_block_min(Z_HALF, ORIGIN_BLOCK, 1e-13)


# --- display formula ------------------------------------------------------------

def test_display_formula_agrees_at_reference_configuration():
    d = RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,))
    res = polydisk_squeezing_removed_blocks(d, Z_HALF)
    display = removed_block_display_formula(d, Z_HALF)
    assert display == 2.0 / 7.0
    assert abs(display - res.value) <= res.mesh_error + 1e-12


def test_display_formula_matches_rigorous_for_separated_origin_blocks():
    # origin-centered blocks with every coordinate outside the block radius
    rng = Lcg(12)
    for _ in range(20):
        r = 0.05 + 0.2 * rng.uniform()
        d = RemovedPolydisks(n=2, blocks=(Block((0j, 0j), r),))
        z = []
        while len(z) < 2:
            p = rng.disk_point(0.9)
            if abs(p) > r + 1e-3:
                z.append(p)
        z = tuple(z)
        res = polydisk_squeezing_removed_blocks(d, z)
        display = removed_block_display_formula(d, z)
        assert abs(display - res.value) <= res.mesh_error + 1e-9


def test_display_formula_disagrees_off_center():
    # regression: the center-free closed form cannot see block centers
    d = RemovedPolydisks(n=2, blocks=(Block((complex(0.3), 0j), 0.2),))
    z = (complex(-0.5), 0j)
    res = polydisk_squeezing_removed_blocks(d, z)
    display = removed_block_display_formula(d, z)
    # rigorous boundary minimum: nearest rim point of the first coordinate is
    # 0.1, giving rho(-1/2, 1/10) = 4/7
    assert abs(res.value - 4.0 / 7.0) <= res.mesh_error
    assert display == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert res.value - display > 0.2


# --- sampling oracle agreement ----------------------------------------------------

def test_oracle_hits_reference_values_exactly():
    assert boundary_min_oracle(ORIGIN_BLOCK, Z_HALF, 1_000_000, "polydisk") == 2.0 / 7.0
    assert boundary_min_oracle(ORIGIN_BLOCK, Z_HALF, 1_000_000, "ball") == 2.0 / 7.0


def test_oracle_within_certified_bracket():
    for geometry, cls in (("polydisk", RemovedPolydisks), ("ball", RemovedBalls)):
        d = cls(n=2, blocks=(ORIGIN_BLOCK,))
        res = polydisk_squeezing_removed_blocks(d, Z_HALF)
        oracle = boundary_min_oracle(ORIGIN_BLOCK, Z_HALF, 500_000, geometry)
        assert res.value - res.mesh_error - 1e-12 <= oracle <= res.value + 1e-12


def test_oracle_nonincreasing_under_doubling():
    z = (complex(0.41, 0.07), complex(-0.2, 0.33))
    block = Block((complex(0.1, -0.05), complex(0.02, 0.0)), 0.22)
    for geometry in ("polydisk", "ball"):
        vals = [boundary_min_oracle(block, z, s, geometry)
                for s in (10_000, 20_000, 40_000, 80_000)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_oracle_min_governed_by_far_coordinate():
    block = Block((0j, 0j), 0.1)
    z = (complex(0.8), 0j)
    expected = rho(complex(0.8), complex(0.1))
    assert boundary_min_oracle(block, z, 100_000, "polydisk") == pytest.approx(
        expected, abs=1e-12)


def test_oracle_rejects_small_budget():
    with pytest.raises(DomainError, match="samples >= 1000"):
        boundary_min_oracle(ORIGIN_BLOCK, Z_HALF, 10, "polydisk")


def test_rigorous_value_against_per_coordinate_reduction():
    # independent route: on each face the minimum is the max of per-coordinate
    # circle minima (circle sampled densely), dropping to 0 for coordinates
    # whose disk contains z_j
    rng = Lcg(77)
    for _ in range(5):
        c = (rng.disk_point(0.3), rng.disk_point(0.3))
        r = 0.1 + 0.15 * rng.uniform()
        if max(abs(x) for x in c) + r >= 0.99:
            continue
        d = RemovedPolydisks(n=2, blocks=(Block(c, r),))
        while True:
            z = (rng.disk_point(0.85), rng.disk_point(0.85))
            if max(abs(a - b) for a, b in zip(z, c)) > r + 1e-2:
                break
        res = polydisk_squeezing_removed_blocks(d, z)
        faces = []
        rim = [circle_min_oracle(z[j], c[j], r, 20_000) for j in range(2)]
        disk = [0.0 if abs(z[j] - c[j]) <= r else rim[j] for j in range(2)]
        for i in range(2):
            faces.append(max(rim[i], disk[1 - i]))
        reduction = min(faces)
        assert abs(res.value - reduction) <= res.mesh_error + 1e-6


# --- membership ------------------------------------------------------------------

def test_point_inside_block_rejected():
    d = RemovedPolydisks(n=2, blocks=(ORIGIN_BLOCK,))
    with pytest.raises(PointError, match="removed block"):
        polydisk_squeezing_removed_blocks(d, (complex(0.1), 0j))
    with pytest.raises(PointError, match="removed block"):
        polydisk_squeezing_removed_blocks(d, (complex(0.25), 0j))  # on the rim


def test_ball_membership_uses_euclidean_norm():
    d = RemovedBalls(n=2, blocks=(Block((0j, 0j), 0.25),))
    z = (complex(0.2), complex(0.2))  # euclidean norm 0.283 > 0.25: outside
    res = polydisk_squeezing_removed_blocks(d, z)
    assert res.value > 0.0
    dp = RemovedPolydisks(n=2, blocks=(Block((0j, 0j), 0.25),))
    with pytest.raises(PointError):
        polydisk_squeezing_removed_blocks(dp, z)  # sup norm 0.2 < 0.25: inside


# --- block families ----------------------------------------------------------------

def test_block_family_certified_truncation():
    fam = RadialBlockFamily(q=0.5, theta=1.0, r0=0.1)
    d = RemovedPolydisks(n=2, family=fam)
    res = polydisk_squeezing_removed_blocks(d, (0j, 0j))
    assert res.truncation_index >= 1
    assert res.tail_bound_used > 0.0
    # oracle: every examined block plus a margin of later ones
    per_block = []
    for k in range(1, res.truncation_index + 10):
        b = d.block(k)
        per_block.append(boundary_min_oracle(b, (0j, 0j), 50_000, "polydisk"))
    oracle = min(per_block)
    assert abs(oracle - res.value) <= res.mesh_error + 1e-3
    assert res.value - res.mesh_error <= oracle + 1e-12
