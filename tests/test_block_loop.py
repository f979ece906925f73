"""polydisk_squeezing_removed_blocks against the hand-written block loop it
replaced, kept below verbatim as the reference: the evaluator now hands its
block minima and tails to invariants._scalar_scan, the puncture scan, and
must give the same repr, or the same exception type and message, at every
point: listed and family blocks of both geometries at n = 2 and 3, a family
point inside a later block, the block cap and the mesh tolerance."""

import math

import pytest

from squeezefn import invariants
from squeezefn.block_domains import Block, RemovedBalls, RemovedPolydisks
from squeezefn.blocks import (
    _MESH_FLOOR,
    _ball_block_min,
    _polydisk_block_min,
    _require_outside_block,
    polydisk_squeezing_removed_blocks,
)
from squeezefn.domains import DomainError, _comparable, _shown
from squeezefn.families import RadialBlockFamily
from squeezefn.hyperbolic import PointError, require_interior_polydisk_point
from squeezefn.invariants import DEFAULT_MESH_TOL, CertificationError, InvariantValue, _tail_stops
from squeezefn.verification import Lcg

FAMILY = RadialBlockFamily(q=0.5, theta=1.0, r0=0.25)
# three pairwise-disjoint blocks in either metric (centre distances 0.5,
# 0.51 and 0.92 in the sup norm against radius sums of at most 0.35)
LISTED = {2: (Block((0.3 + 0j, 0j), 0.2), Block((-0.4j, 0.1 + 0j), 0.15),
              Block((0.2 + 0.5j, -0.3 + 0j), 0.1)),
          3: (Block((0.3 + 0j, 0j, 0j), 0.2), Block((-0.4j, 0.1 + 0j, 0.1 + 0j), 0.15),
              Block((0.2 + 0.5j, -0.3 + 0j, 0.2j), 0.1))}
GEOMETRIES = {"polydisk": RemovedPolydisks, "ball": RemovedBalls}
# a ball block at n = 3 takes about 0.5 s at mesh_tol 1e-3
MESH_TOL = {("polydisk", 2): DEFAULT_MESH_TOL, ("polydisk", 3): DEFAULT_MESH_TOL,
            ("ball", 2): 1e-4, ("ball", 3): 1e-2}


def reference(domain, z, mesh_tol=DEFAULT_MESH_TOL):
    """The evaluator before its blocks went through _scalar_scan."""
    _SEQUENCE_CAP = invariants._SEQUENCE_CAP  # read per call, as monkeypatched
    if not isinstance(domain, (RemovedPolydisks, RemovedBalls)):
        raise DomainError(
            f"polydisk_squeezing_removed_blocks does not apply to {type(domain).__name__}")
    if not (_comparable(mesh_tol) and mesh_tol > 0.0):  # also NaN, which would never be reached
        raise DomainError(f"mesh tolerance must be positive, got {_shown(mesh_tol)}")
    z = require_interior_polydisk_point(z, domain.n)
    anchor = max(abs(c) for c in z)
    block_min = (_polydisk_block_min if domain.geometry == "polydisk"
                 else lambda z, block: _ball_block_min(z, block, mesh_tol))

    count = domain.known_count()
    if count is not None:
        for k, block in enumerate(domain.blocks, 1):
            _require_outside_block(domain, z, block, k)
    best_v = math.inf
    best_low = math.inf
    best_k = 0
    examined = 0
    tail = 0.0
    while examined != count:
        if count is None:
            t = domain.family.tail_inner_modulus(examined)
            if _tail_stops(t, anchor, best_v):
                tail = t
                break
        if examined >= _SEQUENCE_CAP:
            raise CertificationError(
                f"block tail bound failed to certify within {_SEQUENCE_CAP} blocks")
        examined += 1
        block = domain.block(examined)
        if count is None:
            _require_outside_block(domain, z, block, examined)
        v, e = block_min(z, block)
        if v < best_v:
            best_v, best_k = v, examined
        best_low = min(best_low, v - e)
    mesh_error = max(best_v - best_low, _MESH_FLOOR)
    if mesh_error > mesh_tol:
        raise CertificationError(
            f"boundary minimization reached mesh error {mesh_error!r}, above the "
            f"mesh tolerance {mesh_tol:g}")
    return InvariantValue(best_v, truncation_index=0 if count is not None else examined,
                          tail_bound_used=tail, mesh_error=mesh_error, attained_index=best_k)


def outcome(evaluate, *args):
    try:
        return repr(evaluate(*args))
    except (PointError, CertificationError) as exc:
        return type(exc).__name__, str(exc)


def assert_same(*args):
    got = outcome(polydisk_squeezing_removed_blocks, *args)
    assert got == outcome(reference, *args), args
    return got


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("listed", [True, False], ids=["listed", "family"])
def test_random_points_match_the_reference_loop(geometry, n, listed):
    cls, tol = GEOMETRIES[geometry], MESH_TOL[geometry, n]
    domain = cls(n=n, blocks=LISTED[n]) if listed else cls(n=n, family=FAMILY)
    rng = Lcg(30 + n)
    outcomes = [assert_same(domain, tuple(rng.disk_point(0.9) for _ in range(n)), tol)
                for _ in range(3 if (geometry, n) == ("ball", 3) else 12)]
    assert any("attained_index=1)" not in o for o in outcomes)  # a later block sets a value


@pytest.mark.parametrize("cls", GEOMETRIES.values())
def test_family_point_inside_a_later_block_exits_there(cls):
    # m(1) = 0.6875 < |z| = 0.75 does not stop the scan, so block 2 is reached
    domain = cls(n=2, family=FAMILY)
    z = domain.block(2).center
    got = assert_same(domain, z, 1e-3)
    assert got == ("PointError", "point lies in or on removed block 2: not in the domain")


def test_listed_point_in_a_later_block_exits_before_any_minimum():
    # every listed block is checked before block 1's ball search could fail
    domain = RemovedBalls(n=2, blocks=LISTED[2])
    got = assert_same(domain, LISTED[2][2].center, 1e-15)
    assert got == ("PointError", "point lies in or on removed block 3: not in the domain")


@pytest.mark.parametrize("cls", GEOMETRIES.values())
def test_block_cap_message(cls, monkeypatch):
    # at |z| = 0.95 no tail up to m(3) = 0.921875 stops the scan
    monkeypatch.setattr(invariants, "_SEQUENCE_CAP", 3)
    got = assert_same(cls(n=2, family=FAMILY), (0.95 + 0j, 0j), 1e-3)
    assert got == ("CertificationError", "block tail bound failed to certify within 3 blocks")


@pytest.mark.parametrize("listed", [True, False], ids=["listed", "family"])
def test_mesh_tolerance_message(listed):
    domain = RemovedPolydisks(n=2, blocks=LISTED[2]) if listed else RemovedPolydisks(n=2, family=FAMILY)
    got = assert_same(domain, (0.1 + 0.1j, 0.1 + 0j), 1e-15)
    assert got[0] == "CertificationError" and "above the mesh tolerance 1e-15" in got[1]
