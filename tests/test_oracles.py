"""The sampling oracles walk their grids in blocks of at most _ORACLE_BLOCK
points: each value must be bitwise the minimum over the whole grid at once,
which the full-array forms below compute, and the oracles' memory must not
grow with the sample budget."""

import math
import tracemalloc

import numpy as np
import pytest

from squeezefn import verification
from squeezefn.domains import Block
from squeezefn.verification import (
    _ORACLE_BLOCK,
    MAX_ORACLE_SAMPLES,
    _closed_disk_min_oracle,
    _pow2_axis,
    _rho_np,
    boundary_min_oracle,
)

# --- full-array references: the whole sample grid in one array ---------------------


def full_boundary_min(block, z, samples, geometry):
    n = len(block.center)
    r = block.radius
    if geometry == "polydisk":
        axes = 1 + 2 * (n - 1)
        m = _pow2_axis(max(samples // n, 2), axes)
        angles = 2.0 * np.pi * np.arange(m) / m
        radii = np.arange(m + 1) / m
        rim = np.exp(1j * angles)
        disk = (radii[:, None] * rim[None, :]).ravel()
        best = math.inf
        for i in range(n):
            coords = []
            for j in range(n):
                base = rim if j == i else disk
                coords.append(block.center[j] + r * base)
            mesh = np.meshgrid(*coords, indexing="ij")
            g = _rho_np(z[0], mesh[0])
            for j in range(1, n):
                np.maximum(g, _rho_np(z[j], mesh[j]), out=g)
            best = min(best, float(g.min()))
        return best
    axes = 2 * n - 1
    m = _pow2_axis(samples, axes)
    polar = np.pi * np.arange(m + 1) / m
    azimuth = 2.0 * np.pi * np.arange(m) / m
    grids = np.meshgrid(*([polar] * (axes - 1) + [azimuth]), indexing="ij")
    x = []
    sin_prod = np.ones_like(grids[0])
    for t in grids:
        x.append(sin_prod * np.cos(t))
        sin_prod = sin_prod * np.sin(t)
    x.append(sin_prod)
    g = None
    for j in range(n):
        w = block.center[j] + r * (x[2 * j] + 1j * x[2 * j + 1])
        d = _rho_np(z[j], w)
        g = d if g is None else np.maximum(g, d, out=g)
    return float(g.min())


def full_closed_disk_min(z, radius, samples):
    m = max(2, 1 << math.ceil(math.log2(math.sqrt(max(samples, 4)))))
    t = np.arange(m + 1) / m
    phi = 2.0 * np.pi * np.arange(m) / m
    w = radius * t[:, None] * np.exp(1j * phi[None, :])
    return float(_rho_np(z, w).min())


# The disk grid fills 1 block at 4000 samples, 3 on either side of one
# block's budget, 129 at 1M and 513 at the limit; the boundary grids fill 1
# block a face up to one block's budget, 5 to 7 at 250,000 and 33 to 261 at
# 1M and 4M.  Most walks end in a partial block.
BUDGETS = [4_000, _ORACLE_BLOCK - 1, _ORACLE_BLOCK + 1, 250_000, 1_000_000, MAX_ORACLE_SAMPLES]

# (name, block, point) per dimension: the 2/7 configuration, where the
# minimum is attained on a whole face, and an off-centre block at a generic
# point, where it is attained at one grid point
CONFIGS = {
    2: [("origin", Block((0j, 0j), 0.25), (0.5 + 0j, 0j)),
        ("offcentre", Block((0.3 + 0j, -0.1j), 0.2), (-0.5 + 0.1j, 0.2j))],
    3: [("origin", Block((0j, 0j, 0j), 0.25), (0.5 + 0j, 0j, 0j)),
        ("offcentre", Block((0.3 + 0j, -0.1j, 0.05 + 0j), 0.2), (-0.5 + 0.1j, 0.2j, -0.1 + 0j))],
}
BOUNDARY_CASES = [pytest.param(geometry, block, z, id=f"{geometry}-n{n}-{name}")
                  for geometry in ("polydisk", "ball") for n, configs in CONFIGS.items()
                  for name, block, z in configs]
DISKS = [pytest.param(0.5 + 0j, 0.25, id="two-sevenths"),
         pytest.param(0.3 - 0.4j, 0.3, id="generic")]


@pytest.mark.parametrize("samples", BUDGETS)
@pytest.mark.parametrize("geometry, block, z", BOUNDARY_CASES)
def test_boundary_oracle_is_bitwise_the_full_grid_minimum(geometry, block, z, samples):
    expected = full_boundary_min(block, z, samples, geometry)
    assert boundary_min_oracle(block, z, samples, geometry).hex() == expected.hex()


@pytest.mark.parametrize("samples", BUDGETS)
@pytest.mark.parametrize("z, radius", DISKS)
def test_closed_disk_oracle_is_bitwise_the_full_grid_minimum(z, radius, samples):
    expected = full_closed_disk_min(z, radius, samples)
    assert _closed_disk_min_oracle(z, radius, samples).hex() == expected.hex()


@pytest.mark.parametrize("block_points", [100, 1000, 4099])
@pytest.mark.parametrize("geometry, block, z", BOUNDARY_CASES)
def test_small_blocks_walk_the_same_grid(monkeypatch, geometry, block, z, block_points):
    # many blocks and partial blocks, and rows longer than a block (a polydisk
    # face's last coordinate in its disk has 272 points at 8193 samples)
    monkeypatch.setattr(verification, "_ORACLE_BLOCK", block_points)
    for samples in (4_000, _ORACLE_BLOCK + 1):
        expected = full_boundary_min(block, z, samples, geometry)
        assert boundary_min_oracle(block, z, samples, geometry).hex() == expected.hex()
    for z, radius in ((0.5 + 0j, 0.25), (0.3 - 0.4j, 0.3)):
        expected = full_closed_disk_min(z, radius, 4_000)
        assert _closed_disk_min_oracle(z, radius, 4_000).hex() == expected.hex()


def test_a_one_axis_grid_walks_in_parts_of_its_row(monkeypatch):
    # a ball block of one coordinate: its grid is the circle's 2048 angles
    monkeypatch.setattr(verification, "_ORACLE_BLOCK", 100)
    block, z = Block((0.1j,), 0.3), (0.4 + 0.2j,)
    expected = full_boundary_min(block, z, 4_000, "ball")
    assert boundary_min_oracle(block, z, 4_000, "ball").hex() == expected.hex()


def traced_peak_mb(run) -> float:
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_closed_disk_oracle_memory_does_not_grow_with_the_budget():
    # the full 1025 x 1024 grid traces 64 MB at 1M samples, 256 MB at 4M;
    # walked in blocks of 2**13 points, 0.76 and 0.84 MB (5.6 MB in 2**16)
    for samples in (1_000_000, MAX_ORACLE_SAMPLES):
        assert traced_peak_mb(lambda: _closed_disk_min_oracle(0.5 + 0j, 0.25, samples)) < 1.6


@pytest.mark.parametrize("geometry, block, z", BOUNDARY_CASES)
def test_boundary_oracle_memory_does_not_grow_with_the_budget(geometry, block, z):
    # the full grids trace 22 MB (polydisk, n=2) to 260 MB (ball, n=2) at 4M;
    # walked in blocks of 2**13 points, 0.70 to 1.54 MB (5.5 to 12.1 MB in 2**16)
    peak = traced_peak_mb(lambda: boundary_min_oracle(block, z, MAX_ORACLE_SAMPLES, geometry))
    assert peak < 3.0


def plain_rim_min(block, z, samples):
    """The minimum over a one-coordinate polydisk block's boundary, its circle,
    at the polydisk grid's m angles, in one array."""
    m = _pow2_axis(max(samples, 2), 1)
    return float(_rho_np(z[0], block.center[0] + block.radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m))).min())


ONE_COORDINATE = [pytest.param(Block((0j,), 0.25), (0.5 + 0j,), id="two-sevenths"),
                  pytest.param(Block((0.1 + 0.2j,), 0.25), (-0.3 + 0.4j,), id="generic")]


@pytest.mark.parametrize("samples", [1000, MAX_ORACLE_SAMPLES])
@pytest.mark.parametrize("block, z", ONE_COORDINATE)
def test_one_coordinate_polydisk_oracle_is_its_circle(block, z, samples):
    # a 1-dimensional polydisk block has one face, its circle; the unit-disk
    # sample of the other coordinates, once built here, asked 64 TiB at 4M
    peak = traced_peak_mb(lambda: boundary_min_oracle(block, z, samples, "polydisk"))
    assert boundary_min_oracle(block, z, samples, "polydisk").hex() == plain_rim_min(block, z, samples).hex()
    # the circle's 2**21 angles, rim points and shifted rim points, held
    # whole, traced 106 MB at 4M; walked in blocks, 0.64 MB (5.0 MB in 2**16)
    assert peak < (1.5 if samples > 1000 else 1.0)


@pytest.mark.parametrize("geometry", ["polydisk", "ball"])
def test_one_coordinate_oracle_memory_does_not_grow_with_the_budget(geometry):
    # a one-coordinate block's grid is its circle, 2**21 angles at 4M: held
    # whole it traced 106 MB (polydisk) and 48 MB (ball); walked in blocks of
    # 2**13 points, 0.64 and 0.76 MB (5.0 and 6.0 MB in 2**16)
    block, z = Block((0.1j,), 0.3), (0.4 + 0.2j,)
    assert traced_peak_mb(lambda: boundary_min_oracle(block, z, MAX_ORACLE_SAMPLES, geometry)) < 1.5
