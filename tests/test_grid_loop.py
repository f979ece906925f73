"""chunked.grid_cells against the block loop it replaced, kept below
verbatim as the reference: a kernel block is now laid out punctures x cells,
its running minimum is taken down the rows in place with the cells' earlier
minimum folded into the first row, the stop is the separation bound alone,
and the collision is read from the running minimum at the cell's last
position.  Values, truncation indices and certified flags must be bitwise
the reference's on finite punctures, listings with and without a tail
constant, radial families and boundary_orbit families at p = 1 and p = 2:
on random rectangles, on cells exactly on a puncture (in the first chunk,
in a later chunk before the stop, and after the stop in the same chunk),
on cells still open at a lowered _SEQUENCE_CAP and on cells at the interior
margin."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezefn import invariants
from squeezefn.chunked import GRID_BLOCK, grid_cells
from squeezefn.domains import Annulus, parse_domain_spec
from squeezefn.hyperbolic import INTERIOR_MARGIN, _kernel, _prepare
from squeezefn.invariants import _GRID_FIRST_CHUNK, COLLISION_EPS, _tail_stops, _unstopped


def reference(domain, reals, imags):
    """grid_cells before its blocks were laid out punctures x cells."""
    _SEQUENCE_CAP = invariants._SEQUENCE_CAP  # read per call, as monkeypatched
    zr = np.tile(np.array(reals, dtype=float), len(imags))
    zi = np.repeat(np.array(imags, dtype=float), len(reals))
    anchor = np.hypot(zr, zi)  # abs(complex(re, im))
    value = np.full(zr.shape, np.nan)
    index = np.zeros(zr.shape, dtype=np.int64)
    certified = np.ones(zr.shape, dtype=bool)
    inside = anchor < 1.0 - INTERIOR_MARGIN  # as require_interior_point
    if isinstance(domain, Annulus):
        r = domain.inner_radius
        cells = inside & (anchor > r)
        value[cells] = np.maximum(anchor[cells], r / anchor[cells])
        return value, index, certified

    limit = domain.known_count() or _SEQUENCE_CAP
    best = np.full(zr.shape, np.inf)
    cells = np.flatnonzero(inside)
    cr, ci, cp = (np.zeros(zr.shape) for _ in range(3))
    cr[cells], ci[cells], cp[cells] = _prepare(zr[cells], zi[cells])
    examined, width = 0, _GRID_FIRST_CHUNK
    while cells.size and examined < limit:
        stop = min(examined + width, limit)
        ar, ai, tails = domain.chunk(examined, stop)
        ar, ai, pa = _prepare(ar, ai)
        size = stop - examined
        group = max(1, GRID_BLOCK // size)
        still_open = []
        for first in range(0, cells.size, group):
            g = cells[first:first + group]
            dist = _kernel(cr[g, None], ci[g, None], cp[g, None], ar, ai, pa, np.sqrt)
            run = np.minimum.accumulate(dist, axis=1)
            np.minimum(run, best[g, None], out=run)
            stops = _tail_stops(tails, anchor[g, None], run)
            stopped = stops.any(axis=1)
            last = np.where(stopped, stops.argmax(axis=1), size - 1)  # each cell's last position
            best[g] = run[np.arange(g.size), last]
            hits = dist < COLLISION_EPS
            collided = hits.any(axis=1) & (hits.argmax(axis=1) <= last)
            done = stopped & ~collided
            value[g[done]] = best[g[done]]
            index[g[done]] = examined + 1 + last[done]
            still_open.append(g[~(stopped | collided)])
        cells = np.concatenate(still_open)
        examined, width = stop, min(2 * width, GRID_BLOCK)

    # cells left open examined the whole listing or the capped prefix
    value[cells] = best[cells]
    index[cells], _, certified[cells] = _unstopped(domain, anchor[cells], best[cells])
    return value, index, certified


DOMAINS = {
    "finite": {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5], [-0.3, -0.6]]},
    "listing": {"kind": "sequence", "points": [[0.9, 0.0], [0.0, -0.95], [-0.5, 0.5]]},
    "tail-constant": {"kind": "sequence", "points": [[0.9, 0.0], [0.0, -0.95]],
                      "tail_modulus_constant": 0.99},
    "radial": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "orbit-p2": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
    "orbit-p1": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3},
}


def assert_same(domain, reals, imags):
    got = grid_cells(domain, reals, imags)
    want = reference(domain, reals, imags)
    assert got[0].tobytes() == want[0].tobytes(), (reals, imags)  # the bits, NaN included
    assert got[1].tolist() == want[1].tolist(), (reals, imags)
    assert got[2].tolist() == want[2].tolist(), (reals, imags)
    return got


def axis(start, step, count):
    return [start + step * i for i in range(count)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DOMAINS)), st.floats(-1.05, 1.05), st.floats(-1.05, 1.05),
       st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.integers(1, 12), st.integers(1, 12))
@example("orbit-p1", -0.999, -0.001, 1e-4, 1e-4, 3, 3)  # near the rim: long prefixes
@example("radial", -0.98, -0.98, 0.196, 0.196, 11, 11)
def test_random_rectangles_match_the_reference_loop(name, re0, im0, dre, dim, nx, ny):
    assert_same(parse_domain_spec(DOMAINS[name]), axis(re0, dre, nx), axis(im0, dim, ny))


def on_punctures(domain, ks):
    """Axes whose grid holds a cell exactly on each puncture k of ``ks``,
    among cells that are not."""
    points = [domain.puncture(k) for k in ks]
    return [p.real for p in points] + [0.1], [p.imag for p in points] + [-0.2]


@pytest.mark.parametrize("name, ks", [
    ("finite", [1, 2, 3]),
    ("listing", [1, 3]),
    ("tail-constant", [2]),
    ("radial", [1, 5, 8]),      # the first chunk holds punctures 1-8
    ("radial", [9, 10, 24]),    # the second 9-24, reached before the stop
    ("orbit-p2", [3, 12, 30]),
    ("orbit-p1", [2, 20, 100]),
])
def test_cells_on_punctures_collide(name, ks):
    domain = parse_domain_spec(DOMAINS[name])
    reals, imags = on_punctures(domain, ks)
    value, _, _ = assert_same(domain, reals, imags)
    for i, k in enumerate(ks):  # the cell on puncture k, on the diagonal
        assert math.isnan(value[i * len(reals) + i]), k
    assert not np.isnan(value[-1])  # (0.1, -0.2) is on none


class StopAtTen:
    """The radial family with a tail bound of 1.0 after puncture 10, which no
    real domain has: every cell still open there stops at index 10, so cells
    on punctures 11 and 12, in the same chunk (9-24), stop before them.  (A
    true tail bound keeps every later puncture farther than the stop's
    running minimum, so the row after a stop would read the same.)"""

    def __init__(self):
        self.family = parse_domain_spec(DOMAINS["radial"])

    def known_count(self):
        return None

    def puncture(self, k):
        return self.family.puncture(k)

    def chunk(self, start, stop):
        ar, ai, tails = self.family.chunk(start, stop)
        if start < 10 <= stop:
            tails[10 - start - 1] = 1.0
        return ar, ai, tails


def test_a_puncture_after_the_stop_is_no_collision():
    domain = StopAtTen()
    reals, imags = on_punctures(domain, [11, 12])
    value, index, certified = assert_same(domain, reals, imags)
    for cell in (0, len(reals) + 1):  # on punctures 11 and 12
        assert value[cell] > COLLISION_EPS and index[cell] == 10 and certified[cell]


@pytest.mark.parametrize("name", ["radial", "orbit-p2", "orbit-p1"])
def test_cells_open_at_a_lowered_cap(name, monkeypatch):
    # at cap 30 the second chunk is cut to 9-30; cells near the rim (at
    # 1 - 1e-10 beyond every radial modulus up to 1 - 2^-30) are still open
    # there and report their examined minimum, uncertified
    monkeypatch.setattr(invariants, "_SEQUENCE_CAP", 30)
    domain = parse_domain_spec(DOMAINS[name])
    reals = axis(-0.999, 0.0995, 21) + [0.9999999999]
    value, index, certified = assert_same(domain, reals, [0.0, 0.3, 0.97])
    assert not certified.all() and certified.any()
    assert set(index[~certified].tolist()) == {30}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_cells_at_the_interior_margin(name, monkeypatch):
    # 1 - INTERIOR_MARGIN is outside, the float below it inside; the cap
    # keeps the p = 1 orbit, which certifies there only far beyond it, short
    monkeypatch.setattr(invariants, "_SEQUENCE_CAP", 5000)
    edge = 1.0 - INTERIOR_MARGIN
    inner = math.nextafter(edge, 0.0)
    value, _, _ = assert_same(parse_domain_spec(DOMAINS[name]), [-edge, -inner, 0.0, inner, edge], [0.0])
    assert math.isnan(value[0]) and math.isnan(value[4])
    assert not math.isnan(value[1]) and not math.isnan(value[3])
