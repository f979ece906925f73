"""Grid sweeps against a cell-by-cell reference, and the shared sequence prefix."""

import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezefn.cli import GridJob, main, run_grid
from squeezefn.domains import Annulus, DomainError, parse_domain_spec
from squeezefn.hyperbolic import PointError
from squeezefn.invariants import (
    _SEQUENCE_CAP,
    SequencePrefix,
    annulus_squeezing,
    fridman_caratheodory_punctured_disk,
    squeezing_punctured_disk,
)

# the domains of scripts/levelset_sweep.py, plus the slowly converging p = 1 orbit
DOMAINS = {
    "finite_pair": {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]},
    "radial_q05": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "orbit_c05_p2": {"kind": "sequence", "family": "boundary_orbit",
                     "c": 0.5, "p": 2.0, "theta": 2.3},
    "annulus_quarter": {"kind": "annulus", "r": 0.25},
    "orbit_c05_p1": {"kind": "sequence", "family": "boundary_orbit",
                     "c": 0.5, "p": 1.0, "theta": 2.3},
}
EVALUATORS = {"squeezing": squeezing_punctured_disk,
              "fridman-c": fridman_caratheodory_punctured_disk}
RECT = (-0.98, 0.98, -0.98, 0.98)


def reference_csv(domain, invariant: str, rect, res) -> str:
    """The grid CSV built one cell at a time from the scalar evaluators."""
    re_min, re_max, im_min, im_max = rect
    nx, ny = res
    lines = ["re,im,value,truncation_index,certified"]
    for iy in range(ny):
        im = im_min + (im_max - im_min) * iy / (ny - 1)
        for ix in range(nx):
            re = re_min + (re_max - re_min) * ix / (nx - 1)
            z = complex(re, im)
            try:
                if isinstance(domain, Annulus):
                    fields = f"{annulus_squeezing(domain, z)!r},0,true"
                else:
                    out = EVALUATORS[invariant](domain, z)
                    fields = f"{out.value!r},{out.truncation_index},true"
            except PointError:
                fields = ",,false"
            lines.append(f"{re!r},{im!r},{fields}")
    return "\n".join(lines) + "\n"


# --- CLI grids against the reference -----------------------------------------

@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("invariant", ["squeezing", "fridman-c"])
@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_grid_matches_cell_by_cell_reference(name, invariant, jobs, tmp_path):
    doc = DOMAINS[name]
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "grid.csv"
    argv = ["grid", "--domain", str(path), "--rect=" + ",".join(map(repr, RECT)),
            "--res", "25,25", "--invariant", invariant, "--output", str(out),
            "--jobs", str(jobs)]
    if doc["kind"] == "annulus" and invariant == "fridman-c":
        assert main(argv) == 2
        return
    assert main(argv) == 0
    expected = reference_csv(parse_domain_spec(doc), invariant, RECT, (25, 25))
    assert out.read_text(encoding="utf-8") == expected


coordinate = st.floats(min_value=-0.95, max_value=0.95, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(DOMAINS)),
       re=st.tuples(coordinate, coordinate).filter(lambda p: p[0] < p[1]),
       im=st.tuples(coordinate, coordinate).filter(lambda p: p[0] < p[1]),
       res=st.tuples(st.integers(2, 12), st.integers(2, 12)))
def test_grid_matches_reference_on_random_rectangles(name, re, im, res):
    domain = parse_domain_spec(DOMAINS[name])
    rect = (re[0], re[1], im[0], im[1])
    job = GridJob(domain=domain, rect=rect, resolution=res, invariant="squeezing")
    assert run_grid(job) == reference_csv(domain, "squeezing", rect, res)


# --- the shared prefix view --------------------------------------------------

ORBIT = parse_domain_spec(DOMAINS["orbit_c05_p1"])


@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 128, 129, 4097])
def test_prefix_view_is_bitwise_identical(k):
    view = SequencePrefix(ORBIT)
    assert repr(view.tail_lower_bound(k)) == repr(ORBIT.tail_lower_bound(k))
    if k == 0:
        with pytest.raises(DomainError):
            view.puncture(k)
    else:
        assert repr(view.puncture(k)) == repr(ORBIT.puncture(k))
    assert view.known_count() is ORBIT.known_count() is None


def test_prefix_view_rejects_listed_sequences():
    listed = parse_domain_spec({"kind": "sequence", "points": [[0.5, 0.0]]})
    with pytest.raises(DomainError):
        SequencePrefix(listed)


def test_prefix_view_stops_at_the_sequence_cap():
    view = SequencePrefix(ORBIT)
    for k in (_SEQUENCE_CAP - 1, _SEQUENCE_CAP, _SEQUENCE_CAP + 1, 3 * _SEQUENCE_CAP):
        assert repr(view.puncture(k)) == repr(ORBIT.puncture(k))
        assert repr(view.tail_lower_bound(k)) == repr(ORBIT.tail_lower_bound(k))
    assert len(view._points) == len(view._tails) == _SEQUENCE_CAP


def test_prefix_view_shared_by_threads():
    # more threads than cores and a short switch interval, so that unlocked
    # growth would interleave and leave duplicated or misplaced entries
    view = SequencePrefix(ORBIT)
    indices = list(range(1, 5001))
    random.Random(7).shuffle(indices)
    start = threading.Barrier(4)
    seen = [None] * 4

    def read(t: int) -> None:
        start.wait()
        seen[t] = [(k, repr(view.puncture(k)), repr(view.tail_lower_bound(k)))
                   for k in indices[t::4]]

    threads = [threading.Thread(target=read, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(view._points) == len(view._tails) == view._size == 8192
    for rows in seen:
        assert len(rows) == 1250
        for k, point, tail in rows:
            assert point == repr(ORBIT.puncture(k))
            assert tail == repr(ORBIT.tail_lower_bound(k))
