"""Grid sweeps against a cell-by-cell reference, pinned digests, the batched
kernel against scalar rho, sequence chunks against scalar punctures, and the
one-call sweep that generates each chunk of a family once."""

import cmath
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezefn.cli import GridJob, main, run_grid
from squeezefn.domains import Annulus, RadialFamily, SequencePunctures, parse_domain_spec
from squeezefn.hyperbolic import INTERIOR_MARGIN, PointError, _kernel, _prepare, rho
from squeezefn.invariants import (
    _SEQUENCE_CAP,
    CertificationError,
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


def scalar_csv(domain, rect, res) -> str:
    """The squeezing grid CSV built one cell at a time from the scalar
    evaluators, uncertified cells included: where a listing's tail constant
    cannot certify a cell, it reports the minimum over the listed points,
    their count and false."""
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
                    out = squeezing_punctured_disk(domain, z)
                    fields = f"{out.value!r},{out.truncation_index},true"
            except PointError:
                fields = ",,false"
            except CertificationError:
                count = domain.known_count()
                value = min(rho(z, domain.puncture(k)) for k in range(1, count + 1))
                fields = f"{value!r},{count},false"
            lines.append(f"{re!r},{im!r},{fields}")
    return "\n".join(lines) + "\n"


# name: (domain document, rect, resolution, rows or row endings the CSV must hold)
EDGE_CASES = {
    "listed_certified": (
        {"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5], [-0.6, 0.2]],
         "tail_modulus_constant": 0.99},
        (-0.3, 0.3, -0.3, 0.3), (7, 7), (",3,true\n",)),
    "listed_tail_fails": (
        {"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5]], "tail_modulus_constant": 0.7},
        (-0.9, 0.9, -0.9, 0.9), (13, 13), (",2,true\n", ",2,false\n")),
    "listed_tail_ties": (  # at the origin the tail bound equals the minimum: certified
        {"kind": "sequence", "points": [[0.5, 0.0]], "tail_modulus_constant": 0.5},
        (-0.5, 0.5, -0.5, 0.5), (5, 5), ("\n0.0,0.0,0.5,1,true\n",)),
    "listed_exhausted": (
        {"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5]]},
        (-0.9, 0.9, -0.9, 0.9), (13, 13), (",0,true\n",)),
    "finite_puncture_on_node": (
        {"kind": "finite_punctures", "points": [[0.25, 0.0], [0.0, -0.5]]},
        (-0.5, 0.5, -0.5, 0.5), (5, 5), ("\n0.25,0.0,,,false\n", "\n0.0,-0.5,,,false\n")),
    "annulus_nodes_on_rim": (
        {"kind": "annulus", "r": 0.5},
        (-0.5, 0.5, -0.5, 0.5), (5, 5), ("\n0.5,0.0,,,false\n", "\n0.0,-0.5,,,false\n")),
}


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_grid_edge_cases_match_scalar_cells(name, jobs, tmp_path):
    doc, rect, res, rows = EDGE_CASES[name]
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main(["grid", "--domain", str(path), "--rect=" + ",".join(map(repr, rect)),
                 "--res", f"{res[0]},{res[1]}", "--output", str(out),
                 "--jobs", str(jobs)]) == 0
    expected = scalar_csv(parse_domain_spec(doc), rect, res)
    assert all(row in expected for row in rows)
    assert out.read_text(encoding="utf-8") == expected


# --- pinned digests ----------------------------------------------------------

# SHA-256 of run_grid over RECT for the scripts/levelset_sweep.py domains at
# its default 200x200, and for the p = 1 orbit at 100x100, computed from the
# one-cell-at-a-time sweep before the batched kernel replaced it
DIGESTS = {
    ("finite_pair", 200): "48ed24b2bb92c8c261b53e763ee089ab7424502ab530e66a921bbd1d2f006ece",
    ("radial_q05", 200): "7172d034be5ab8c8cc052dec9898ecb004f9e335cd651847a3215a309e094e1e",
    ("orbit_c05_p2", 200): "5028255455ffaede841169995ef61ab0cabd8483c7d1fcfa2bc3b6c3a76475cd",
    ("annulus_quarter", 200): "ae3d1ff52d31db72216db05e5a49998ecc419663a1e101716c3ee9c91bdb8219",
    ("orbit_c05_p1", 100): "4b4d1517d31c723ce02588a2f4894d30d84e2863cb72c4aa50afd1e978fd91f1",
}


@pytest.mark.parametrize("name,res", sorted(DIGESTS))
def test_grid_digest_is_pinned(name, res):
    job = GridJob(domain=parse_domain_spec(DOMAINS[name]), rect=RECT,
                  resolution=(res, res), invariant="squeezing")
    assert hashlib.sha256(run_grid(job).encode()).hexdigest() == DIGESTS[(name, res)]


# --- the batched kernel against scalar rho -----------------------------------

def kernel_rho(zs, ws) -> list:
    """The grid kernel's rho(z, w) for every z (rows) and w (columns)."""
    z = np.array(zs, dtype=complex)
    w = np.array(ws, dtype=complex)
    return _kernel(*_prepare(z.real[:, None], z.imag[:, None]), *_prepare(w.real, w.imag),
                   np.sqrt).tolist()


# moduli of 1 - 2^-k round to 1.0 from k = 54 on
RIM = [RadialFamily(q=0.5, theta=1.0).point(k) for k in (54, 60, 100)]
SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
BY_REAL = (0.5 + 0j, 0.3 + 0j)                  # |Re b| >= |Im b| for b = 1 - conj(z) w
BY_IMAG = (0.9 + 0j, cmath.rect(0.95, -1.2))    # |Re b| < |Im b|

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
interior = st.builds(complex, unit, unit).filter(lambda z: abs(z) < 1.0 - INTERIOR_MARGIN)
closed = st.builds(complex, unit, unit).filter(lambda w: abs(w) <= 1.0)
on_rim = st.builds(lambda k, theta: RadialFamily(q=0.5, theta=theta).point(k),
                   st.integers(54, 200), st.floats(0.0, 2.0 * math.pi))


@pytest.mark.parametrize("z,w,by_real", [BY_REAL + (True,), BY_IMAG + (False,)])
def test_kernel_covers_both_smith_branches(z, w, by_real):
    b = 1.0 - z.conjugate() * w
    assert (abs(b.real) >= abs(b.imag)) == by_real
    assert repr(kernel_rho([z], [w])[0][0]) == repr(rho(z, w))


def test_rim_punctures_have_modulus_rounding_to_one():
    assert all(1.0 - 0.5**k == 1.0 for k in (54, 60, 100))


@settings(max_examples=300, deadline=None)
@given(zs=st.lists(st.one_of(interior, st.sampled_from(SIGNED_ZEROS)), min_size=1, max_size=6),
       ws=st.lists(st.one_of(closed, on_rim, st.sampled_from(SIGNED_ZEROS)), min_size=1, max_size=6))
@example(zs=[BY_REAL[0], BY_IMAG[0]], ws=[BY_REAL[1], BY_IMAG[1]])
@example(zs=[0j, -0j, complex(-0.0, 0.5), complex(0.5, -0.0)], ws=SIGNED_ZEROS + RIM)
@example(zs=[complex(-0.0, -0.7), complex(0.7, 0.0), 0.999 + 0j], ws=RIM + [complex(0.0, -0.3)])
def test_kernel_matches_scalar_rho_bitwise(zs, ws):
    got = kernel_rho(zs, ws)
    for z, row in zip(zs, got):
        assert [repr(v) for v in row] == [repr(rho(z, w)) for w in ws]


# --- sequence chunks and the one-call sweep ----------------------------------

ORBIT = parse_domain_spec(DOMAINS["orbit_c05_p1"])


def chunk_rows(domain, start, stop) -> list:
    """(puncture, tail bound) reprs of indices start+1 .. stop, read from domain.chunk."""
    re, im, tails = domain.chunk(start, stop)
    return [(repr(complex(x, y)), repr(t))
            for x, y, t in zip(re.tolist(), im.tolist(), tails.tolist())]


def scalar_rows(domain, start, stop) -> list:
    return [(repr(domain.puncture(k)), repr(domain.tail_lower_bound(k)))
            for k in range(start + 1, stop + 1)]


@pytest.mark.parametrize("k", [1, 63, 64, 65, 128, 129, 4097])
def test_sequence_chunk_is_bitwise_identical(k):
    # alone, and inside the chunk of a doubling schedule from 64 that holds k
    assert chunk_rows(ORBIT, k - 1, k) == scalar_rows(ORBIT, k - 1, k)
    start = 0 if k <= 64 else 1 << ((k - 1).bit_length() - 1)
    stop = max(64, 2 * start)
    assert chunk_rows(ORBIT, start, stop)[k - 1 - start] == scalar_rows(ORBIT, k - 1, k)[0]


def test_sequence_chunk_ends_at_the_sequence_cap():
    assert chunk_rows(ORBIT, _SEQUENCE_CAP - 3, _SEQUENCE_CAP) == scalar_rows(
        ORBIT, _SEQUENCE_CAP - 3, _SEQUENCE_CAP)


def test_sequence_chunk_runs_past_the_sequence_cap():
    # the cap bounds an evaluation, not the family
    for k in (_SEQUENCE_CAP + 1, 3 * _SEQUENCE_CAP):
        assert chunk_rows(ORBIT, k - 1, k) == scalar_rows(ORBIT, k - 1, k)


def test_listed_chunk_ends_with_its_tail_constant():
    exact = parse_domain_spec({"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5]]})
    bounded = parse_domain_spec({"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5]],
                                 "tail_modulus_constant": 0.9})
    assert chunk_rows(bounded, 0, 2) == scalar_rows(bounded, 0, 2)
    # an exhausted listing's last bound is NaN where tail_lower_bound gives None
    assert chunk_rows(exact, 0, 2) == [("(0.5+0j)", "0.0"), ("0.5j", "nan")]


def test_grid_sweep_generates_each_chunk_once(monkeypatch):
    # one kernel call per sweep: the chunks requested from the family tile
    # its prefix, so no puncture is generated twice
    domain = parse_domain_spec(DOMAINS["orbit_c05_p1"])
    requested = []
    chunk = SequencePunctures.chunk

    def recording_chunk(self, start, stop):
        if self is domain:
            requested.append((start, stop))
        return chunk(self, start, stop)

    monkeypatch.setattr(SequencePunctures, "chunk", recording_chunk)
    job = GridJob(domain=domain, rect=RECT, resolution=(100, 100), invariant="squeezing")
    assert hashlib.sha256(run_grid(job).encode()).hexdigest() == DIGESTS[("orbit_c05_p1", 100)]
    assert len(requested) > 1
    assert [start for start, _ in requested] == [0] + [stop for _, stop in requested[:-1]]
