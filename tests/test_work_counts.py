"""Exact work counts of two workloads, counted by wrapping the functions
that do the work.  The blocks workload's reference configurations and its
seeded polydisk ops at seeds 1 and 14: the closed-form circle minima
(blocks._circle_min) that one evaluation computes, and for ball blocks the
radius profiles that the branch-and-bound evaluates
(blocks._sphere_profiles).  A polydisk block takes exactly n circle minima,
one per coordinate; a ball block takes n per profile.  The
grid workload's five domains at 100x100: the (cell, puncture) pairs that the
distance kernel (chunked._kernel) evaluates, its calls and the chunks of
punctures (domain.chunk) that one sweep generates.  A change that alters a
count re-pins it here and says why."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from squeezefn import blocks, chunked
from squeezefn.blocks import polydisk_squeezing_removed_blocks
from squeezefn.domains import parse_domain_spec
from squeezefn.grid import GridJob, run_grid


def origin_block(geometry, n):
    return {"kind": f"removed_{geometry}s", "n": n, "blocks": [{"center": [[0.0, 0.0]] * n, "radius": 0.25}]}


def offcentre_block(geometry, n):
    return {"kind": f"removed_{geometry}s", "n": n,
            "blocks": [{"center": [[0.3, 0.0]] + [[0.0, 0.0]] * (n - 1), "radius": 0.2}]}


def block_family(geometry, n):
    return {"kind": f"removed_{geometry}s", "n": n, "family": "radial", "q": 0.5, "theta": 1.0, "r0": 0.25}


# (configuration, geometry, n) -> circle minima; the points and tolerances
# are the blocks workload's: mesh_tol 1e-2 for balls at n = 3, else the default
CIRCLE_MINIMA = {
    ("origin", "polydisk", 2): 2, ("offcentre", "polydisk", 2): 2, ("family", "polydisk", 2): 2,
    ("origin", "polydisk", 3): 3, ("offcentre", "polydisk", 3): 3, ("family", "polydisk", 3): 3,
    ("origin", "ball", 2): 3254, ("offcentre", "ball", 2): 4594, ("family", "ball", 2): 2450,
    ("origin", "ball", 3): 2073, ("offcentre", "ball", 3): 2859, ("family", "ball", 3): 951,
}
DOCS = {"origin": origin_block, "offcentre": offcentre_block, "family": block_family}


def point(config, n):
    pad = (0j,) * (n - 1)
    return {"origin": (0.5 + 0j,) + pad, "offcentre": (-0.5 + 0j,) + pad,
            "family": (0.1 + 0j, 0.1 + 0j) + pad[1:]}[config]


def count_circle_minima(monkeypatch) -> list:
    """Wrap blocks._circle_min; the list gets one entry a call."""
    calls = []
    circle = blocks._circle_min

    def counted(*args):
        calls.append(None)
        return circle(*args)

    monkeypatch.setattr(blocks, "_circle_min", counted)
    return calls


@pytest.mark.parametrize("config, geometry, n", CIRCLE_MINIMA)
def test_circle_minima_per_evaluation(config, geometry, n, monkeypatch):
    domain = parse_domain_spec(DOCS[config](geometry, n))
    z = point(config, n)
    kwargs = {"mesh_tol": 1e-2} if (geometry, n) == ("ball", 3) else {}
    expected = repr(polydisk_squeezing_removed_blocks(domain, z, **kwargs))
    calls = count_circle_minima(monkeypatch)
    res = polydisk_squeezing_removed_blocks(domain, z, **kwargs)
    assert repr(res) == expected  # counting changes no value
    assert len(calls) == CIRCLE_MINIMA[config, geometry, n]
    if geometry == "polydisk":  # one block read, listed or the family's first
        assert len(calls) == n * max(res.truncation_index, 1)


# (configuration, n) -> radius profiles a ball evaluation evaluates, corner
# probes included: CIRCLE_MINIMA's ball counts divided by n
PROFILE_EVALS = {
    ("origin", 2): 1627, ("offcentre", 2): 2297, ("family", 2): 1225,
    ("origin", 3): 691, ("offcentre", 3): 953, ("family", 3): 317,
}


@pytest.mark.parametrize("config, n", PROFILE_EVALS)
def test_ball_profiles_per_evaluation(config, n, monkeypatch):
    domain = parse_domain_spec(DOCS[config]("ball", n))
    z = point(config, n)
    kwargs = {"mesh_tol": 1e-2} if n == 3 else {}
    expected = repr(polydisk_squeezing_removed_blocks(domain, z, **kwargs))
    calls = []
    profiles = blocks._sphere_profiles

    def counted(*args):
        calls.append(None)
        return profiles(*args)

    monkeypatch.setattr(blocks, "_sphere_profiles", counted)
    assert repr(polydisk_squeezing_removed_blocks(domain, z, **kwargs)) == expected
    assert len(calls) == PROFILE_EVALS[config, n]
    assert n * len(calls) == CIRCLE_MINIMA[config, "ball", n]


ROOT = Path(__file__).resolve().parent.parent


def blocks_workload(seed):
    """perfbench's blocks workload at ``seed``, built as the harness builds it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclass() looks its module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.build("blocks", seed, parse_domain_spec)


# the blocks workload's seeded polydisk ops, per document: (ops, circle
# minima); each op reads one listed block, n circle minima.  The seeds move
# the points, not the work
SEEDED_POLYDISK_WORK = {
    "origin_polydisk_n2": (4, 8), "offcentre_polydisk_n2": (8, 16),
    "origin_polydisk_n3": (4, 12), "offcentre_polydisk_n3": (8, 24),
}


@pytest.mark.parametrize("seed", [1, 14])
def test_circle_minima_of_the_seeded_polydisk_ops(seed, monkeypatch):
    ops = [op for op in blocks_workload(seed).ops if op.label.startswith("polydisk") and "/seed-" in op.key]
    expected = [repr(op.call()) for op in ops]
    calls = count_circle_minima(monkeypatch)
    work = {}
    for op, want in zip(ops, expected):
        before = len(calls)
        assert repr(op.call()) == want  # counting changes no value
        count, minima = work.get(op.domain, (0, 0))
        work[op.domain] = (count + 1, minima + len(calls) - before)
    assert work == SEEDED_POLYDISK_WORK


# the grid workload's domains, rectangle and resolution (those of
# scripts/levelset_sweep.py at 100x100) -> (kernel pairs, kernel calls, chunks)
GRID_DOCS = {
    "finite_pair": {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]},
    "radial_q05": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "orbit_c05_p2": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
    "orbit_c05_p1": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3},
    "annulus_quarter": {"kind": "annulus", "r": 0.25},
}
GRID_WORK = {
    "finite_pair": (16_000, 2, 1),
    "radial_q05": (74_688, 10, 2),
    "orbit_c05_p2": (118_656, 18, 7),
    "orbit_c05_p1": (311_824, 43, 10),
    "annulus_quarter": (0, 0, 0),
}


@pytest.mark.parametrize("name", GRID_WORK)
def test_grid_kernel_pairs_calls_and_chunks_per_sweep(name, monkeypatch):
    domain = parse_domain_spec(GRID_DOCS[name])
    job = GridJob(domain=domain, rect=(-0.98, 0.98, -0.98, 0.98), resolution=(100, 100),
                  invariant="squeezing")
    expected = run_grid(job)
    pairs, chunks = [], []  # one pair count per kernel call
    kernel = chunked._kernel

    def counted_kernel(*args):
        pairs.append(np.broadcast(*args[:6]).size)
        return kernel(*args)

    monkeypatch.setattr(chunked, "_kernel", counted_kernel)
    if hasattr(domain, "chunk"):
        chunk = type(domain).chunk

        def counted_chunk(self, start, stop):
            chunks.append((start, stop))
            return chunk(self, start, stop)

        monkeypatch.setattr(type(domain), "chunk", counted_chunk)
    assert run_grid(job) == expected  # counting changes no byte
    assert (sum(pairs), len(pairs), len(chunks)) == GRID_WORK[name]
