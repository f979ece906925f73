"""The four workloads: inputs, operations, known-defect probes and oracle checks.

A workload is a fixed list of operations, one round.  The timed loop repeats
whole rounds, each operation starting when the previous one has finished: a
closed loop with one client.  Reference configurations (the levelset
rectangle, the 2/7 block, the near-boundary points of the truncation profile)
are fixed.  The seed draws the off-reference query points with the
benchmark's own generator; squeezefn receives only the generated inputs.

Off-reference points are drawn only where their cost hardly depends on where
they fall (the smooth radial family, polydisk blocks, CLI commands whose time
is start-up), so that runs with different seeds measure the same work.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from squeezefn import (
    PointError,
    annulus_squeezing,
    boundary_min_oracle,
    brute_force_infimum,
    fridman_caratheodory_punctured_disk,
    lower_bound_certificate,
    parse_domain_spec,
    polydisk_squeezing_punctured,
    polydisk_squeezing_removed_blocks,
    product_of_balls_squeezing,
    radial_separation_bound,
    run_suite,
    squeezing_punctured_disk,
)
from squeezefn.cli import GridJob, run_grid
from squeezefn.hyperbolic import rho, rho_max

WORKLOADS = ("grid", "deep", "blocks", "cli")

TWO_SEVENTHS = 2.0 / 7.0
ORACLE_SAMPLES = 250_000
INTERIOR = 1.0 - 1e-12          # squeezefn rejects anchors at or beyond this modulus

GRID_RECT = (-0.98, 0.98, -0.98, 0.98)   # rectangle of scripts/levelset_sweep.py
GRID_RES = (100, 100)
GRID_STRIP = (-0.999999, -0.99, -0.001, 0.001)
CLI_GRID_RES = (24, 24)
CLI_LIMIT_S = 60.0
CLI_PROBE_LIMIT_S = 3.0
SUITES = ("paper-claims", "invariance", "truncation", "boundary-oracle")

P1 = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3}
P2 = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3}
RADIAL_Q05 = {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0}
RADIAL_Q099 = {"kind": "sequence", "family": "radial", "q": 0.99, "theta": 1.0}
LISTED = {"kind": "sequence", "points": [[0.5, 0.0], [0.0, 0.5], [-0.6, 0.2]],
          "tail_modulus_constant": 0.99}
FINITE_PAIR = {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]}
ANNULUS = {"kind": "annulus", "r": 0.25}


def poly_radial(n: int) -> dict:
    return {"kind": "poly_sequence", "n": n, "family": "radial", "q": 0.5, "theta": 1.0}


def origin_block(geometry: str, n: int) -> dict:
    return {"kind": f"removed_{geometry}s", "n": n,
            "blocks": [{"center": [[0.0, 0.0]] * n, "radius": 0.25}]}


def offcentre_block(geometry: str, n: int) -> dict:
    return {"kind": f"removed_{geometry}s", "n": n,
            "blocks": [{"center": [[0.3, 0.0]] + [[0.0, 0.0]] * (n - 1), "radius": 0.2}]}


def block_family(geometry: str, n: int) -> dict:
    return {"kind": f"removed_{geometry}s", "n": n, "family": "radial",
            "q": 0.5, "theta": 1.0, "r0": 0.25}


class CommandFailed(RuntimeError):
    """A CLI command exited with a nonzero code."""


class CliResult(NamedTuple):
    returncode: int
    stdout: str
    output_file: str = ""


@dataclass
class Op:
    """One timed call into squeezefn (or one CLI command)."""

    name: str                                   # public function or CLI command: the span name
    key: str                                    # the distinct input; repeats must agree
    call: Callable[[], object]
    check: Callable[[object], list]             # oracle check of a result: list of problems
    domain: str = ""                            # document name, for per-domain layer figures
    label: str = ""                             # class for per-layer grouping
    items: int = 1                              # cells for a grid sweep, else 1
    replay: Callable | None = None              # (tracer, op_id, parent, result) -> examined indices
    fingerprint: Callable[[object], str] = repr


@dataclass
class Probe:
    """A known defect: ``call`` raises while the defect is present."""

    name: str
    defect: str
    call: Callable[[], object]
    counters: tuple[str, ...]


@dataclass
class Workload:
    name: str
    docs: dict                                  # document name -> domain document
    ops: list[Op] = field(default_factory=list)
    probes: list[Probe] = field(default_factory=list)
    shuffle: bool = False                       # reorder each round with the seeded generator


# ---------------------------------------------------------------------------
# oracle checks (run outside the timed region)
# ---------------------------------------------------------------------------


def _fields(res) -> tuple:
    return (res.value, res.truncation_index, res.tail_bound_used, res.mesh_error,
            res.attained_index)


def _anchor(z) -> float:
    return max(abs(c) for c in z) if isinstance(z, tuple) else abs(z)


def check_sequence(domain, z, res) -> list:
    """Brute force over a strictly larger prefix, and the tail bound beats the value."""
    count = domain.known_count()
    n = res.truncation_index
    oracle = brute_force_infimum(domain, z, count if count is not None else 2 * n + 64)
    problems = []
    if oracle != res.value:
        problems.append(f"value {res.value!r} != brute force {oracle!r}")
    if res.tail_bound_used and not radial_separation_bound(res.tail_bound_used, _anchor(z)) > res.value:
        problems.append(f"tail bound {res.tail_bound_used!r} does not beat {res.value!r}")
    return problems


def check_block(domain, z, res, geometry: str, expect: float | None = None) -> list:
    """The bracket [value - mesh_error, value] lies below the sampling oracle."""
    count = domain.known_count()
    examined = count if count is not None else res.truncation_index
    oracle = min(boundary_min_oracle(domain.block(k), z, ORACLE_SAMPLES, geometry)
                 for k in range(1, examined + 1))
    problems = []
    if not res.value - res.mesh_error <= oracle + 1e-12:
        problems.append(f"bracket [{res.value - res.mesh_error!r}, {res.value!r}] "
                        f"is above the oracle {oracle!r}")
    if count is None and not radial_separation_bound(res.tail_bound_used, _anchor(z)) > res.value:
        problems.append(f"block tail bound {res.tail_bound_used!r} does not beat {res.value!r}")
    if expect is not None and not (res.value - res.mesh_error - 1e-12 <= expect <= res.value + 1e-12):
        problems.append(f"{expect!r} is outside [{res.value - res.mesh_error!r}, {res.value!r}]")
    return problems


def check_annulus(domain, z, value) -> list:
    expect = max(abs(z), domain.inner_radius / abs(z))
    return [] if value == expect else [f"annulus value {value!r} != {expect!r}"]


def check_same(a, b) -> list:
    return [] if repr(_fields(a)) == repr(_fields(b)) else [f"{a!r} differs bitwise from {b!r}"]


def grid_points(rect, res):
    """The cell coordinates, in the order and arithmetic of run_grid."""
    re_min, re_max, im_min, im_max = rect
    nx, ny = res
    for iy in range(ny):
        im = im_min + (im_max - im_min) * iy / (ny - 1)
        for ix in range(nx):
            yield complex(re_min + (re_max - re_min) * ix / (nx - 1), im)


def check_grid_csv(domain, csv_text: str, rect, res) -> list:
    lines = csv_text.split("\n")
    if lines[0] != "re,im,value,truncation_index,certified" or lines[-1] != "":
        return ["bad CSV header or trailer"]
    rows = lines[1:-1]
    if len(rows) != res[0] * res[1]:
        return [f"{len(rows)} rows, expected {res[0] * res[1]}"]
    annulus = hasattr(domain, "inner_radius")
    problems = []
    for row, z in zip(rows, grid_points(rect, res)):
        re, im, value, index, certified = row.split(",")
        if (re, im) != (repr(z.real), repr(z.imag)):
            problems.append(f"cell {row!r}: expected coordinates {z!r}")
            continue
        outside = abs(z) >= INTERIOR or (annulus and abs(z) <= domain.inner_radius)
        if outside:
            if (value, index, certified) != ("", "", "false"):
                problems.append(f"cell {row!r} is outside the domain")
            continue
        if certified != "true":
            problems.append(f"cell {row!r} is not certified")
        elif annulus:
            problems += check_annulus(domain, z, float(value))
        elif hasattr(domain, "punctures"):
            oracle = brute_force_infimum(domain, z, len(domain.punctures))
            if float(value) != oracle:
                problems.append(f"cell {row!r}: brute force {oracle!r}")
        else:
            n = int(index)
            oracle = brute_force_infimum(domain, z, 2 * n + 64)
            tail = radial_separation_bound(domain.tail_lower_bound(n), abs(z))
            if float(value) != oracle or not tail > oracle:
                problems.append(f"cell {row!r}: brute force {oracle!r}, tail bound {tail!r}")
        if len(problems) > 5:
            break
    return problems


# ---------------------------------------------------------------------------
# replays: per-layer spans for the traced run
# ---------------------------------------------------------------------------


def replay_prefix(tracer, op_id, parent, domain, z, examined: int) -> None:
    """Replay puncture(k) and the distance kernel over an examined prefix."""
    span = tracer.begin("puncture", op_id, parent)
    prefix = [domain.puncture(k) for k in range(1, examined + 1)]
    tracer.finish(span, examined)
    kernel = rho_max if isinstance(z, tuple) else rho
    span = tracer.begin(kernel.__name__, op_id, parent)
    for a in prefix:
        kernel(z, a)
    tracer.finish(span, examined)


def replay_grid(tracer, op_id, parent, domain, rect, res) -> list:
    """Replay every cell through its evaluator, and its prefix through the kernels."""
    indices = []
    annulus = hasattr(domain, "inner_radius")
    finite = hasattr(domain, "punctures")
    evaluator = annulus_squeezing if annulus else squeezing_punctured_disk
    for z in grid_points(rect, res):
        span = tracer.begin(evaluator.__name__, op_id, parent)
        try:
            out = evaluator(domain, z)
        except PointError:
            tracer.finish(span)
            continue
        tracer.finish(span)
        if finite:
            span = tracer.begin("rho", op_id, parent)
            for a in domain.punctures:
                rho(z, a)
            tracer.finish(span, len(domain.punctures))
        elif not annulus:
            indices.append(out.truncation_index)
            replay_prefix(tracer, op_id, parent, domain, z, out.truncation_index)
    return indices


def replay_blocks(tracer, op_id, parent, domain, res) -> list:
    count = domain.known_count()
    examined = count if count is not None else res.truncation_index
    span = tracer.begin("block", op_id, parent)
    for k in range(1, examined + 1):
        domain.block(k)
    tracer.finish(span, examined)
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _disk_point(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), 2.0 * math.pi * rng.random())


def _point_text(z) -> str:
    zs = z if isinstance(z, tuple) else (z,)
    return ";".join(f"{c.real!r},{c.imag!r}" for c in zs)


def build(name: str, seed: int, parse, workdir: Path | None = None) -> Workload:
    """Build one workload.  ``parse`` turns a domain document into a domain
    (parse_domain_spec, possibly wrapped in a span)."""
    rng = random.Random(f"{name}-{seed}")
    return {"grid": _grid, "deep": _deep, "blocks": _blocks, "cli": _cli}[name](rng, parse, workdir)


def _grid(rng, parse, workdir) -> Workload:
    docs = {"finite_pair": FINITE_PAIR, "radial_q05": RADIAL_Q05, "orbit_c05_p2": P2,
            "annulus_quarter": ANNULUS, "orbit_c05_p1": P1}
    w = Workload("grid", docs, shuffle=True)
    for doc_name, doc in docs.items():
        domain = parse(doc)
        job = GridJob(domain=domain, rect=GRID_RECT, resolution=GRID_RES, invariant="squeezing")
        w.ops.append(Op(
            "run_grid", f"grid/{doc_name}", lambda job=job: run_grid(job, jobs=1),
            check=lambda csv, d=domain: check_grid_csv(d, csv, GRID_RECT, GRID_RES),
            domain=doc_name, label=doc["kind"], items=GRID_RES[0] * GRID_RES[1],
            replay=lambda t, i, p, csv, d=domain: replay_grid(t, i, p, d, GRID_RECT, GRID_RES),
            fingerprint=lambda csv: hashlib.sha256(csv.encode()).hexdigest()))
    strip = GridJob(domain=parse(P1), rect=GRID_STRIP, resolution=(2, 2), invariant="squeezing")
    w.probes.append(Probe(
        "grid/p1-strip", "run_grid on a p=1 cell that hits the 200k sequence cap dies with "
        "TypeError in _grid_cell (known_count() is None for families)",
        lambda: run_grid(strip, jobs=1), ("invariants.cap_hits.sequence", "cli.grid_crashes")))
    return w


def _disk_ops(w: Workload, doc_name: str, domain, z: complex, tag: str) -> None:
    """squeezing, fridman-c and the lower-bound certificate at one point."""
    key = f"{doc_name}/{tag}"
    claimed = squeezing_punctured_disk(domain, z).value
    w.ops.append(Op(
        "squeezing_punctured_disk", key, lambda: squeezing_punctured_disk(domain, z),
        check=lambda res: check_sequence(domain, z, res), domain=doc_name, label="sequence",
        replay=lambda t, i, p, res: (replay_prefix(t, i, p, domain, z, res.truncation_index),
                                     [res.truncation_index])[1]))
    w.ops.append(Op(
        "fridman_caratheodory_punctured_disk", key,
        lambda: fridman_caratheodory_punctured_disk(domain, z),
        check=lambda res: check_same(res, squeezing_punctured_disk(domain, z)),
        domain=doc_name, label="fridman"))
    w.ops.append(Op(
        "lower_bound_certificate", key, lambda: lower_bound_certificate(domain, z, claimed),
        check=lambda out: [] if out.passed else [f"certificate failed: {out.details}"],
        domain=doc_name, label="certificate"))


def _poly_op(w: Workload, doc_name: str, domain, z: tuple, tag: str) -> None:
    w.ops.append(Op(
        "polydisk_squeezing_punctured", f"{doc_name}/{tag}",
        lambda: polydisk_squeezing_punctured(domain, z),
        check=lambda res: check_sequence(domain, z, res), domain=doc_name, label="sequence",
        replay=lambda t, i, p, res: (replay_prefix(t, i, p, domain, z, res.truncation_index),
                                     [res.truncation_index])[1]))


def _deep(rng, parse, workdir) -> Workload:
    docs = {"orbit_c05_p1": P1, "orbit_c05_p2": P2, "radial_q099": RADIAL_Q099,
            "listed_tail099": LISTED, "poly_radial_n2": poly_radial(2),
            "poly_radial_n3": poly_radial(3)}
    w = Workload("deep", docs)
    d = {k: parse(v) for k, v in docs.items()}
    # reference points: the truncation profile's side opposite the first punctures
    for mod in (0.99, 0.999, 0.9999, 0.99999):
        _disk_ops(w, "orbit_c05_p1", d["orbit_c05_p1"], complex(-mod, 0.0), f"ref-{mod}")
    _disk_ops(w, "orbit_c05_p2", d["orbit_c05_p2"], complex(-0.99999, 0.0), "ref-0.99999")
    _disk_ops(w, "radial_q099", d["radial_q099"], complex(-0.99, 0.0), "ref-0.99")
    _disk_ops(w, "listed_tail099", d["listed_tail099"], complex(0.1, 0.1), "ref")
    _poly_op(w, "poly_radial_n2", d["poly_radial_n2"], (0.3 + 0.2j, -0.1j), "ref")
    _poly_op(w, "poly_radial_n3", d["poly_radial_n3"], (0.3 + 0.2j, -0.1j, 0.25 + 0j), "ref")
    # seeded points: a stratified ring at |z| = 0.99 on the smooth radial family
    # (its stopping index varies by under 1% around the ring), and small
    # points on the listed and polydisk domains
    offset = rng.random()
    for i in range(8):
        z = cmath.rect(0.99, 2.0 * math.pi * (i + offset) / 8)
        _disk_ops(w, "radial_q099", d["radial_q099"], z, f"ring-{i}")
    for i in range(2):
        _disk_ops(w, "listed_tail099", d["listed_tail099"], _disk_point(rng, 0.3), f"seed-{i}")
    for n in (2, 3):
        for i in range(4):
            z = tuple(_disk_point(rng, 0.8) for _ in range(n))
            _poly_op(w, f"poly_radial_n{n}", d[f"poly_radial_n{n}"], z, f"seed-{i}")
    for doc_name, mod in (("orbit_c05_p1", 0.999999), ("orbit_c05_p2", 0.9999999)):
        domain, z = d[doc_name], complex(-mod, 0.0)
        w.probes.append(Probe(
            f"deep/{doc_name}-{mod}", f"squeezing at {z!r} raises CertificationError "
            "at the 200k sequence cap", lambda domain=domain, z=z: squeezing_punctured_disk(domain, z),
            ("invariants.cap_hits.sequence",)))
    return w


def _block_op(w: Workload, doc_name: str, domain, geometry: str, z: tuple, tag: str,
              expect: float | None = None) -> None:
    n = len(z)
    kwargs = {"mesh_tol": 1e-2} if (geometry, n) == ("ball", 3) else {}
    w.ops.append(Op(
        "polydisk_squeezing_removed_blocks", f"{doc_name}/{tag}",
        lambda: polydisk_squeezing_removed_blocks(domain, z, **kwargs),
        check=lambda res: check_block(domain, z, res, geometry, expect),
        domain=doc_name, label=f"{geometry}_n{n}",
        replay=lambda t, i, p, res: replay_blocks(t, i, p, domain, res)))


def _outside_blocks(domain, z) -> bool:
    return all(domain.block_distance(z, b) > 1.01 * b.radius for b in domain.blocks)


def _blocks(rng, parse, workdir) -> Workload:
    w = Workload("blocks", {})
    for geometry in ("polydisk", "ball"):
        for n in (2, 3):
            pad = (0j,) * (n - 1)
            names = {f"origin_{geometry}_n{n}": origin_block(geometry, n),
                     f"offcentre_{geometry}_n{n}": offcentre_block(geometry, n),
                     f"family_{geometry}_n{n}": block_family(geometry, n)}
            w.docs.update(names)
            origin, offc, fam = (parse(doc) for doc in names.values())
            o_name, c_name, f_name = names
            _block_op(w, o_name, origin, geometry, (0.5 + 0j,) + pad, "ref", TWO_SEVENTHS)
            _block_op(w, c_name, offc, geometry, (-0.5 + 0j,) + pad, "ref")
            _block_op(w, f_name, fam, geometry, (0.1 + 0j, 0.1 + 0j) + pad[1:], "ref")
            if geometry == "ball":
                continue        # a ball block costs 0.1-2 s and its cost moves with the point
            # seeded polydisk points: rotations of the 2/7 point, which keep
            # the value, and random points off the single off-centre block.
            # Random points on the family would examine 1 to 3 blocks and
            # change the round's cost with the seed.
            for i in range(4):
                z = (cmath.rect(0.5, 2.0 * math.pi * rng.random()),) + pad
                _block_op(w, o_name, origin, geometry, z, f"seed-{i}", TWO_SEVENTHS)
            for i in range(8):
                while True:
                    z = tuple(_disk_point(rng, 0.7) for _ in range(n))
                    if _outside_blocks(offc, z):
                        break
                _block_op(w, c_name, offc, geometry, z, f"seed-{i}")
    return w


# ---------------------------------------------------------------------------
# cli: one fresh process per command
# ---------------------------------------------------------------------------

CLI = [sys.executable, "-m", "squeezefn.cli"]


def run_cli(args: list, workdir: Path, limit: float = CLI_LIMIT_S, output: Path | None = None) -> CliResult:
    proc = subprocess.run(CLI + args, cwd=workdir, capture_output=True, text=True, timeout=limit)
    if proc.returncode != 0:
        raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return CliResult(proc.returncode, proc.stdout,
                     output.read_text(encoding="utf-8") if output else "")


def _eval_fields(stdout: str) -> dict:
    return dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)


def check_cli_eval(result: CliResult, reference, oracle: list) -> list:
    """Printed fields equal the in-process repr; the in-process value passes its oracle."""
    got = _eval_fields(result.stdout)
    if isinstance(reference, float):
        expect = {"value": repr(reference)}
    else:
        expect = {"value": repr(reference.value),
                  "truncation_index": str(reference.truncation_index),
                  "tail_bound_used": repr(reference.tail_bound_used),
                  "mesh_error": repr(reference.mesh_error),
                  "attained_index": str(reference.attained_index)}
    problems = [f"{k}: cli {got.get(k)!r} != in-process {v!r}"
                for k, v in expect.items() if got.get(k) != v]
    return problems + oracle


def _cli(rng, parse, workdir: Path) -> Workload:
    docs = {"finite_pair": FINITE_PAIR, "radial_q05": RADIAL_Q05, "poly_radial_n2": poly_radial(2),
            "origin_polydisk_n2": origin_block("polydisk", 2),
            "origin_ball_n2": origin_block("ball", 2), "annulus_quarter": ANNULUS,
            "product_of_balls_n2": {"kind": "product_of_balls", "n": 2},
            "orbit_c05_p2": P2, "orbit_c05_p1": P1, "origin_ball_n3": origin_block("ball", 3)}
    w = Workload("cli", docs)
    files, d = {}, {}
    for doc_name, doc in docs.items():
        files[doc_name] = workdir / f"{doc_name}.json"
        files[doc_name].write_text(json.dumps(doc), encoding="utf-8")
        d[doc_name] = parse(doc)

    def eval_op(doc_name, invariant, z, reference, oracle, extra=()):
        """One seeded point per domain kind, evaluated twice per round."""
        args = ["eval", "--domain", str(files[doc_name]), f"--point={_point_text(z)}",
                "--invariant", invariant, *extra]
        op = Op("cli.eval", f"eval/{doc_name}/{_point_text(z)}", lambda: run_cli(args, workdir),
                check=lambda r: check_cli_eval(r, reference(), oracle()),
                domain=doc_name, label=docs[doc_name]["kind"],
                replay=lambda t, i, p, r: _replay_cli_eval(t, i, p, files[doc_name], reference))
        w.ops += [op, op]

    dom = d["finite_pair"]
    z = _seeded_away(rng, 0.9, dom.punctures)
    eval_op("finite_pair", "squeezing", z, lambda dom=dom, z=z: squeezing_punctured_disk(dom, z),
            lambda dom=dom, z=z: [] if squeezing_punctured_disk(dom, z).value
            == brute_force_infimum(dom, z, 2) else ["finite value != brute force"])
    for doc_name, invariant, ev, z in (
            ("radial_q05", "squeezing", squeezing_punctured_disk, _disk_point(rng, 0.9)),
            ("poly_radial_n2", "polydisk-squeezing", polydisk_squeezing_punctured,
             (_disk_point(rng, 0.8), _disk_point(rng, 0.8)))):
        dom = d[doc_name]
        eval_op(doc_name, invariant, z, lambda dom=dom, z=z, ev=ev: ev(dom, z),
                lambda dom=dom, z=z, ev=ev: check_sequence(dom, z, ev(dom, z)))
    for geometry in ("polydisk", "ball"):
        # a rotation of the 2/7 point: same value, same cost.  The ball uses
        # mesh_tol 1e-4 (about 20 ms) so that every command's time is mostly
        # start-up; blocks measures ball minimization at the default.
        doc_name = f"origin_{geometry}_n2"
        dom, z = d[doc_name], (cmath.rect(0.5, 2.0 * math.pi * rng.random()), 0j)
        tol = 1e-4 if geometry == "ball" else 1e-6
        ref = lambda dom=dom, z=z, tol=tol: polydisk_squeezing_removed_blocks(dom, z, mesh_tol=tol)
        eval_op(doc_name, "polydisk-squeezing", z, ref,
                lambda ref=ref, dom=dom, z=z, g=geometry: check_block(dom, z, ref(), g, TWO_SEVENTHS),
                extra=("--mesh-tol", repr(tol)))
    dom = d["annulus_quarter"]
    z = cmath.rect(rng.uniform(0.3, 0.9), 2.0 * math.pi * rng.random())
    eval_op("annulus_quarter", "squeezing", z, lambda dom=dom, z=z: annulus_squeezing(dom, z),
            lambda dom=dom, z=z: check_annulus(dom, z, annulus_squeezing(dom, z)))
    dom = d["product_of_balls_n2"]
    factors = tuple((_disk_point(rng, 0.6), _disk_point(rng, 0.6)) for _ in range(2))
    eval_op("product_of_balls_n2", "squeezing", factors[0] + factors[1],
            lambda dom=dom, f=factors: product_of_balls_squeezing(dom, f),
            lambda dom=dom, f=factors: [] if product_of_balls_squeezing(dom, f)
            == 1.0 / math.sqrt(2) else ["product of balls value != 1/sqrt(2)"])

    dom, z = d["orbit_c05_p2"], _disk_point(rng, 0.9)
    args = ["compare", "--domain", str(files["orbit_c05_p2"]), f"--point={_point_text(z)}"]
    w.ops.append(Op(
        "cli.compare", f"compare/{_point_text(z)}", lambda args=args: run_cli(args, workdir),
        check=lambda r, dom=dom, z=z: _check_compare(r, dom, z), domain="orbit_c05_p2",
        label="compare",
        replay=lambda t, i, p, r, dom=dom, z=z: _replay_cli_eval(
            t, i, p, files["orbit_c05_p2"], lambda: squeezing_punctured_disk(dom, z))))

    out = workdir / "grid.csv"
    job = GridJob(domain=d["radial_q05"], rect=GRID_RECT, resolution=CLI_GRID_RES,
                  invariant="squeezing")
    args = ["grid", "--domain", str(files["radial_q05"]), "--rect=" + ",".join(map(repr, GRID_RECT)),
            "--res", ",".join(map(str, CLI_GRID_RES)), "--output", str(out)]
    w.ops.append(Op(
        "cli.grid", "grid/radial_q05", lambda args=args: run_cli(args, workdir, output=out),
        check=lambda r: [] if r.output_file == run_grid(job) else ["grid file != in-process CSV"],
        domain="radial_q05", label="grid", items=1,
        replay=lambda t, i, p, r: _replay_cli_grid(t, i, p, files["radial_q05"], job)))

    args = ["verify", "--suite", "all"]
    w.ops.append(Op(
        "cli.verify", "verify/all", lambda args=args: run_cli(args, workdir), check=_check_verify,
        label="verify", replay=_replay_verify))

    ball3 = ["eval", "--domain", str(files["origin_ball_n3"]), "--point=0.5,0;0,0;0,0",
             "--invariant", "polydisk-squeezing"]
    w.probes.append(Probe(
        "cli/ball-n3-default-tol", "removed_balls n=3 at the default mesh_tol does not finish "
        f"within {CLI_PROBE_LIMIT_S:g} s (it raises CertificationError after about 35 s)",
        lambda: run_cli(ball3, workdir, CLI_PROBE_LIMIT_S),
        ("invariants.cap_hits.refinement", "cli.unexpected_exits")))
    cap = ["eval", "--domain", str(files["orbit_c05_p1"]), "--point=-0.999999,0"]
    w.probes.append(Probe(
        "cli/p1-cap", "eval at a p=1 point that hits the sequence cap exits 2, the usage-error code",
        lambda: run_cli(cap, workdir), ("invariants.cap_hits.sequence", "cli.unexpected_exits")))
    return w


def _seeded_away(rng, radius: float, punctures) -> complex:
    while True:
        z = _disk_point(rng, radius)
        if all(abs(z - a) > 1e-3 for a in punctures):
            return z


def _check_compare(result: CliResult, domain, z) -> list:
    got = _eval_fields(result.stdout)
    s = squeezing_punctured_disk(domain, z)
    problems = check_sequence(domain, z, s)
    if got.get("squeezing") != repr(s.value) or got.get("fridman-c") != repr(s.value):
        problems.append(f"compare printed {got!r}, in-process squeezing is {s.value!r}")
    return problems


def _check_verify(result: CliResult) -> list:
    lines = result.stdout.splitlines()
    failed = [ln for ln in lines if ln.split("\t")[1:2] != ["PASS"]]
    return ([] if lines else ["verify printed no reports"]) + [f"verify: {ln}" for ln in failed[:5]]


def _replay_cli_eval(tracer, op_id, parent, path: Path, evaluate) -> list:
    span = tracer.begin("parse_domain_spec", op_id, parent)
    parse_domain_spec(path.read_text(encoding="utf-8"))
    tracer.finish(span)
    span = tracer.begin("evaluator", op_id, parent)
    evaluate()
    tracer.finish(span)
    return []


def _replay_cli_grid(tracer, op_id, parent, path: Path, job) -> list:
    span = tracer.begin("parse_domain_spec", op_id, parent)
    parse_domain_spec(path.read_text(encoding="utf-8"))
    tracer.finish(span)
    span = tracer.begin("run_grid", op_id, parent)
    run_grid(job)
    tracer.finish(span)
    return []


def _replay_verify(tracer, op_id, parent, result) -> list:
    for suite in SUITES:
        span = tracer.begin(f"run_suite.{suite}", op_id, parent)
        run_suite(suite)
        tracer.finish(span)
    return []

