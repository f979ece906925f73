"""Command-line front end: evaluate invariants at points, sweep grids to CSV
for level-set plotting, and run verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse/validation failure, 3 point outside the domain, 4 output I/O failure,
5 the value could not be certified.

The grid job (GridJob, run_grid and MAX_GRID_CELLS) lives in grid, which the
grid command loads; its names resolve here on first use (PEP 562).
"""

from __future__ import annotations

import argparse
import sys

from . import SUITES
from . import invariants as inv
from .domains import DomainError, FinitePunctures, ProductOfBalls, SequencePunctures, parse_domain_spec
from .hyperbolic import PointError

INVARIANT_NAMES = ("squeezing", "fridman-c", "polydisk-squeezing", "t-lower-bound")


def _load_domain(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DomainError(f"cannot read domain file {path!r}: {e}") from e
    return parse_domain_spec(text)


def _parse_planar_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"point {text!r}: expected 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as e:
        raise DomainError(f"point {text!r}: {e}") from e


def _parse_poly_point(text: str, count: int) -> tuple[complex, ...]:
    point = tuple(_parse_planar_point(p) for p in text.split(";"))
    if len(point) != count:
        raise DomainError(f"point has {len(point)} coordinates, expected {count}")
    return point


def _parse_product_point(domain: ProductOfBalls, text: str):
    n = domain.n
    flat = _parse_poly_point(text, n * n)
    return tuple(flat[i * n:(i + 1) * n] for i in range(n))


def _planar(evaluate):
    return lambda domain, text, mesh_tol: evaluate(domain, _parse_planar_point(text))


def _product(evaluate):
    return lambda domain, text, mesh_tol: inv.InvariantValue(
        evaluate(domain, _parse_product_point(domain, text)))


def _removed_blocks(domain, text, mesh_tol):
    from . import blocks  # loaded here: no other evaluation runs it

    return blocks.polydisk_squeezing_removed_blocks(domain, _parse_poly_point(text, domain.n),
                                                    mesh_tol=mesh_tol)


# (invariant, document kind) -> evaluator(domain, point text, mesh tolerance);
# keyed by kind, so that no domain class need be loaded to build the table
_EVALUATORS = {
    ("squeezing", "finite_punctures"): _planar(inv.squeezing_punctured_disk),
    ("squeezing", "sequence"): _planar(inv.squeezing_punctured_disk),
    ("squeezing", "annulus"): _planar(
        lambda domain, z: inv.InvariantValue(inv.annulus_squeezing(domain, z))),
    ("squeezing", "product_of_balls"): _product(inv.product_of_balls_squeezing),
    ("fridman-c", "finite_punctures"): _planar(inv.fridman_caratheodory_punctured_disk),
    ("fridman-c", "sequence"): _planar(inv.fridman_caratheodory_punctured_disk),
    ("polydisk-squeezing", "poly_sequence"):
        lambda domain, text, mesh_tol: inv.polydisk_squeezing_punctured(
            domain, _parse_poly_point(text, domain.n)),
    ("polydisk-squeezing", "removed_polydisks"): _removed_blocks,
    ("polydisk-squeezing", "removed_balls"): _removed_blocks,
    ("t-lower-bound", "product_of_balls"): _product(inv.product_of_balls_T_lower_bound),
}


def _evaluate(domain, invariant: str, point_text: str, mesh_tol: float) -> inv.InvariantValue:
    if invariant not in INVARIANT_NAMES:
        raise DomainError(f"unknown invariant {invariant!r} (known: {INVARIANT_NAMES})")
    evaluate = _EVALUATORS.get((invariant, domain.kind))
    if evaluate is None:
        raise DomainError(f"invariant {invariant!r} does not apply to {type(domain).__name__}")
    return evaluate(domain, point_text, mesh_tol)


def cmd_eval(args) -> int:
    domain = _load_domain(args.domain)
    res = _evaluate(domain, args.invariant, args.point, args.mesh_tol)
    print(f"value {res.value!r}")
    print(f"truncation_index {res.truncation_index}")
    print(f"tail_bound_used {res.tail_bound_used!r}")
    print(f"mesh_error {res.mesh_error!r}")
    print(f"attained_index {res.attained_index}")
    return 0


def cmd_compare(args) -> int:
    domain = _load_domain(args.domain)
    if not isinstance(domain, (FinitePunctures, SequencePunctures)):
        raise DomainError(f"compare applies to punctured disks, not {type(domain).__name__}")
    z = _parse_planar_point(args.point)
    s = inv.squeezing_punctured_disk(domain, z)
    h = inv.fridman_caratheodory_punctured_disk(domain, z)
    print(f"squeezing {s.value!r}")
    print(f"fridman-c {h.value!r}")
    print(f"difference {s.value - h.value!r}")
    return 0


def cmd_grid(args) -> int:
    from . import grid  # loaded here: no other command runs it

    domain = _load_domain(args.domain)
    rect = grid._comma_numbers(args.rect, float, 4, "--rect needs four numbers 'a,b,c,d'")
    res = grid._comma_numbers(args.res, int, 2, "--res needs two integers 'nx,ny'")
    job = grid.GridJob(domain=domain, rect=rect, resolution=res, invariant=args.invariant)
    csv_text = grid.run_grid(job, jobs=args.jobs)
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as f:
            f.write(csv_text)
    except OSError as e:
        print(f"error: cannot write {args.output!r}: {e}", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args) -> int:
    from . import verification as ver  # loaded here: no other command runs it

    reports = ver.run_suite(args.suite, seed=args.seed, trials=args.trials,
                            samples=args.samples)
    if args.format == "json":
        ver.write_reports_json(reports, sys.stdout.write)
    else:
        print(ver.format_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezefn",
        description="Squeezing functions and Caratheodory-Fridman invariants "
                    "with certified truncation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an invariant at a point")
    p.add_argument("--domain", required=True, help="domain document (JSON)")
    p.add_argument("--point", required=True, help="'re,im' or 're,im;re,im;...'")
    p.add_argument("--invariant", default="squeezing", choices=INVARIANT_NAMES)
    p.add_argument("--mesh-tol", type=float, default=inv.DEFAULT_MESH_TOL,
                   help="target mesh error for boundary minimization")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="print squeezing and fridman-c side by side")
    p.add_argument("--domain", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("grid", help="sweep a rectangle to CSV")
    p.add_argument("--domain", required=True)
    p.add_argument("--rect", required=True, help="re_min,re_max,im_min,im_max")
    p.add_argument("--res", required=True, help="nx,ny")
    p.add_argument("--invariant", default="squeezing", choices=("squeezing", "fridman-c"))
    p.add_argument("--output", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility (>= 1); rows run in one thread")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--samples", type=int, default=250_000)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def __getattr__(name):
    if name not in ("GridJob", "run_grid", "MAX_GRID_CELLS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import grid

    return getattr(grid, name)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except inv.CertificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except PointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
