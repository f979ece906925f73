#!/usr/bin/env python3
"""Sweep squeezing-function grids for a few reference domains and write the
CSVs an external level-set plotter can consume."""

import argparse
import json
from pathlib import Path

from squeezefn.domains import parse_domain_spec
from squeezefn.grid import GridJob, run_grid

DOMAINS = {
    "finite_pair": {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]},
    "radial_q05": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "orbit_c05_p2": {"kind": "sequence", "family": "boundary_orbit",
                     "c": 0.5, "p": 2.0, "theta": 2.3},
    "annulus_quarter": {"kind": "annulus", "r": 0.25},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="output directory")
    parser.add_argument("--res", type=int, default=200, help="grid points per axis")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, doc in DOMAINS.items():
        domain = parse_domain_spec(json.dumps(doc))
        job = GridJob(domain=domain, rect=(-0.98, 0.98, -0.98, 0.98),
                      resolution=(args.res, args.res), invariant="squeezing")
        csv_text = run_grid(job)
        path = outdir / f"{name}.csv"
        path.write_text(csv_text, encoding="utf-8", newline="")
        print(f"wrote {path} ({args.res}x{args.res})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
