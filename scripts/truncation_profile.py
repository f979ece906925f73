#!/usr/bin/env python3
"""Profile how deep the certified truncation has to look as the query point
approaches the boundary, for the built-in sequence families, and what each
evaluation costs: its wall time (best of REPEAT runs, after one run that
loads numpy) and that time per examined puncture.  ``ns/punct`` divides by
every examined puncture, those the scan's candidate window leaves out
unconverted and unmeasured included, so near the boundary it falls as the
window narrows.  ``converted`` counts the punctures the scan converted and
measured, and ``tails`` the tail bounds m(n) it computed, m(0) included, in
one more run with counters around the domain's ``puncture`` and
``tail_lower_bound`` (the scalar head of the scan, its first 8 punctures,
and the seed of a chunk's window) and ``parts`` and ``tails`` (its numpy
chunks); both stay far below ``stop N`` where the window and the tail skip
act.  ``--steps 17``
reaches |z| = 1 - 2**-17 and, for p=1, a prefix of about 10^5 punctures."""

import argparse
import math
import time
from unittest import mock

from squeezefn.domains import BoundaryOrbitFamily, RadialFamily, SequencePunctures
from squeezefn.hyperbolic import radial_separation_bound
from squeezefn.invariants import squeezing_punctured_disk

FAMILIES = {
    "radial q=0.5": SequencePunctures(family=RadialFamily(q=0.5, theta=1.0)),
    "radial q=0.9": SequencePunctures(family=RadialFamily(q=0.9, theta=1.0)),
    "radial q=0.99": SequencePunctures(family=RadialFamily(q=0.99, theta=1.0)),
    "orbit c=0.5 p=2": SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3)),
    "orbit c=0.5 p=1": SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=1.0, theta=2.3)),
}
REPEAT = 3


def counted(domain, z) -> tuple[int, int]:
    """(punctures converted, tails computed) by one evaluation at z."""
    counts = [0, 0]
    cls = type(domain)
    convert, bound = cls.parts, cls.tails
    point, tail = cls.puncture, cls.tail_lower_bound

    def parts(self, index, y):
        counts[0] += len(index)
        return convert(self, index, y)

    def tails(self, start, stop):
        counts[1] += stop - start
        return bound(self, start, stop)

    def puncture(self, k):
        counts[0] += 1
        return point(self, k)

    def tail_lower_bound(self, examined):
        counts[1] += 1
        return tail(self, examined)

    wrapped = {"parts": parts, "tails": tails, "puncture": puncture, "tail_lower_bound": tail_lower_bound}
    with mock.patch.multiple(cls, **wrapped):
        squeezing_punctured_disk(domain, z)
    return counts[0], counts[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=12)
    args = parser.parse_args()

    print(f"{'family':>16}  {'|z|':>8}  {'value':>12}  {'stop N':>6}  {'tail bound':>10}  "
          f"{'ms':>8}  {'ns/punct':>8}  {'converted':>9}  {'tails':>6}")
    for name, domain in FAMILIES.items():
        for i in range(args.steps):
            mod = 1.0 - 0.5 ** (i + 1)
            z = complex(-mod, 0.0)  # opposite side of the first punctures
            res = squeezing_punctured_disk(domain, z)
            ns = math.inf
            for _ in range(REPEAT):
                t0 = time.perf_counter_ns()
                squeezing_punctured_disk(domain, z)
                ns = min(ns, time.perf_counter_ns() - t0)
            tail = radial_separation_bound(res.tail_bound_used, mod)
            converted, tails = counted(domain, z)
            print(f"{name:>16}  {mod:8.5f}  {res.value:12.8f}  "
                  f"{res.truncation_index:6d}  {tail:10.6f}  "
                  f"{ns / 1e6:8.3f}  {ns / res.truncation_index:8.0f}  {converted:9d}  {tails:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
