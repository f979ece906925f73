"""Independent oracles and deterministic check suites.

Nothing here trusts the engine's certified fast paths: sequence infima are
re-derived by brute force over explicit index ranges, and block-boundary
minima by plain uniform sampling of the boundary with no refinement.  All
randomness comes from an explicitly specified 64-bit linear congruential
generator so that every report is reproducible from its seed.
"""

from __future__ import annotations

import json
import math
import operator

from .domains import (
    Annulus,
    Block,
    BoundaryOrbitFamily,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    RadialFamily,
    RemovedBalls,
    RemovedPolydisks,
    SequencePunctures,
    _count,
    _shown,
)
from .hyperbolic import MobiusMap, Record, _kernel, _prepare, radial_separation_bound, rho, rho_from
from . import SUITES
from . import invariants as inv


class VerificationReport(Record):
    """One check of a suite: its name, its outcome, the observed and expected
    values and the tolerance between them."""

    check_name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    details: str = ""

    def __init__(self, check_name, passed, observed, expected, tolerance, details=""):
        store = object.__setattr__
        store(self, "check_name", check_name)
        store(self, "passed", passed)
        store(self, "observed", observed)
        store(self, "expected", expected)
        store(self, "tolerance", tolerance)
        store(self, "details", details)


def report_line(r: VerificationReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{r.check_name}\t{status}\t{r.observed!r}\t{r.expected!r}\t{r.tolerance!r}"


def format_reports(reports) -> str:
    return "\n".join(report_line(r) for r in reports)


def _report_dict(r) -> dict:
    return {name: getattr(r, name) for name in r._fields}


def reports_to_json(reports) -> list[dict]:
    return [_report_dict(r) for r in reports]


def write_reports_json(reports, write) -> None:
    """Write json.dumps(reports_to_json(reports), indent=2), one report at a
    time, so that neither every report's dict nor the whole text is held.
    Inside the list each report is its own indented text with every line
    indented two spaces more; JSON strings hold no raw newline, so only the
    layout's newlines are indented."""
    sep = "[\n  "
    for r in reports:
        write(sep + json.dumps(_report_dict(r), indent=2).replace("\n", "\n  "))
        sep = ",\n  "
    write("[]\n" if sep == "[\n  " else "\n]\n")


class Lcg:
    """64-bit linear congruential generator (Knuth MMIX constants).

    state <- 6364136223846793005 * state + 1442695040888963407  (mod 2^64);
    uniform() maps the top 53 bits of the state to [0, 1).
    """

    _A = 6364136223846793005
    _C = 1442695040888963407
    _MASK = (1 << 64) - 1

    __slots__ = ("state",)

    def __init__(self, seed: int):
        try:
            self.state = operator.index(seed) & self._MASK
        except TypeError:  # a str, a float, None
            raise DomainError(f"seed must be an integer, got {_shown(seed)}") from None

    def next_u64(self) -> int:
        self.state = (self._A * self.state + self._C) & self._MASK
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def disk_point(self, radius: float) -> complex:
        r = radius * math.sqrt(self.uniform())
        phi = 2.0 * math.pi * self.uniform()
        return complex(r * math.cos(phi), r * math.sin(phi))


def random_finite_domain(rng: Lcg) -> FinitePunctures:
    """1 to 8 punctures drawn uniformly from the disk of radius 0.95."""
    count = 1 + int(rng.uniform() * 8.0)
    pts: list[complex] = []
    while len(pts) < count:
        p = rng.disk_point(0.95)
        if all(abs(p - q) > 1e-6 for q in pts):
            pts.append(p)
    return FinitePunctures(tuple(pts))


def random_query_point(rng: Lcg, domain: FinitePunctures) -> complex:
    """Uniform point of radius <= 0.9, redrawn while within 1e-3 of a puncture."""
    while True:
        z = rng.disk_point(0.9)
        if all(abs(z - a) > 1e-3 for a in domain.punctures):
            return z


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_force_infimum(domain, z, count: int) -> float:
    """Minimum over the first ``count`` punctures, evaluated naively.

    The oracle counterpart of the certified truncation: no tail bounds, no
    early stopping.
    """
    count = _count("brute force", "count", count, 1)
    dist = rho_from(tuple(z) if isinstance(domain, PolySequencePunctures) else z)
    return min(dist(domain.puncture(k)) for k in range(1, count + 1))


def _prefix_infimum(prefix: list, domain: SequencePunctures, z, count: int) -> float:
    """brute_force_infimum(domain, z, count), bitwise, over ``prefix``: the
    domain's first punctures as the kernel takes them, the three arrays of
    _prepare, so that each 1 - |a|^2 is computed once for every trial.  It
    first extends them to ``count`` punctures."""
    import numpy as np

    have = len(prefix[0]) if prefix else 0
    if count > have:
        new = [domain.puncture(k) for k in range(have + 1, count + 1)]
        parts = _prepare(np.array([a.real for a in new]), np.array([a.imag for a in new]))
        prefix[:] = [np.concatenate(pair) for pair in zip(prefix, parts)] if prefix else parts
    return float(_kernel(*_prepare(z.real, z.imag), *(p[:count] for p in prefix), np.sqrt).min())


def _pow2_axis(budget: int, axes: int) -> int:
    # largest power of two m with m^axes <= budget; nested under doubling budgets
    if budget < 2**axes:
        return 2
    return 1 << (int(math.log2(budget)) // axes)


# Largest sample budget of an oracle, and of verify's --samples.  The oracles
# walk their grids in blocks of _ORACLE_BLOCK points and compute each block's
# coordinates from its indices, so memory does not grow with the budget; time
# does, linearly: in process, the boundary-oracle suite takes about 30 ms at
# the default 250k samples and 0.4 s at this limit.
MAX_ORACLE_SAMPLES = 4_000_000
# Largest trial count of the invariance and truncation suites, and of verify's
# --trials.  Measured in process at 10^4 and 10^5 trials: a trial of either
# suite takes about 70 us, and keeps about 0.4 KB resident for its one
# invariance report and 1-2 KB for its two truncation reports and its share
# of the prefix.  So verify --suite all at this limit takes 3.4 s and peaks
# at 65 MB resident as text and 54 MB with --format json, which writes one
# report at a time (write_reports_json).  Unbounded, 10^23 trials ran until
# stopped, past 1.4 GB.
MAX_TRIALS = 20_000
# A block's coordinate, angle and kernel temporaries trace about 190 B a
# point (ball blocks at n = 3), so 2^13 points keep them within a core's
# 2 MiB L2 cache.  Swept over 2^10 - 2^16 on a 2-core Xeon (in process, best
# of 9; the closed disk at 1M and 4M samples, polydisk and ball blocks at
# n = 1, 2, 3 at 250k and 4M): all 14 oracles took 659 ms at 2^13, 709 at
# 2^12, 787 at 2^14 and 1140 at 2^16, none slower than at 2^16; at 4M their
# traced peaks were 0.6 - 1.5 MB, against 5.0 - 12.1 MB at 2^16.
_ORACLE_BLOCK = 1 << 13


def _grid_min(shape, axis, value) -> float:
    """Minimum of ``value`` over the product grid of ``shape``, whose axis j
    has the coordinates axis(j, i) at an array of indices i.

    The grid is walked in C order, in blocks of whole rows (along the last
    axis), or of parts of one row, of at most _ORACLE_BLOCK points; only the
    coordinates of a block's indices are computed.  ``axis`` maps each index
    to its coordinate and ``value`` gets a block's coordinates as flat
    contiguous arrays, the layout that np.meshgrid gives the whole grid, both
    by elementwise operations, so every point's value is bitwise the one it
    takes on the whole grid at once.
    """
    import numpy as np

    *lead, cols = shape
    rows = math.prod(lead)
    step, width = max(1, _ORACLE_BLOCK // cols), min(cols, _ORACLE_BLOCK)
    mins = []
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        index = np.unravel_index(np.arange(start, stop), lead) if lead else ()
        for col in range(0, cols, width):
            part = axis(len(lead), np.arange(col, min(col + width, cols)))
            points = [np.repeat(axis(j, i), len(part)) for j, i in enumerate(index)]
            mins.append(value(*points, np.tile(part, stop - start)).min())
    return float(np.min(mins))


def _rho_np(z: complex, w: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.abs((w - z) / (1.0 - np.conj(z) * w))


def boundary_min_oracle(block: Block, z, samples: int, geometry: str = "polydisk") -> float:
    """Minimum of the coordinate-max kernel over a deterministic uniform sample
    of the block boundary.

    Grids are anchored at angle 0 and nest under doubling sample budgets, so
    the value is nonincreasing along a doubling schedule.  ``samples`` must be
    a whole number from 1000 to MAX_ORACLE_SAMPLES.
    """
    import numpy as np

    samples = _count("boundary oracle", "samples", samples, 1_000, MAX_ORACLE_SAMPLES)
    n = len(block.center)
    r = block.radius

    def coordinate_max(*w):
        g = _rho_np(z[0], w[0])
        for j in range(1, n):
            np.maximum(g, _rho_np(z[j], w[j]), out=g)
        return g

    if geometry == "polydisk":
        axes = 1 + 2 * (n - 1)
        m = _pow2_axis(max(samples // n, 2), axes)

        def rim(k):  # the unit circle sample at angle indices k
            return np.exp(1j * (2.0 * np.pi * k / m))

        def disk(k):  # the unit disk sample, radius index k // m, angle index k % m
            return (k // m / m) * rim(k % m)

        # face i: coordinate i on its circle (m points), the others in their
        # disks ((m + 1) m points each)
        return min(_grid_min([m if j == i else (m + 1) * m for j in range(n)],
                             lambda j, k: block.center[j] + r * (rim(k) if j == i else disk(k)),
                             coordinate_max)
                   for i in range(n))
    if geometry == "ball":
        axes = 2 * n - 1
        m = _pow2_axis(samples, axes)

        def angle(j, k):  # polar angles, then the azimuth on the last axis
            return np.pi * k / m if j < axes - 1 else 2.0 * np.pi * k / m

        def on_sphere(*angles):
            # hyperspherical coordinates on the unit (2n-1)-sphere
            x = []
            sin_prod = np.ones_like(angles[0])
            for t in angles:
                x.append(sin_prod * np.cos(t))
                sin_prod = sin_prod * np.sin(t)
            x.append(sin_prod)
            return coordinate_max(*(block.center[j] + r * (x[2 * j] + 1j * x[2 * j + 1])
                                    for j in range(n)))

        return _grid_min([m + 1] * (axes - 1) + [m], angle, on_sphere)
    raise DomainError(f"unknown block geometry {geometry!r}")


def _closed_disk_min_oracle(z: complex, radius: float, samples: int) -> float:
    """Deterministic dense polar sample of the closed disk |w| <= radius."""
    import numpy as np

    m = max(2, 1 << math.ceil(math.log2(math.sqrt(max(samples, 4)))))
    t = np.arange(m + 1) / m
    phi = 2.0 * np.pi * np.arange(m) / m
    axes = (radius * t, np.exp(1j * phi))
    return _grid_min([m + 1, m], lambda j, k: axes[j][k], lambda rt, rim: _rho_np(z, rt * rim))


def annulus_compact_removal_gap(samples: int = 1_000_000) -> inv.VerificationOutcome:
    """Compare the compact-removal formula with the annulus squeezing function
    at the reference configuration (removed closed disk of radius 1/4, point 1/2).

    The minimum of rho(1/2, .) over the closed disk |w| <= 1/4 is 2/7
    (attained at w = 1/4); the annulus value at 1/2 is 1/2.  The positive gap
    3/14 shows the compact-removal formula does not extend to this planar
    domain.  The disk minimum is confirmed by a dense polar sample of about
    ``samples`` points, a whole number up to MAX_ORACLE_SAMPLES.
    """
    samples = _count("disk oracle", "samples", samples, 1, MAX_ORACLE_SAMPLES)
    analytic = rho(complex(0.5), complex(0.25))
    sampled = _closed_disk_min_oracle(complex(0.5), 0.25, samples)
    annulus_val = inv.annulus_squeezing(Annulus(0.25), complex(0.5))
    gap = annulus_val - analytic
    passed = (
        sampled <= analytic + 1e-9
        and abs(sampled - analytic) <= 1e-4
        and annulus_val == 0.5
        and gap > 0.0
    )
    return inv.VerificationOutcome(
        passed,
        observed=(analytic, sampled, annulus_val, gap),
        details=(f"disk minimum {analytic!r} (sampled {sampled!r}) vs annulus value "
                 f"{annulus_val!r}; gap {gap!r}"),
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def invariance_suite(trials: int = 1000, seed: int = 42) -> list[VerificationReport]:
    """Squeezing values are unchanged under disk automorphisms applied to the
    domain and the point together; checked on seeded random configurations."""
    trials = _count("invariance suite", "trials", trials, 1, MAX_TRIALS)
    rng = Lcg(seed)
    tol = 1e-12
    width = len(str(trials - 1))
    reports = []
    for t in range(trials):
        domain = random_finite_domain(rng)
        z = random_query_point(rng, domain)
        mob = MobiusMap(center=rng.disk_point(0.9),
                        rotation=2.0 * math.pi * rng.uniform())
        base = inv.squeezing_punctured_disk(domain, z).value
        mapped = FinitePunctures(tuple(mob(a) for a in domain.punctures))
        moved = inv.squeezing_punctured_disk(mapped, mob(z)).value
        reports.append(VerificationReport(
            check_name=f"invariance/trial-{t:0{width}d}",
            passed=abs(moved - base) <= tol,
            observed=moved,
            expected=base,
            tolerance=tol,
            details=f"{len(domain.punctures)} punctures",
        ))
    return sorted(reports, key=lambda r: r.check_name)


def truncation_suite(trials: int = 100, seed: int = 7) -> list[VerificationReport]:
    """Certified truncation equals brute force over a strictly larger index
    range, and the recorded tail bound strictly exceeds the returned value.

    The brute force is brute_force_infimum's, with no tail bound and no early
    stop, but each domain's punctures are generated once, into a prefix that
    grows to the largest range of its trials."""
    trials = _count("truncation suite", "trials", trials, 1, MAX_TRIALS)
    rng = Lcg(seed)
    domains = (
        ("radial", SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))),
        ("orbit", SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3))),
    )
    width = len(str(trials - 1))
    reports = []
    for name, domain in domains:
        prefix = []
        for t in range(trials):
            z = rng.disk_point(0.9)
            res = inv.squeezing_punctured_disk(domain, z)
            count = max(10 * res.truncation_index, res.truncation_index + 1000)
            oracle = _prefix_infimum(prefix, domain, z, count)
            tail = radial_separation_bound(res.tail_bound_used, abs(z))
            ok = oracle == res.value and tail > res.value
            reports.append(VerificationReport(
                check_name=f"truncation/{name}-{t:0{width}d}",
                passed=ok,
                observed=res.value,
                expected=oracle,
                tolerance=0.0,
                details=f"stopped at {res.truncation_index}, tail bound {tail!r}",
            ))
    return sorted(reports, key=lambda r: r.check_name)


_BOUNDARY_CONFIGS = (
    ("origin-polydisk", "polydisk",
     Block((0j, 0j), 0.25), (complex(0.5), 0j)),
    ("origin-ball", "ball",
     Block((0j, 0j), 0.25), (complex(0.5), 0j)),
    ("offcenter-polydisk", "polydisk",
     Block((complex(0.3), 0j), 0.2), (complex(-0.5), 0j)),
)


def boundary_oracle_suite(samples: int = 250_000) -> list[VerificationReport]:
    """Certified boundary minima agree with the plain sampling oracle: the oracle
    value lies inside [value - mesh_error, value] on reference configurations
    whose minimizers sit on the anchored grid, and sampling minima are
    nonincreasing along a doubling schedule."""
    from . import blocks

    reports = []
    for name, geometry, block, z in _BOUNDARY_CONFIGS:
        domain_cls = RemovedPolydisks if geometry == "polydisk" else RemovedBalls
        domain = domain_cls(n=2, blocks=(block,))
        res = blocks.polydisk_squeezing_removed_blocks(domain, z)
        oracle = boundary_min_oracle(block, z, samples, geometry)
        inside = res.value - res.mesh_error - 1e-12 <= oracle <= res.value + 1e-12
        reports.append(VerificationReport(
            check_name=f"boundary-oracle/{name}/bracket",
            passed=inside,
            observed=oracle,
            expected=res.value,
            tolerance=res.mesh_error,
            details=f"oracle within [value - mesh_error, value], mesh_error {res.mesh_error!r}",
        ))
        doubling = [boundary_min_oracle(block, z, s, geometry)
                    for s in (samples // 4, samples // 2)] + [oracle]
        monotone = all(b <= a for a, b in zip(doubling, doubling[1:]))
        reports.append(VerificationReport(
            check_name=f"boundary-oracle/{name}/doubling",
            passed=monotone,
            observed=doubling[-1],
            expected=doubling[0],
            tolerance=0.0,
            details=f"values {doubling!r} nonincreasing",
        ))
    return sorted(reports, key=lambda r: r.check_name)


def claims_suite(seed: int = 42) -> list[VerificationReport]:
    """Every reference value with its documented tolerance."""
    reports = []

    def add(name, observed, expected, tolerance, details="", one_sided=None):
        if one_sided == "greater":
            ok = observed > expected
        elif one_sided == "less":
            ok = observed < expected
        else:
            ok = abs(observed - expected) <= tolerance
        reports.append(VerificationReport(name, ok, observed, expected, tolerance, details))

    gap = annulus_compact_removal_gap()
    analytic, sampled, annulus_val, gap_val = gap.observed
    add("claims/removed-disk-min-analytic", analytic, 2.0 / 7.0, 0.0,
        "min of rho(1/2, .) over the closed disk of radius 1/4, at w = 1/4")
    add("claims/removed-disk-min-sampled", sampled, 2.0 / 7.0, 1e-4,
        "dense polar sample of the closed disk")
    add("claims/annulus-value", annulus_val, 0.5, 0.0,
        "annulus squeezing at 1/2 with inner radius 1/4")
    add("claims/annulus-vs-removed-disk-gap", gap_val, 3.0 / 14.0, 1e-15,
        "the compact-removal formula undershoots the annulus value")

    for n in (2, 4):
        domain = ProductOfBalls(n)
        s = inv.product_of_balls_squeezing(domain)
        add(f"claims/product-of-balls-squeezing-n{n}", s, 1.0 / math.sqrt(n), 1e-15)
        add(f"claims/product-of-balls-t-bound-n{n}",
            inv.product_of_balls_T_lower_bound(domain), 1.0 / math.sqrt(n), 1e-15)
        contra = inv.product_of_balls_ratio_contradiction(n)
        add(f"claims/product-of-balls-ratio-a-n{n}", contra.observed[0], 1.0, 0.0,
            "forced value must exceed 1 (impossible for a squeezing function)",
            one_sided="greater")
        add(f"claims/product-of-balls-ratio-b-n{n}", contra.observed[1], s, 0.0,
            "forced value must fall below the established lower bound",
            one_sided="less")

    pair = FinitePunctures((complex(0.5), complex(0.0, 0.5)))
    add("claims/finite-pair-at-origin",
        inv.squeezing_punctured_disk(pair, 0j).value, 0.5, 0.0,
        "disk minus {1/2, i/2} evaluated at 0")

    rng = Lcg(seed)
    worst = 0.0
    for _ in range(100):
        a = rng.disk_point(0.95)
        domain = FinitePunctures((a,))
        z = random_query_point(rng, domain)
        worst = max(worst, abs(inv.squeezing_punctured_disk(domain, z).value - rho(z, a)))
    add("claims/single-puncture-identity", worst, 0.0, 1e-15,
        "one-puncture value equals the pseudo-hyperbolic distance, 100 draws")

    worst = 0.0
    for _ in range(100):
        domain = random_finite_domain(rng)
        z = random_query_point(rng, domain)
        s = inv.squeezing_punctured_disk(domain, z).value
        h = inv.fridman_caratheodory_punctured_disk(domain, z).value
        worst = max(worst, abs(s - h))
    add("claims/fridman-equals-squeezing", worst, 0.0, 0.0,
        "both entry points agree bitwise, 100 random domains")

    radial = SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))
    res = inv.squeezing_punctured_disk(radial, 0j)
    add("claims/radial-at-origin", res.value, 0.5, 0.0,
        f"certified at truncation index {res.truncation_index}")

    poly = PolySequencePunctures(n=2, family=RadialFamily(0.5, 1.0))
    add("claims/poly-radial-at-origin",
        inv.polydisk_squeezing_punctured(poly, (0j, 0j)).value, 0.5, 0.0)

    from . import blocks

    block = RemovedPolydisks(n=2, blocks=(Block((0j, 0j), 0.25),))
    res = blocks.polydisk_squeezing_removed_blocks(block, (complex(0.5), 0j))
    add("claims/removed-polydisk-block", res.value, 2.0 / 7.0, res.mesh_error,
        f"boundary minimization, mesh_error {res.mesh_error!r}")
    ball = RemovedBalls(n=2, blocks=(Block((0j, 0j), 0.25),))
    res = blocks.polydisk_squeezing_removed_blocks(ball, (complex(0.5), 0j))
    add("claims/removed-ball-block", res.value, 2.0 / 7.0, res.mesh_error,
        f"boundary minimization, mesh_error {res.mesh_error!r}")

    return sorted(reports, key=lambda r: r.check_name)


MIN_ORACLE_SAMPLES = 4_000  # the doubling check gives the oracle a quarter; it needs 1000


def run_suite(name: str, seed: int = 42, trials: int | None = None,
              samples: int = 250_000) -> list[VerificationReport]:
    """Run one suite, or all of them; ``trials`` None means each suite's
    default count."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r} (known: {SUITES})")
    samples = _count("boundary oracle", "samples", samples, MIN_ORACLE_SAMPLES, MAX_ORACLE_SAMPLES)
    if trials is not None:  # every suite checks a given count, also those that run no trials
        what = f"{'invariance' if name == 'all' else name} suite"  # all runs invariance first
        trials = _count(what, "trials", trials, 1, MAX_TRIALS)
    counts = {} if trials is None else {"trials": trials}
    if name == "paper-claims":
        return claims_suite(seed=seed)
    if name == "invariance":
        return invariance_suite(seed=seed, **counts)
    if name == "truncation":
        return truncation_suite(seed=seed, **counts)
    if name == "boundary-oracle":
        return boundary_oracle_suite(samples=samples)
    out = invariance_suite(seed=seed, **counts) + truncation_suite(seed=seed, **counts)  # all
    out += claims_suite(seed=seed)
    out += boundary_oracle_suite(samples=samples)
    return sorted(out, key=lambda r: r.check_name)
