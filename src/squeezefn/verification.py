"""Independent oracles and deterministic check suites.

Nothing here trusts the engine's certified fast paths: sequence infima are
re-derived by brute force over explicit index ranges, and block-boundary
minima by plain uniform sampling of the boundary with no refinement.  All
randomness comes from an explicitly specified 64-bit linear congruential
generator so that every report is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .domains import (
    Annulus,
    Block,
    BoundaryOrbitFamily,
    DomainError,
    FinitePunctures,
    PolyRadialFamily,
    PolySequencePunctures,
    ProductOfBalls,
    RadialFamily,
    RemovedBalls,
    RemovedPolydisks,
    SequencePunctures,
)
from .hyperbolic import MobiusMap, radial_separation_bound, rho, rho_max
from . import invariants as inv


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    details: str = ""


def report_line(r: VerificationReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"{r.check_name}\t{status}\t{r.observed!r}\t{r.expected!r}\t{r.tolerance!r}"


def format_reports(reports) -> str:
    return "\n".join(report_line(r) for r in reports)


def reports_to_json(reports) -> list[dict]:
    return [asdict(r) for r in reports]


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
        self.state = seed & self._MASK

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
    if count < 1:
        raise DomainError(f"brute force needs count >= 1, got {count!r}")
    dist = rho_max if isinstance(domain, PolySequencePunctures) else rho
    return min(dist(z, domain.puncture(k)) for k in range(1, count + 1))


def _pow2_axis(budget: int, axes: int) -> int:
    # largest power of two m with m^axes <= budget; nested under doubling budgets
    if budget < 2**axes:
        return 2
    return 1 << (int(math.log2(budget)) // axes)


def _rho_np(z: complex, w: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.abs((w - z) / (1.0 - np.conj(z) * w))


def boundary_min_oracle(block: Block, z, samples: int, geometry: str = "polydisk") -> float:
    """Minimum of the coordinate-max kernel over a deterministic uniform sample
    of the block boundary.

    Grids are anchored at angle 0 and nest under doubling sample budgets, so
    the value is nonincreasing along a doubling schedule.
    """
    import numpy as np

    if samples < 1_000:
        raise DomainError(f"boundary oracle needs samples >= 1000, got {samples!r}")
    n = len(block.center)
    r = block.radius
    if geometry == "polydisk":
        axes = 1 + 2 * (n - 1)
        m = _pow2_axis(max(samples // n, 2), axes)
        angles = 2.0 * np.pi * np.arange(m) / m
        radii = np.arange(m + 1) / m
        rim = np.exp(1j * angles)                       # unit circle sample
        disk = (radii[:, None] * rim[None, :]).ravel()  # unit disk sample
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
    if geometry == "ball":
        axes = 2 * n - 1
        m = _pow2_axis(samples, axes)
        polar = np.pi * np.arange(m + 1) / m
        azimuth = 2.0 * np.pi * np.arange(m) / m
        grids = np.meshgrid(*([polar] * (axes - 1) + [azimuth]), indexing="ij")
        # hyperspherical coordinates on the unit (2n-1)-sphere
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
    raise DomainError(f"unknown block geometry {geometry!r}")


def _closed_disk_min_oracle(z: complex, radius: float, samples: int) -> float:
    """Deterministic dense polar sample of the closed disk |w| <= radius."""
    import numpy as np

    m = max(2, 1 << math.ceil(math.log2(math.sqrt(max(samples, 4)))))
    t = np.arange(m + 1) / m
    phi = 2.0 * np.pi * np.arange(m) / m
    w = radius * t[:, None] * np.exp(1j * phi[None, :])
    vals = np.abs((w - z) / (1.0 - np.conj(z) * w))
    return float(vals.min())


def annulus_compact_removal_gap(samples: int = 1_000_000) -> inv.VerificationOutcome:
    """Compare the compact-removal formula with the annulus squeezing function
    at the reference configuration (removed closed disk of radius 1/4, point 1/2).

    The minimum of rho(1/2, .) over the closed disk |w| <= 1/4 is 2/7
    (attained at w = 1/4); the annulus value at 1/2 is 1/2.  The positive gap
    3/14 shows the compact-removal formula does not extend to this planar
    domain.  The disk minimum is confirmed by a dense polar sample.
    """
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
    if trials < 1:
        raise DomainError(f"invariance suite needs trials >= 1, got {trials!r}")
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
    range, and the recorded tail bound strictly exceeds the returned value."""
    if trials < 1:
        raise DomainError(f"truncation suite needs trials >= 1, got {trials!r}")
    rng = Lcg(seed)
    domains = (
        ("radial", SequencePunctures(family=RadialFamily(q=0.5, theta=1.0))),
        ("orbit", SequencePunctures(family=BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3))),
    )
    width = len(str(trials - 1))
    reports = []
    for name, domain in domains:
        for t in range(trials):
            z = rng.disk_point(0.9)
            res = inv.squeezing_punctured_disk(domain, z)
            count = max(10 * res.truncation_index, res.truncation_index + 1000)
            oracle = brute_force_infimum(domain, z, count)
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
    reports = []
    for name, geometry, block, z in _BOUNDARY_CONFIGS:
        domain_cls = RemovedPolydisks if geometry == "polydisk" else RemovedBalls
        domain = domain_cls(n=2, blocks=(block,))
        res = inv.polydisk_squeezing_removed_blocks(domain, z)
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
                    for s in (samples // 4, samples // 2, samples)]
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

    poly = PolySequencePunctures(n=2, family=PolyRadialFamily(2, 0.5, 1.0))
    add("claims/poly-radial-at-origin",
        inv.polydisk_squeezing_punctured(poly, (0j, 0j)).value, 0.5, 0.0)

    block = RemovedPolydisks(n=2, blocks=(Block((0j, 0j), 0.25),))
    res = inv.polydisk_squeezing_removed_blocks(block, (complex(0.5), 0j))
    add("claims/removed-polydisk-block", res.value, 2.0 / 7.0, res.mesh_error,
        f"boundary minimization, mesh_error {res.mesh_error!r}")
    ball = RemovedBalls(n=2, blocks=(Block((0j, 0j), 0.25),))
    res = inv.polydisk_squeezing_removed_blocks(ball, (complex(0.5), 0j))
    add("claims/removed-ball-block", res.value, 2.0 / 7.0, res.mesh_error,
        f"boundary minimization, mesh_error {res.mesh_error!r}")

    return sorted(reports, key=lambda r: r.check_name)


SUITES = ("paper-claims", "invariance", "truncation", "boundary-oracle", "all")

# Largest --samples for the boundary-oracle suite.  Its sample arrays grow
# linearly with the budget: the suite peaks at 34 MB resident at the default
# 250k samples and at about 290 MB at this limit, 16 times the default.
MAX_ORACLE_SAMPLES = 4_000_000
MIN_ORACLE_SAMPLES = 4_000  # the doubling check gives the oracle a quarter; it needs 1000


def run_suite(name: str, seed: int = 42, trials: int | None = None,
              samples: int = 250_000) -> list[VerificationReport]:
    """Run one suite, or all of them; ``trials`` None means each suite's
    default count."""
    if samples > MAX_ORACLE_SAMPLES:
        raise DomainError(f"boundary oracle samples above the limit {MAX_ORACLE_SAMPLES}")
    if samples < MIN_ORACLE_SAMPLES:
        raise DomainError(f"boundary oracle needs samples >= {MIN_ORACLE_SAMPLES}, got {samples!r}")
    counts = {} if trials is None else {"trials": trials}
    if name == "paper-claims":
        return claims_suite(seed=seed)
    if name == "invariance":
        return invariance_suite(seed=seed, **counts)
    if name == "truncation":
        return truncation_suite(seed=seed, **counts)
    if name == "boundary-oracle":
        return boundary_oracle_suite(samples=samples)
    if name == "all":
        # the report is sorted, so the suites that check their trial count run first
        out = invariance_suite(seed=seed, **counts) + truncation_suite(seed=seed, **counts)
        out += claims_suite(seed=seed)
        out += boundary_oracle_suite(samples=samples)
        return sorted(out, key=lambda r: r.check_name)
    raise DomainError(f"unknown suite {name!r} (known: {SUITES})")
