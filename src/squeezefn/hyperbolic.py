"""Hyperbolic geometry primitives on the unit disk and unit polydisk.

Points are plain ``complex`` numbers strictly inside the unit disk; points of
the polydisk are tuples of them.  The validated wrappers reject bad inputs at
API boundaries, while the ``rho`` / ``rho_max`` kernels skip all checks:
evaluation loops feed them generated sequence tails whose moduli round to 1.0
in double precision, which is harmless as long as the other argument stays
safely inside the disk.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

# Points with modulus in [1 - 1e-12, 1) are rejected as evaluation anchors:
# Mobius denominators degenerate there and certified tail bounds lose meaning.
INTERIOR_MARGIN = 1e-12


class PointError(ValueError):
    """A point violates a membership or modulus requirement."""


def require_disk_point(z: complex, what: str = "point") -> complex:
    z = complex(z)
    if not cmath.isfinite(z):
        # abs(nan) >= 1.0 is False: a NaN would pass the modulus test below
        raise PointError(f"{what} {z!r} is not a finite complex number")
    if abs(z) >= 1.0:
        raise PointError(f"{what} {z!r} is not strictly inside the unit disk")
    return z


def require_interior_point(z: complex, what: str = "point") -> complex:
    """Strict interior check used for evaluation anchors and Mobius centers."""
    z = require_disk_point(z, what)
    if abs(z) >= 1.0 - INTERIOR_MARGIN:
        raise PointError(
            f"{what} {z!r} is numerically boundary-adjacent "
            f"(modulus >= 1 - {INTERIOR_MARGIN:g})"
        )
    return z


def require_polydisk_point(zs, n: int | None = None, what: str = "point") -> tuple[complex, ...]:
    zs = tuple(complex(z) for z in zs)
    if n is not None and len(zs) != n:
        raise PointError(f"{what} has {len(zs)} coordinates, expected {n}")
    if not zs:
        raise PointError(f"{what} has no coordinates")
    for j, z in enumerate(zs):
        require_disk_point(z, f"{what} coordinate {j}")
    return zs


def require_interior_polydisk_point(zs, n: int | None = None, what: str = "point") -> tuple[complex, ...]:
    zs = require_polydisk_point(zs, n, what)
    for j, z in enumerate(zs):
        require_interior_point(z, f"{what} coordinate {j}")
    return zs


def rho(z: complex, w: complex) -> float:
    """Unchecked pseudo-hyperbolic kernel |w - z| / |1 - conj(z) w|."""
    return abs((w - z) / (1.0 - z.conjugate() * w))


def rho_max(zs, ws) -> float:
    """Unchecked coordinate-max kernel on the polydisk."""
    return max(rho(z, w) for z, w in zip(zs, ws))


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Pseudo-hyperbolic distance |(w - z)/(1 - conj(z) w)| on the unit disk."""
    z = require_disk_point(z, "first point")
    w = require_disk_point(w, "second point")
    return rho(z, w)


def sigma(x: float) -> float:
    """sigma(x) = (1/2) log((1 + x)/(1 - x)), i.e. atanh, on [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise PointError(f"sigma argument {x!r} outside [0, 1)")
    return math.atanh(x)


def sigma_inverse(r: float) -> float:
    """Inverse of sigma: tanh, on [0, inf)."""
    if r < 0.0:
        raise PointError(f"sigma_inverse argument {r!r} is negative")
    return math.tanh(r)


def poincare_distance(z: complex, w: complex) -> float:
    """Poincare distance sigma(pseudo_hyperbolic(z, w))."""
    return sigma(pseudo_hyperbolic(z, w))


def polydisk_caratheodory_tanh(zs, ws) -> float:
    """tanh of the polydisk Caratheodory distance: the coordinate-wise max of
    pseudo-hyperbolic distances."""
    zs = require_polydisk_point(zs, what="first point")
    ws = require_polydisk_point(ws, len(zs), what="second point")
    return rho_max(zs, ws)


def radial_separation_bound(m: float, r: float) -> float:
    """Lower bound (m - r)/(1 - r m) on rho(z, w) valid whenever |z| <= r < m <= |w|.

    This is what makes infima over certified sequence tails finitely
    computable: once the bound exceeds the running minimum, no unexamined
    puncture can improve it.
    """
    return (m - r) / (1.0 - r * m)


@dataclass(frozen=True)
class MobiusMap:
    """Disk automorphism z -> e^{i rotation} (z - center) / (1 - conj(center) z).

    ``center`` is the point sent to the origin.  With ``rotation = 0`` the map
    is an involution.
    """

    center: complex = 0j
    rotation: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "rotation", float(self.rotation))
        require_interior_point(self.center, "Mobius center")

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.rotation)

    def __call__(self, p: complex) -> complex:
        p = require_disk_point(p)
        return self.phase * (p - self.center) / (1.0 - self.center.conjugate() * p)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(center=-self.center * self.phase, rotation=-self.rotation)


def mobius_apply(m: MobiusMap, p: complex) -> complex:
    return m(p)
