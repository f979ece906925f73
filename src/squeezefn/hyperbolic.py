"""Pseudo-hyperbolic geometry on the unit disk and unit polydisk.

The paper's invariants are infima of the pseudo-hyperbolic distance ``rho``
and of its coordinate maximum ``rho_max`` on the polydisk; the Poincare
distance atanh(rho) is monotone in ``rho``, so no evaluation needs it.
Points are plain ``complex`` numbers, polydisk points tuples of them.  The
``require_*`` checks validate query points and Mobius centers; the kernels
skip all checks, because evaluation loops feed them generated sequence tails
whose moduli round to 1.0 in double precision, which is harmless as long as
the other argument stays safely inside the disk.  ``MobiusMap`` is the disk
automorphism behind the invariance checks.
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


def _as_complex(z, what: str = "point") -> complex:
    """complex(z) of a number (an int, float, complex or numpy scalar).  A
    string, which complex() would parse, anything else that is not a number
    and an int beyond the float range are PointErrors."""
    if type(z) is complex:  # the common case, taken first: complex(z) is z
        return z
    if not isinstance(z, str):
        try:
            return complex(z)
        except OverflowError as e:
            raise PointError(f"{what}: {e}") from None
        except (TypeError, ValueError):
            pass
    raise PointError(f"{what} must be a number, got {type(z).__name__}")


def _check_disk(z: complex, what: str) -> None:
    if not cmath.isfinite(z):
        # abs(nan) >= 1.0 is False: a NaN would pass the modulus test below
        raise PointError(f"{what} {z!r} is not a finite complex number")
    if abs(z) >= 1.0:
        raise PointError(f"{what} {z!r} is not strictly inside the unit disk")


def _check_interior(z: complex, what: str) -> None:
    if abs(z) >= 1.0 - INTERIOR_MARGIN:
        raise PointError(
            f"{what} {z!r} is numerically boundary-adjacent "
            f"(modulus >= 1 - {INTERIOR_MARGIN:g})"
        )


def require_disk_point(z: complex, what: str = "point") -> complex:
    z = _as_complex(z, what)
    _check_disk(z, what)
    return z


def require_interior_point(z: complex, what: str = "point") -> complex:
    """Strict interior check used for evaluation anchors and Mobius centers."""
    z = require_disk_point(z, what)
    _check_interior(z, what)
    return z


def require_interior_polydisk_point(zs, n: int, what: str = "point") -> tuple[complex, ...]:
    """Convert every coordinate once, check the coordinate count, then every
    coordinate against the disk, then every coordinate against the interior
    margin."""
    try:
        zs = tuple(_as_complex(z, f"{what} coordinate {j}") for j, z in enumerate(zs))
    except TypeError:  # not iterable
        raise PointError(f"{what} must be a sequence of {n} numbers, got {type(zs).__name__}") from None
    if len(zs) != n:
        raise PointError(f"{what} has {len(zs)} coordinates, expected {n}")
    for check in (_check_disk, _check_interior):
        for j, z in enumerate(zs):
            check(z, f"{what} coordinate {j}")
    return zs


def rho(z: complex, w: complex) -> float:
    """Unchecked pseudo-hyperbolic kernel |w - z| / |1 - conj(z) w|."""
    return abs((w - z) / (1.0 - z.conjugate() * w))


def rho_max(zs, ws) -> float:
    """Unchecked coordinate-max kernel on the polydisk."""
    return max(rho(z, w) for z, w in zip(zs, ws))


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

    ``center`` is the point sent to the origin.  With ``rotation = pi`` the map
    is an involution swapping ``center`` and the origin.
    """

    center: complex = 0j
    rotation: float = 0.0

    def __post_init__(self):
        import numbers  # here, not at import: a numpy-free eval never builds a map

        center, rotation = self.center, self.rotation
        if not isinstance(rotation, numbers.Real):  # float() would parse a string
            raise PointError(f"Mobius rotation must be a real number, got {type(rotation).__name__}")
        try:
            if isinstance(center, numbers.Number):  # any other center fails require_interior_point
                center = complex(center)
            rotation = float(rotation)
        except OverflowError as e:  # an int beyond the float range
            raise PointError(f"Mobius map: {e}") from None
        if not math.isfinite(rotation):  # its phase would be nan+nanj, and so every image
            raise PointError(f"Mobius rotation must be finite, got {rotation!r}")
        object.__setattr__(self, "center", require_interior_point(center, "Mobius center"))
        object.__setattr__(self, "rotation", rotation)

    @property
    def phase(self) -> complex:
        return cmath.exp(1j * self.rotation)

    def __call__(self, p: complex) -> complex:
        p = require_disk_point(p)
        return self.phase * (p - self.center) / (1.0 - self.center.conjugate() * p)
