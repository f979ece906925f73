"""Pseudo-hyperbolic geometry on the unit disk and unit polydisk.

The paper's invariants are infima of the pseudo-hyperbolic distance ``rho``
and of its coordinate maximum ``rho_max`` on the polydisk; the Poincare
distance atanh(rho) is monotone in ``rho``, so no evaluation needs it.
Points are plain ``complex`` numbers, polydisk points tuples of them.  The
``require_*`` checks validate query points and Mobius centers; the kernels
skip all checks, because evaluation loops feed them generated sequence tails
whose moduli round to 1.0 in double precision, which is harmless as long as
the other argument stays safely inside the disk.  ``MobiusMap`` is the disk
automorphism behind the invariance checks.  ``Record`` is the immutable base
of every record class of the package, here because every path loads this
module first.

There is one distance kernel, in a float form (rho_from, rho) and an array
form (_kernel) that take the same operations in the same order, on what
each point contributes (_prepare, _defect), written once for both.  It uses
only +, -, *, / and sqrt, which IEEE 754 rounds correctly in Python floats
and in numpy, so a batch of distances is bitwise the scalar ``rho`` of each
pair whatever the interpreter's complex arithmetic.  What a point
contributes is computed once per point, so a batch of cells against
punctures pays about ten operations a pair.
"""

from __future__ import annotations

import cmath
import math

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


def _sequence(items, what: str, expected: str) -> tuple:
    """tuple(items), or a PointError naming what ``items`` should hold where
    it is not iterable (a number, None)."""
    try:
        return tuple(items)
    except TypeError:
        raise PointError(f"{what} must be a sequence of {expected}, got {type(items).__name__}") from None


def require_interior_polydisk_point(zs, n: int, what: str = "point") -> tuple[complex, ...]:
    """Convert every coordinate once, check the coordinate count, then every
    coordinate against the disk, then every coordinate against the interior
    margin.  Names are formatted only for a message."""
    items = _sequence(zs, what, f"{n} numbers")
    try:
        zs = tuple(map(_as_complex, items))
    except PointError:  # again, naming the coordinate that fails
        zs = tuple(_as_complex(z, f"{what} coordinate {j}") for j, z in enumerate(items))
    if len(zs) != n:
        raise PointError(f"{what} has {len(zs)} coordinates, expected {n}")
    if not all(abs(z) < 1.0 - INTERIOR_MARGIN for z in zs):  # both checks pass exactly then; NaN fails
        for check in (_check_disk, _check_interior):
            for j, z in enumerate(zs):
                check(z, f"{what} coordinate {j}")
    return zs


# Veltkamp's splitter 2^27 + 1; the power of two by which _prepare scales a
# point, so that squares of scaled differences stay normal down to
# |w - z| = 2^-1021 and below 2^1023 up to |w - z| = 2 + 2^-40; the one by
# which _underflowed scales the differences whose squares underflow; and the
# least normal float, below which rho^2 loses bits (rho < 2^-511).
_SPLIT = 134217729.0
_SCALE = 2.0**510
_RESCALE = 2.0**600
_NORMAL = 2.0**-1022


def _defect(x, y):
    """1 - x^2 - y^2 for floats x, y, or for numpy arrays of them, bitwise alike.

    Each square is a float and its exact rounding error: Veltkamp's split of
    x into 26-bit halves and Dekker's product give x^2 = xx + ex exactly, with
    no FMA (Dekker, Numer. Math. 18, 1971), barring underflow, where the
    defect is at least 1/2 and the error below 2^-1000.  Fast2Sum gives
    1 - xx = t + e1 exactly (|xx| <= 2, the exponent of 1), and the defect is
    (t - yy) + ((e1 - ex) - ey).  Subtracting the larger square first is not
    enough: at |x| = |y| near 1/sqrt(2) the larger can be just below 1/2,
    and then 1 - xx rounds.

    Error (Higham, Accuracy and Stability, ch. 2-3; u = 2^-53): with
    |xx|, |yy| <= 1 + 2^-40, |e1|, |ex|, |ey| <= u and |t - yy| <= |d| + 3u
    for the exact defect d.  t - yy and the last sum round once each, the
    small sum twice, within 6u^2, so the result is within 2u |d| + 9u^2 of d:
    2.01u |d| for |d| >= 2e-12, i.e. at every point with
    |x + iy| <= 1 - 1e-12.
    """
    xx = x * x
    yy = y * y
    c = _SPLIT * x
    xh = c - (c - x)
    xl = x - xh
    c = _SPLIT * y
    yh = c - (c - y)
    yl = y - yh
    ex = ((xh * xh - xx) + (xh + xh) * xl) + xl * xl
    ey = ((yh * yh - yy) + (yh + yh) * yl) + yl * yl
    t = 1.0 - xx
    return (t - yy) + (((1.0 - t) - xx - ex) - ey)


def _prepare(x, y):
    """A point x + iy (floats, or numpy arrays of them) as _kernel takes it:
    its coordinates and its _defect 1 - |x + iy|^2, each times 2^510, which
    is exact."""
    return x * _SCALE, y * _SCALE, _defect(x, y) * _SCALE


def _kernel(zr, zi, pz, ar, ai, pa, sqrt):
    """rho(z, a) from _prepare(z) and _prepare(a) for numpy arrays that
    broadcast (cells against punctures, either way round), with
    sqrt=numpy.sqrt: the array form of rho_from, operation for operation,
    so bitwise the scalar rho of each pair.

    Garnett's identity |1 - conj(z) a|^2 = |a - z|^2 + (1 - |z|^2)(1 - |a|^2)
    (Bounded Analytic Functions, ch. 1) gives rho = sqrt(D / (D + P)) with
    D = |a - z|^2 and P = (1 - |z|^2)(1 - |a|^2); the scale 2^510 of both
    cancels.  Where rho^2 is below the normal range (rho < 2^-511) the
    quotient would lose bits, and rho is sqrt(D) / sqrt(D + P) instead,
    sqrt(D) being |a - z| 2^510, formed before the division.

    Error (Higham, ch. 2-3; u = 2^-53; first order, each step rounding once),
    for |z| <= 1 - 1e-12 (the interior margin), |a| <= 1 + 16u (a float
    puncture whose modulus rounds to 1.0) and |a - z| >= 2^-1021, where D is
    normal; the kernel is symmetric in z and a, bitwise, so their roles may
    swap.  A difference is within u, so D is computed within 4u (two squares
    of it, their sum).  By _defect's bound 1 - |z|^2 is within 2.01u, and
    1 - |a|^2 within 2u of itself plus 9u^2, so P is within 5.01u |P| plus
    9u^2 (1 - |z|^2) <= 0.002u (D + P), as D + P = |1 - conj(z) a|^2 >=
    (1 - |z|)^2 / 2.  If D and P are off by factors 1 + alpha and 1 + beta,
    D + P is off by 1 + gamma with gamma = (D alpha + P beta)/(D + P), and
    D/(D + P) by alpha - gamma = P (alpha - beta)/(D + P), at most 9.02u in
    modulus (|P| <= D/99 when P < 0).  With the sum's and the division's
    rounding the quotient is within 11.02u; half of that and the square
    root's rounding leave |rho' - rho| <= 6.51u rho, within 7u rho with the
    second-order terms, whatever 1 - |z|.  Below rho = 2^-511 the two square
    roots and the division round separately, within 9u rho.  Below
    |a - z| = 2^-1021 the bound degrades as D leaves the normal range; below
    2^-1046 its scaled squares underflow to 0 and _underflowed takes over,
    so rho > 0 for every pair of distinct points.
    """
    dr = ar - zr
    di = ai - zi
    d = dr * dr + di * di
    e = d + pz * pa
    q = d / e
    rho = sqrt(q)
    if not (q >= _NORMAL).all():  # rho^2 below the normal range, or points coincide
        low = q < _NORMAL
        rho[low] = sqrt(d[low]) / sqrt(e[low])
        if not d.all():  # a square underflowed to 0
            low = d == 0.0
            rho[low] = _underflowed(dr[low], di[low], sqrt(e[low]), sqrt)
    return rho


def _underflowed(dr, di, e, sqrt):
    """_kernel where the scaled squares of the difference (dr, di) underflow
    to 0, |a - z| < 2^-1046: scaled by 2^600 more, they cannot (dr, di <
    2^-536 there), and rho is positive unless the points are equal."""
    dr = dr * _RESCALE
    di = di * _RESCALE
    return sqrt(dr * dr + di * di) / e / _RESCALE


def rho(z: complex, w: complex) -> float:
    """Unchecked pseudo-hyperbolic distance |w - z| / |1 - conj(z) w| (_kernel)."""
    return rho_from(z)(w)


def rho_max(zs, ws) -> float:
    """Unchecked coordinate-max kernel on the polydisk."""
    return max(rho(z, w) for z, w in zip(zs, ws))


def rho_from(z):
    """w -> rho(z, w) (rho_max for a polydisk point z), with z's part of the
    kernel (_prepare) computed once: the float form of _kernel, operation for
    operation, with _prepare(w) inline, as the single-point scans call it
    once per puncture."""
    if isinstance(z, tuple):
        coordinates = tuple(map(rho_from, z))
        return lambda ws: max(f(w) for f, w in zip(coordinates, ws))
    zr, zi, pz = _prepare(z.real, z.imag)

    def dist(w, s=_SCALE, normal=_NORMAL, sqrt=math.sqrt):
        x, y = w.real, w.imag
        dr = x * s - zr
        di = y * s - zi
        d = dr * dr + di * di
        e = d + pz * (_defect(x, y) * s)
        q = d / e
        if q >= normal:
            return sqrt(q)
        return sqrt(d) / sqrt(e) if d else _underflowed(dr, di, sqrt(e), sqrt)
    return dist


def radial_separation_bound(m: float, r: float) -> float:
    """Lower bound (m - r)/(1 - r m) on rho(z, w) valid whenever |z| <= r < m <= |w|.

    This is what makes infima over certified sequence tails finitely
    computable: once the bound exceeds the running minimum, no unexamined
    puncture can improve it.
    """
    return (m - r) / (1.0 - r * m)


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, built on each use: the
    dataclasses.Field of each field, so that dataclasses' fields, replace,
    asdict and is_dataclass take a record, and only their caller imports
    dataclasses."""

    def __get__(self, record, cls):
        import dataclasses

        fields = {}
        for name in cls._fields:
            f = fields[name] = dataclasses.field(default=cls._defaults.get(name, dataclasses.MISSING))
            f.name, f._field_type = name, dataclasses._FIELD  # as the decorator sets them
        return fields


class Record:
    """An immutable record of named fields: the base of every record class.

    A subclass declares its fields as annotated class attributes, after those
    of a base record, a default as the attribute's value.  The constructor
    takes them by position or keyword and then calls ``__post_init__``, the
    validation hook.  A class built often defines its own ``__init__``,
    which takes the fields in order with their defaults, validates them and
    stores each with ``object.__setattr__``: a write through ``__dict__``
    would materialise the instance dict, and every later attribute load
    would be slower (about 30 ns against 10 on CPython 3.11).  Assignment
    raises AttributeError.  Records are equal when of the same class with
    equal field tuples; the hash is that tuple's and the repr
    ``Name(field=value, ...)``, as the frozen dataclasses that records
    replaced had them.  Nothing is generated or compiled: a record class
    costs its class statement alone."""

    _fields = ()
    _defaults = {}
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls.__match_args__ = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bound(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bound(self, args, kwargs) -> list:
        """The field values of a call, defaults filled in; a call that does
        not match the fields is a TypeError, as for a written signature."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(map(repr, missing))}")
        return [values[f] if f in values else self._defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class MobiusMap(Record):
    """Disk automorphism z -> e^{i rotation} (z - center) / (1 - conj(center) z).

    ``center`` is the point sent to the origin.  With ``rotation = pi`` the map
    is an involution swapping ``center`` and the origin.
    """

    center: complex = 0j
    rotation: float = 0.0

    def __init__(self, center=0j, rotation=0.0):
        import numbers  # here, not at import: a numpy-free eval never builds a map

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
