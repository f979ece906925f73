"""Certificates: the explicit-embedding check of a claimed lower bound on a
punctured disk or polydisk (lower_bound_certificate), which runs the
engine's certified-truncation scan from just below the claim, and the
product-of-balls ratio contradiction.  Each returns a VerificationOutcome:
a failed check is a result, not an error.

No eval or compare runs them (verify runs the ratio check), so the module
loads on first use of one of its names.
"""

from __future__ import annotations

import math

from . import invariants as inv
from .domains import (
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    SequencePunctures,
    _comparable,
    _require_finite,
    _require_in_unit_interval,
    _shown,
)
from .hyperbolic import Record, require_interior_point, require_interior_polydisk_point
from .invariants import _scan, _unstopped


class VerificationOutcome(Record):
    """Pass/fail result of a consistency check, with the computed values."""

    passed: bool
    observed: tuple[float, ...] = ()
    violating_index: int | None = None
    details: str = ""

    def __init__(self, passed, observed=(), violating_index=None, details=""):
        store = object.__setattr__
        store(self, "passed", passed)
        store(self, "observed", observed)
        store(self, "violating_index", violating_index)
        store(self, "details", details)


def lower_bound_certificate(domain, z: complex, claimed: float) -> VerificationOutcome:
    """Check the explicit-embedding certificate for a claimed lower bound.

    The centering map f(w) = (w - z)/(1 - conj(z) w), coordinate by
    coordinate for a poly_sequence, embeds the domain in the disk or
    polydisk with f(z) = 0; the claim holds iff every puncture image has
    modulus (coordinate maximum) >= claimed and the tail certificate covers
    all unexamined punctures.  Failure is a result, not an error.
    """
    if isinstance(domain, PolySequencePunctures):
        z = require_interior_polydisk_point(z, domain.n)
        anchor = max(map(abs, z))
    elif isinstance(domain, (FinitePunctures, SequencePunctures)):
        z = require_interior_point(z)
        anchor = abs(z)
    else:
        raise DomainError(f"lower_bound_certificate does not apply to {type(domain).__name__}")
    _require_in_unit_interval("claimed bound", claimed)

    # the tail covers the claim when its separation bound is >= claimed, which
    # for floats is > the next float below it: the stop rule's strict test
    scan = _scan(domain, z, anchor, claimed, math.nextafter(claimed, -math.inf))
    if scan.bad is not None:
        return VerificationOutcome(False, observed=(scan.bad,), violating_index=scan.examined,
                                   details=f"puncture {scan.examined} image modulus "
                                           f"{scan.bad!r} < {claimed!r}")
    if scan.tail is not None:
        return VerificationOutcome(True, observed=(scan.tail,),
                                   details=f"examined {scan.examined} punctures; tail bound "
                                           f"m = {scan.tail!r} covers the rest")
    _, m, covered = _unstopped(domain, anchor, claimed)
    if covered:  # an exact listing: the stop rule already tried a tail constant
        return VerificationOutcome(True, observed=(claimed,), details=f"all "
                                   f"{domain.known_count()} punctures covered, no tail")
    if m is None:
        return VerificationOutcome(False, observed=(claimed,), violating_index=None,
                                   details=f"tail failed to cover within {inv._SEQUENCE_CAP} punctures")
    return VerificationOutcome(False, observed=(m,), violating_index=None,
                               details=f"tail constant {m!r} cannot cover the claim")


def product_of_balls_ratio_contradiction(n: int) -> VerificationOutcome:
    """Show both fixed-ratio relations between the two squeezing functions of
    the product of balls are impossible for n > 1.

    If the ball-based value (1/sqrt(n)) were 1/n of the polydisk-based one,
    the latter would be sqrt(n) > 1; if the polydisk-based value were 1/n of
    the ball-based one it would be n^(-3/2), below its own lower bound
    1/sqrt(n).
    """
    if not _comparable(n) or n <= 1:
        raise DomainError(f"ratio contradiction check needs n > 1, got {_shown(n)}")
    _require_finite("ratio contradiction check", n=n)
    s = 1.0 / math.sqrt(n)
    forced_high = n * s        # sqrt(n), would have to be <= 1
    forced_low = s / n         # n^(-3/2), would have to be >= 1/sqrt(n)
    passed = forced_high > 1.0 and forced_low < s
    return VerificationOutcome(
        passed,
        observed=(forced_high, forced_low),
        details=(f"hypothetical values {forced_high!r} (> 1 required impossible) and "
                 f"{forced_low!r} (< lower bound {s!r})"),
    )
