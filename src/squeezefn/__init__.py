"""Squeezing functions and Caratheodory-Fridman invariants in closed form on
punctured disks, punctured polydisks, polydisks minus closed blocks, annuli
and products of balls, with certified truncation of infinite infima.

Each submodule loads on first use of one of its names (PEP 562), so that
``import squeezefn`` loads none, and a domain parse loads ``domains`` and
``hyperbolic`` and, where the document needs them, ``families`` (a
"family" field) and ``block_domains`` (removed polydisks and balls).  An
eval adds ``invariants``, and ``blocks`` for removed blocks; ``certificates``
and ``serialize`` load only when their names are used.  ``chunked``, the
numpy chunk scan and the grid kernel, and ``grid``, the grid command's
sweep, have no public name: the engine loads chunked where a scan or a grid
needs it, and the CLI loads grid for the grid command."""

import sys

_EXPORTS = {
    "domains": ("Annulus", "DomainError", "FinitePunctures", "PolySequencePunctures",
                "ProductOfBalls", "SequencePunctures", "parse_domain_spec"),
    "families": ("BoundaryOrbitFamily", "RadialBlockFamily", "RadialFamily"),
    "block_domains": ("Block", "RemovedBalls", "RemovedPolydisks"),
    "serialize": ("serialize_domain_spec",),
    "hyperbolic": ("MobiusMap", "PointError", "radial_separation_bound"),
    "invariants": ("CertificationError", "InvariantValue", "annulus_squeezing",
                   "fridman_caratheodory_punctured_disk", "polydisk_squeezing_punctured",
                   "product_of_balls_T_lower_bound", "product_of_balls_squeezing",
                   "squeezing_punctured_disk"),
    "certificates": ("VerificationOutcome", "lower_bound_certificate",
                     "product_of_balls_ratio_contradiction"),
    "blocks": ("polydisk_squeezing_removed_blocks", "removed_block_display_formula"),
    "verification": ("Lcg", "VerificationReport", "annulus_compact_removal_gap",
                     "boundary_min_oracle", "brute_force_infimum", "run_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("cli", "chunked", "grid", *_EXPORTS)

__all__ = list(_SOURCE)
__version__ = "0.1.0"

# the verification suites, named here so that the CLI lists them without
# loading verification
SUITES = ("paper-claims", "invariance", "truncation", "boundary-oracle", "all")


def __getattr__(name):
    module = _SOURCE.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # an import statement's path: -X importtime lists it
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
