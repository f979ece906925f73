"""Squeezing functions and Caratheodory-Fridman invariants in closed form on
punctured disks, punctured polydisks, polydisks minus closed blocks, annuli
and products of balls, with certified truncation of infinite infima."""

from .domains import (
    Annulus,
    Block,
    BoundaryOrbitFamily,
    DomainError,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    RadialBlockFamily,
    RadialFamily,
    RemovedBalls,
    RemovedPolydisks,
    SequencePunctures,
    parse_domain_spec,
    serialize_domain_spec,
)
from .hyperbolic import MobiusMap, PointError, radial_separation_bound
from .invariants import (
    CertificationError,
    InvariantValue,
    VerificationOutcome,
    annulus_squeezing,
    fridman_caratheodory_punctured_disk,
    lower_bound_certificate,
    polydisk_squeezing_punctured,
    polydisk_squeezing_removed_blocks,
    product_of_balls_T_lower_bound,
    product_of_balls_ratio_contradiction,
    product_of_balls_squeezing,
    removed_block_display_formula,
    squeezing_punctured_disk,
)
from .verification import (
    Lcg,
    VerificationReport,
    annulus_compact_removal_gap,
    boundary_min_oracle,
    brute_force_infimum,
    run_suite,
)

__version__ = "0.1.0"
