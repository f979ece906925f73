#!/usr/bin/env python3
"""Mutation check of the family law, of the distance kernel, of the certified
single-point scan, of the block minima and their scan, of the verification
oracles, of the record base, of the point check, of the grid loop and of the
guards on indices, counts, real numbers, (0, 1) parameters and the points of
the oracles and of the product of balls: each mutant in MUTANTS
breaks one property that a value's accuracy, a certificate, an oracle, a
record's semantics, a guard or the byte-identity of outputs rests on, and
the tests it names must fail on it.

The script copies src/, tests/ and pyproject.toml to a temporary directory,
runs the named tests of every mutant there unmutated (they must pass), then
applies one mutant at a time (an exact text replacement that must match
exactly once), runs its tests and reports it as killed or survived.  It exits
non-zero when a mutant survives, when the unmutated copy fails, or when an
old text does not match exactly once.

    python scripts/mutation_check.py

tests/test_mutation_table.py checks, in tier-1, only that every old text
matches exactly once, so that a refactor updates this table in the same
change.  The full run takes a few minutes; it needs numpy, pytest and
hypothesis, as tier-1 does.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
INVARIANTS = "src/squeezefn/invariants.py"
CHUNK_SCAN = "src/squeezefn/chunked.py"
BLOCK_MINIMA = "src/squeezefn/blocks.py"
DOMAINS = "src/squeezefn/domains.py"
FAMILIES = "src/squeezefn/families.py"
CHUNKED = "tests/test_chunked.py"
BATCHES = "tests/test_scalar_batches.py"
VERIFICATION = "src/squeezefn/verification.py"
HYPERBOLIC = "src/squeezefn/hyperbolic.py"
KERNEL = "tests/test_kernel.py"
RECORDS = "tests/test_records.py"
BLOCK_LOOP = "tests/test_block_loop.py"
BLOCK_FACES = "tests/test_block_faces.py"
CIRCLE_MIN = "tests/test_circle_min.py"
GRID_LOOP = "tests/test_grid_loop.py"
GUARDS = "tests/test_guards.py"
ORACLES = "tests/test_oracles.py"


class Mutant(NamedTuple):
    name: str
    breaks: str          # the property the mutant breaks
    path: str            # file, relative to the repository root
    old: str             # exact text, which must occur exactly once
    new: str
    tests: tuple         # pytest node ids expected to fail on the mutant


def _t(*names: str, path: str = CHUNKED) -> tuple:
    return tuple(f"{path}::{n}" for n in names)


MUTANTS = (
    Mutant("pad-minus-zero", "a polydisk family's other coordinates are exactly +0j",
           DOMAINS, "return (a,) + (0j,) * (self.n - 1)", "return (a,) + (-0j,) * (self.n - 1)",
           _t("test_family_chunk_is_bitwise_point_and_tail")),
    Mutant("listing-tail-pad-minus-zero", "a listing chunk's tails before its last point are +0.0, as tail_lower_bound",
           DOMAINS, "tails = np.zeros(stop - start)", "tails = np.full(stop - start, -0.0)",
           _t("test_listing_chunk_is_bitwise_point_and_tail")),
    Mutant("angle-one-ulp-high", "a chunk's angles are theta * k, the angles of point(k)",
           FAMILIES, "return self.theta * np.arange(start + 1, stop + 1, dtype=float)",
           "return np.nextafter(self.theta * np.arange(start + 1, stop + 1, dtype=float), np.inf)",
           _t("test_family_chunk_is_bitwise_point_and_tail")),
    Mutant("point-modulus-one-late", "point(k) takes the modulus of the same index as a chunk",
           FAMILIES, "return cmath.rect(self.modulus(k), self.theta * k)",
           "return cmath.rect(self.modulus(k + 1), self.theta * k)",
           _t("test_family_chunk_is_bitwise_point_and_tail")),
    Mutant("radial-tail-index-plus-1", "RadialFamily.tail_index is a lower bound on the first stop",
           FAMILIES, "return min(int(max(k, 0.0)), _INDEX_CAP)",
           "return min(int(max(k, 0.0)) + 1, _INDEX_CAP)",
           _t("test_tail_index_is_a_certified_lower_bound_near_the_stop")),
    Mutant("orbit-tail-index-plus-1", "BoundaryOrbitFamily.tail_index is a lower bound on the first stop",
           FAMILIES, "return min(int(k), _INDEX_CAP)", "return min(int(k) + 1, _INDEX_CAP)",
           _t("test_tail_index_is_a_certified_lower_bound_near_the_stop")),
    Mutant("radial-margin-dropped", "RadialFamily.tail_index covers the rounding of log, pow and the quotient",
           FAMILIES, "k = (a - 2.0**-49 * (1.0 + a)) / -math.log(self.q) * (1.0 - 2.0**-50)",
           "k = a / -math.log(self.q)",
           _t("test_tail_index_is_a_certified_lower_bound_near_the_stop")),
    Mutant("log-gap-without-midpoint", "_log_gap takes the level's gap to the float below it",
           FAMILIES, "return -math.log(((1.0 - below) + (1.0 - level)) * 0.5)",
           "return -math.log(1.0 - level)",
           _t("test_tail_index_is_a_certified_lower_bound_near_the_stop")),
    Mutant("stop-level-one-float-high", "_stop_level is the least float the stop rule accepts",
           CHUNK_SCAN, "            m = below\n        return m\n",
           "            m = below\n        return math.nextafter(m, 2.0)\n",
           _t("test_tail_index_is_a_certified_lower_bound_near_the_stop")),
    Mutant("stop-cut-one-candidate-short", "the floor test and argmin run up to the stop, inclusive",
           CHUNK_SCAN, "seen, tail = dist[:before], (n, m)", "seen, tail = dist[:before - 1], (n, m)",
           _t("test_deep_reference_points_are_pinned")),
    Mutant("first-plus-3", "tails are tried from _tail_start on, not later",
           CHUNK_SCAN, "first = max(reach, examined + 1)", "first = max(reach, examined + 1) + 3",
           _t("test_deep_reference_points_are_pinned")),
    Mutant("second-tail-pass-dropped", "the stop may fall past the lowest minimum's candidate",
           CHUNK_SCAN, "or _first_stop(domain, anchor, index, run, split + 1, stop))", "or None)",
           _t("test_a_loose_tail_index_changes_no_outcome")),
    Mutant("head-resumed-one-late", "the numpy chunks resume right after the scalar head",
           CHUNK_SCAN, "    examined, _, best, best_index, _ = scan\n",
           "    examined, _, best, best_index, _ = scan\n    examined += 1\n",
           _t("test_stops_around_the_head_match_the_per_puncture_loop")),
    Mutant("seed-tail-check-dropped",
           "a seed is a window level only where no stop can fall before its puncture",
           CHUNK_SCAN, "if floor <= seed < bound and _tail_start(domain, anchor, seed) >= j:",
           "if floor <= seed < bound:",
           _t("test_seed_changes_no_outcome_under_an_overclaiming_tail")),
    Mutant("run-started-at-the-seed",
           "the running minimum starts from the minimum before the chunk, not from d*",
           CHUNK_SCAN, "run = np.minimum.accumulate(np.concatenate(((best,), dist)))",
           "run = np.minimum.accumulate(np.concatenate(((dist.min(initial=best),), dist)))",
           _t("test_seed_changes_no_outcome_under_an_overclaiming_tail")),
    Mutant("seed-window-without-margins",
           "the window at d* keeps the seed's puncture whatever the rounding",
           CHUNK_SCAN, "kept = kept[x[kept] <= _spread(z, seed, y)]",
           "kept = kept[x[kept] <= math.asin(min(1.0, (t := math.nextafter(seed, 0.0)) * (1.0 - r * r)"
           " / (r * (1.0 - t * t))))] if (r := abs(z[0] if isinstance(z, tuple) else z)) else kept",
           _t("test_seed_keeps_its_puncture_at_the_edge_of_its_window")),
    # of the window's three margins only the reduction's can be told apart by
    # a test: the quotient factor's slack covers the kernel's 9u, and a float
    # puncture's angle is within a few u of y, inside the reduction's 48 eps
    Mutant("window-reduction-margin-dropped",
           "a chunk's angles too large to reduce within the window's width leave no window",
           CHUNK_SCAN, "spread = math.asin(sine / below) + 4.0 * _EPS * (max(abs(y[0]), abs(y[-1])) + 12.0)",
           "spread = math.asin(sine / below)",
           _t("test_window_at_the_deep_points")),
    Mutant("tail-probe-bisect-left", "a scalar tail probe at n counts the candidate at n",
           CHUNK_SCAN, "before = bisect.bisect_right(index, n)", "before = bisect.bisect_left(index, n)",
           _t("test_scalar_tail_probe_is_the_numpy_pass", "test_a_stop_at_a_candidate_counts_that_candidate",
              path=BATCHES)),
    Mutant("tail-probe-one-late", "a scalar tail pass probes from its first index on",
           CHUNK_SCAN, "for n in range(lo, hi + 1):", "for n in range(lo + 1, hi + 1):",
           _t("test_scalar_tail_probe_is_the_numpy_pass", "test_a_stop_at_a_candidate_counts_that_candidate",
              path=BATCHES)),
    Mutant("scalar-conversion-next-puncture", "the scalar kernel measures puncture(k), as numpy does",
           INVARIANTS, "return lambda k: dist(domain.puncture(k))",
           "return lambda k: dist(domain.puncture(k + 1))",
           _t("test_candidate_sets_around_the_bound_are_the_numpy_conversion", path=BATCHES)
           + _t("test_deep_reference_points_are_pinned")),
    Mutant("stop-rule-not-strict", "a tail stops a scan only where its separation bound exceeds the minimum",
           INVARIANTS, "return (tails > anchor) & (radial_separation_bound(tails, anchor) > bound)",
           "return (tails > anchor) & (radial_separation_bound(tails, anchor) >= bound)",
           _t("test_certificate_tail_covers_exactly_at_the_floor")),
    Mutant("collision-eps-zero", "a point within COLLISION_EPS of a puncture is rejected",
           INVARIANTS, "COLLISION_EPS = 1e-14", "COLLISION_EPS = 0.0",
           ("tests/test_invariants.py::test_query_on_puncture_rejected",)
           + _t("test_collisions_at_the_end_of_the_head")),
    Mutant("listing-tie-made-strict", "a listing's tail constant covers a minimum it ties",
           INVARIANTS, "return count, m, (m > anchor) & (radial_separation_bound(m, anchor) >= bound)",
           "return count, m, (m > anchor) & (radial_separation_bound(m, anchor) > bound)",
           _t("test_value_tail_constant_covers_exactly_at_a_tie")),
    Mutant("oracle-last-partial-block-dropped", "an oracle's block walk covers its whole grid",
           VERIFICATION, "for start in range(0, rows, step):",
           "for start in range(0, rows - step + 1, step):",
           ("tests/test_oracles.py::test_closed_disk_oracle_is_bitwise_the_full_grid_minimum",
            "tests/test_oracles.py::test_boundary_oracle_is_bitwise_the_full_grid_minimum")),
    Mutant("oracle-block-offset-off-by-one", "each block starts at the row after the last block's",
           VERIFICATION, "np.arange(start, stop)", "np.arange(start + 1, stop + 1)",
           ("tests/test_oracles.py::test_closed_disk_oracle_is_bitwise_the_full_grid_minimum",
            "tests/test_oracles.py::test_boundary_oracle_is_bitwise_the_full_grid_minimum")),
    Mutant("prefix-sliced-one-short", "the truncation suite's brute force covers its whole range",
           VERIFICATION, "(p[:count] for p in prefix)", "(p[:count - 1] for p in prefix)",
           ("tests/test_verification.py::test_prefix_infimum_is_the_brute_force_at_every_count",)),
    Mutant("dekker-error-terms-dropped", "each 1 - |x|^2 takes the exact rounding errors of its squares",
           HYPERBOLIC, "return (t - yy) + (((1.0 - t) - xx - ex) - ey)", "return (t - yy) + ((1.0 - t) - xx)",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", "test_defect_is_within_its_bound",
              path=KERNEL)),
    Mutant("fast2sum-error-dropped", "1 - x^2 is split into a float and its exact rounding error",
           HYPERBOLIC, "return (t - yy) + (((1.0 - t) - xx - ex) - ey)", "return (t - yy) - (ex + ey)",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", "test_defect_is_within_its_bound",
              path=KERNEL)),
    Mutant("smaller-square-first", "the subtractions from 1 are exact near the boundary",
           HYPERBOLIC, "return (t - yy) + (((1.0 - t) - xx - ex) - ey)",
           "return ((1.0 - min(xx, yy)) - max(xx, yy)) - (ex + ey)",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", "test_defect_is_within_its_bound",
              path=KERNEL)),
    Mutant("larger-square-first-alone", "subtracting the larger square first is exact only off the diagonal",
           HYPERBOLIC, "return (t - yy) + (((1.0 - t) - xx - ex) - ey)",
           "return ((1.0 - max(xx, yy)) - min(xx, yy)) - (ex + ey)",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", "test_defect_is_within_its_bound",
              path=KERNEL)),
    Mutant("scale-dropped", "|a - z| is formed scaled, so its square stays normal down to 2^-1021",
           HYPERBOLIC, "_SCALE = 2.0**510", "_SCALE = 1.0",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", path=KERNEL)),
    Mutant("underflow-rescue-dropped", "distinct points whose scaled squares underflow stay apart",
           HYPERBOLIC, "return sqrt(d) / sqrt(e) if d else _underflowed(dr, di, sqrt(e), sqrt)",
           "return sqrt(d) / sqrt(e)",
           _t("test_distinct_points_are_apart", path=KERNEL)),
    Mutant("underflow-rescue-dropped-in-arrays", "the array form rescues underflowed squares as the float form does",
           HYPERBOLIC, "if not d.all():  # a square underflowed to 0",
           "if False:  # a square underflowed to 0",
           _t("test_distinct_points_are_apart", path=KERNEL)),
    Mutant("quotient-below-normal", "below rho = 2^-511 rho^2 would lose bits, and the kernel takes two square roots",
           HYPERBOLIC, "_NORMAL = 2.0**-1022", "_NORMAL = 5e-324",
           _t("test_kernel_is_within_its_bound_of_the_exact_distance", path=KERNEL)),
    Mutant("quotient-below-normal-in-arrays", "the array form takes two square roots below rho = 2^-511 as the float form does",
           HYPERBOLIC, "rho[low] = sqrt(d[low]) / sqrt(e[low])", "rho[low] = sqrt(q[low])",
           _t("test_distinct_points_are_apart", path=KERNEL)),
    # the two block floors below are worst-case rounding and refinement bounds;
    # no bracket against a finer minimum comes near them, so only the pinned
    # bytes of verify --suite all, which prints mesh errors, kill their mutants
    Mutant("circle-floor-halved", "a circle minimum's error covers its rounding (43 eps/kappa); "
           "killed by a byte pin",
           BLOCK_MINIMA, "_CIRCLE_FLOOR = 64.0 * _EPS", "_CIRCLE_FLOOR = 32.0 * _EPS",
           ("tests/test_verification.py::test_verify_all_output_is_pinned",)),
    Mutant("ball-gap-halved", "a ball block's error is its whole branch-and-bound gap; killed by a byte pin",
           BLOCK_MINIMA, "return best, max(gap, _MESH_FLOOR)", "return best, max(gap / 2, _MESH_FLOOR)",
           ("tests/test_verification.py::test_verify_all_output_is_pinned",)),
    Mutant("block-tails-one-late", "block n's boundary minimum is tested against the tail beyond block n",
           BLOCK_MINIMA, "map(family.tail_inner_modulus, itertools.count(1))",
           "map(family.tail_inner_modulus, itertools.count(2))",
           _t("test_random_points_match_the_reference_loop", path=BLOCK_LOOP)),
    Mutant("block-bracket-one-short", "the lower bracket runs over every block the scan read",
           BLOCK_MINIMA, "mesh_error = max(scan.best - min(lows), _MESH_FLOOR)",
           "mesh_error = max(scan.best - min(lows[:-1], default=scan.best), _MESH_FLOOR)",
           _t("test_random_points_match_the_reference_loop", path=BLOCK_LOOP)),
    Mutant("family-outside-check-dropped", "a family point inside a block it reaches is rejected",
           BLOCK_MINIMA, "        if domain.family is not None:\n            _require_outside_block(domain, z, block, k)\n", "",
           _t("test_family_point_inside_a_later_block_exits_there", path=BLOCK_LOOP)),
    Mutant("faces-runner-up-never-updated", "a block's largest disk lower end takes the runner-up on its own face",
           BLOCK_MINIMA, "            low_top, low_second, low_at_top = d, low_top, low\n"
           "        elif d > low_second:\n            low_second = d\n",
           "            low_top, low_at_top = d, low\n",
           _t("test_one_pass_faces_are_bitwise_the_face_loop", path=BLOCK_FACES)),
    Mutant("faces-top-on-its-own-face", "face k of the largest disk lower end D_k omits D_k",
           BLOCK_MINIMA, "face_k = low_second if low_second > low_at_top else low_at_top",
           "face_k = low_top if low_top > low_at_top else low_at_top",
           _t("test_one_pass_faces_are_bitwise_the_face_loop", path=BLOCK_FACES)),
    Mutant("faces-lows-from-the-values-top", "the lower ends' least face takes their own largest disk lower end",
           BLOCK_MINIMA, "face_least = low_top if low_top > low_least else low_least",
           "face_least = top if top > low_least else low_least",
           _t("test_one_pass_faces_are_bitwise_the_face_loop", path=BLOCK_FACES)),
    Mutant("faces-value-without-disk-minima", "a block's value is at least the circle minimum of a coordinate outside its disk",
           BLOCK_MINIMA, "best_v = top if top > least else least", "best_v = least",
           _t("test_one_pass_faces_are_bitwise_the_face_loop", path=BLOCK_FACES)),
    Mutant("profile-low-from-the-value", "a radius profile's lower end is the largest v - e, not the largest v",
           BLOCK_MINIMA, "            v -= e\n            if v > low:\n", "            if v > low:\n",
           _t("test_one_pass_profiles_are_bitwise_the_reference", path=BLOCK_FACES)),
    Mutant("child-centre-from-the-parent", "a child box's centre is its own, not its parent's",
           BLOCK_MINIMA, "child_centre = c_before + (c,) + c_after", "child_centre = centre",
           _t("test_one_pass_profiles_are_bitwise_the_reference", path=BLOCK_FACES)),
    Mutant("split-on-the-narrowest-axis", "a ball box splits on its first widest axis",
           BLOCK_MINIMA, "k = half.index(max(half))", "k = half.index(min(half))",
           _t("test_one_pass_profiles_are_bitwise_the_reference", path=BLOCK_FACES)),
    Mutant("circle-value-clamp-dropped", "a circle minimum's value m + f is at most 1.0",
           BLOCK_MINIMA, "return (1.0 if 1.0 < value else value), 2.0 * floor", "return value, 2.0 * floor",
           _t("test_conditional_clamps_are_bitwise_the_builtins", path=CIRCLE_MIN)),
    # 64 eps/kappa exceeds _MESH_FLOOR for every kappa in (0, 1]: only the
    # reference comparison at kappa < 0 (a circle no block reaches) kills it
    Mutant("circle-floor-clamp-dropped", "a circle minimum's floor is at least _MESH_FLOOR",
           BLOCK_MINIMA, "    if _MESH_FLOOR > floor:\n        floor = _MESH_FLOOR\n", "",
           _t("test_conditional_clamps_are_bitwise_the_builtins", path=CIRCLE_MIN)),
    Mutant("point-margin-not-strict", "a coordinate of modulus 1 - INTERIOR_MARGIN is boundary-adjacent",
           HYPERBOLIC, "if not all(abs(z) < 1.0 - INTERIOR_MARGIN for z in zs):",
           "if not all(abs(z) <= 1.0 - INTERIOR_MARGIN for z in zs):",
           _t("test_polydisk_point_messages", path=BLOCK_FACES)),
    Mutant("cell-defect-shared-by-group", "each grid cell takes its own 1 - |z|^2",
           CHUNK_SCAN, "run = _kernel(cr[g], ci[g], cp[g], ar[:, None], ai[:, None], pa[:, None], np.sqrt)",
           "run = _kernel(cr[g], ci[g], cp[g[:1]], ar[:, None], ai[:, None], pa[:, None], np.sqrt)",
           _t("test_every_grid_row_is_the_per_point_evaluation", path=KERNEL)),
    Mutant("grid-collision-dropped", "a grid cell on a puncture it reaches has no value",
           CHUNK_SCAN, "collided = b < COLLISION_EPS", "collided = b < 0.0",
           _t("test_cells_on_punctures_collide", path=GRID_LOOP)),
    Mutant("grid-best-not-folded", "a grid cell's running minimum spans its earlier chunks",
           CHUNK_SCAN, "np.minimum(run[0], best[g], out=run[0])", "pass",
           _t("test_random_rectangles_match_the_reference_loop", path=GRID_LOOP)),
    Mutant("grid-stop-row-one-late", "a grid cell's value is its running minimum at its stop",
           CHUNK_SCAN, "best[g] = b = run[last, cols]", "best[g] = b = run[np.minimum(last + 1, size - 1), cols]",
           _t("test_a_puncture_after_the_stop_is_no_collision", path=GRID_LOOP)),
    Mutant("polydisk-constant-modulus", "a polydisk family's other coordinates are at rho(z_j, 0j), in numpy",
           CHUNK_SCAN, "return np.maximum(dist, max(rho(c, 0j) for c in rest)) if rest else dist",
           "return np.maximum(dist, max(map(abs, rest))) if rest else dist",
           _t("test_polydisk_family_distances_are_rho_max", path=KERNEL)),
    Mutant("polydisk-constant-modulus-scalar",
           "a polydisk family's other coordinates are at rho(z_j, 0j), in scalar",
           INVARIANTS, "dist, rest = rho_from(z[0]), max((rho(c, 0j) for c in z[1:]), default=0.0)",
           "dist, rest = rho_from(z[0]), max(map(abs, z[1:]), default=0.0)",
           _t("test_polydisk_constant_coordinates_are_rho_max_on_the_embedded_point", path=BATCHES)
           + _t("test_polydisk_family_distances_are_rho_max", path=KERNEL)),
    Mutant("puncture-index-from-0", "an int index below 1 meets the index guard, not a family's law",
           DOMAINS, 'or k < 1:\n            k = _index("puncture index"', 'or k < 0:\n            k = _index("puncture index"',
           _t("test_puncture_index_not_a_number", path=GUARDS)),
    Mutant("unit-interval-takes-0", "a (0, 1) parameter excludes 0",
           DOMAINS, "0.0 < x < 1.0", "0.0 <= x < 1.0",
           _t("test_range_checks_print_other_values", path=GUARDS)),
    Mutant("complex-taken-as-real", "a numpy complex scalar, which numpy orders, meets the real-number guards",
           DOMAINS, "return isinstance(value, numbers.Real) or not isinstance(value, numbers.Complex)",
           "return True",
           _t("test_record_fields_that_are_not_numbers_are_domain_errors", path=GUARDS)),
    Mutant("count-limit-exclusive", "a count may equal its limit",
           DOMAINS, "value > limit", "value >= limit",
           _t("test_one_coordinate_polydisk_oracle_is_its_circle", path=ORACLES)),
    Mutant("brute-force-any-domain", "the brute force refuses a domain without punctures",
           VERIFICATION, "if not isinstance(domain, (FinitePunctures, SequencePunctures, PolySequencePunctures)):",
           "if False:",
           _t("test_evaluators_reject_other_domains", path=GUARDS)),
    Mutant("brute-force-point-unchecked", "the brute force refuses a planar point that the evaluators refuse",
           VERIFICATION, "z = require_interior_point(z)", "pass",
           _t("test_oracles_refuse_points_the_evaluators_refuse", path=GUARDS)),
    Mutant("brute-force-poly-point-unchecked", "the brute force refuses a polydisk point that the evaluators refuse",
           VERIFICATION, "z = require_interior_polydisk_point(z, domain.n)", "z = tuple(z)",
           _t("test_oracles_refuse_points_the_evaluators_refuse", path=GUARDS)),
    Mutant("oracle-any-block", "the boundary oracle refuses what is not a block",
           VERIFICATION, "if not isinstance(block, Block):", "if False:",
           _t("test_evaluators_reject_other_domains", path=GUARDS)),
    Mutant("oracle-point-unchecked", "the boundary oracle refuses a point that the evaluators refuse",
           VERIFICATION, "    z = require_interior_polydisk_point(z, n)\n", "",
           _t("test_oracles_refuse_points_the_evaluators_refuse", path=GUARDS)),
    Mutant("product-point-not-a-sequence", "a product point that is not a sequence is a PointError",
           INVARIANTS, '_sequence(z, "product point", f"{n} factors")', "z",
           _t("test_product_point_and_factors_are_sequences", path=GUARDS)),
    Mutant("product-factor-not-a-sequence", "a product factor that is not a sequence is a PointError",
           INVARIANTS, '_sequence(f, what, f"{n} numbers")', "f",
           _t("test_product_point_and_factors_are_sequences", path=GUARDS)),
    Mutant("record-assignment-allowed", "a record's fields cannot be reassigned",
           HYPERBOLIC, 'raise AttributeError(f"cannot assign to field {name!r}")',
           "object.__setattr__(self, name, value)",
           _t("test_assignment_raises", path=RECORDS)),
    Mutant("record-eq-skips-last-field", "records are equal only when every field is",
           HYPERBOLIC, "return self._key() == other._key()", "return self._key()[:-1] == other._key()[:-1]",
           _t("test_equality_and_hash_follow_every_field", path=RECORDS)),
    Mutant("record-repr-drops-a-field", "a record's repr shows every field, as the dataclass repr did",
           HYPERBOLIC, '!r}" for name in self._fields])', '!r}" for name in self._fields[:-1]])',
           _t("test_construction_by_position_keyword_and_default", path=RECORDS)),
    Mutant("record-repr-reorders-fields", "a record's repr shows the fields in declaration order",
           HYPERBOLIC, '!r}" for name in self._fields])', '!r}" for name in reversed(self._fields)])',
           _t("test_construction_by_position_keyword_and_default", path=RECORDS)),
    Mutant("record-default-not-applied", "an omitted field takes its declared default",
           HYPERBOLIC, "else self._defaults[f] for f in fields]", "else None for f in fields]",
           _t("test_construction_by_position_keyword_and_default", path=RECORDS)),
)


def matches() -> dict:
    """How often each mutant's old text occurs in its file."""
    return {m.name: (ROOT / m.path).read_text(encoding="utf-8").count(m.old) for m in MUTANTS}


# pytest's exit codes: 0 all passed, 1 some test failed; any other code (an
# import or collection error, a node id not found) kills no mutant
OUTCOMES = {0: "SURVIVED", 1: "killed"}


def _pytest(copy: Path, tests) -> tuple[str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return OUTCOMES.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})"), time.perf_counter() - t0


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    bad = {name: n for name, n in matches().items() if n != 1}
    if bad:
        for name, n in bad.items():
            print(f"{name}: old text matches {n} times, expected once")
        return 1

    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")
        tests = sorted({t for m in MUTANTS for t in m.tests})
        outcome, seconds = _pytest(copy, tests)
        print(f"unmutated: {'pass' if outcome == 'SURVIVED' else outcome} ({seconds:.1f} s)")
        if outcome != "SURVIVED":
            return 1
        killed = 0
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                outcome, seconds = _pytest(copy, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{m.name}: {outcome} ({seconds:.1f} s)  [{m.breaks}]")
            killed += outcome == "killed"
    print(f"{killed}/{len(MUTANTS)} killed in {time.perf_counter() - t0:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
