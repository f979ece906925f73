"""The record classes behave as the frozen dataclasses they replaced: reprs,
equality and hashes over every field, no assignment, construction by
position, keyword and default, and the JSON of verification reports.  The
pinned texts were taken from the dataclass implementation."""

import dataclasses
import re

import pytest

from squeezefn.cli import GridJob
from squeezefn.domains import (
    Annulus,
    Block,
    BoundaryOrbitFamily,
    FinitePunctures,
    PolySequencePunctures,
    ProductOfBalls,
    RadialBlockFamily,
    RadialFamily,
    RemovedBalls,
    RemovedPolydisks,
    SequencePunctures,
)
from squeezefn.hyperbolic import MobiusMap, Record
from squeezefn.invariants import InvariantValue, VerificationOutcome
from squeezefn.verification import VerificationReport, reports_to_json

BLOCK = Block((0.5 + 0j, 0j), 0.25)
BLOCK_REPR = "Block(center=((0.5+0j), 0j), radius=0.25)"
RADIAL = RadialFamily(0.5, 1.0)
BLOCK_FAMILY = RadialBlockFamily(0.5, 1.0, 0.25)
POINTS = (0.5 + 0j, 0.5j)

# (class, every field's value in order, its repr, keyword arguments that
# leave some fields at their defaults or None, that record's repr)
RECORDS = [
    (MobiusMap, ((0.25 + 0.5j), 1.5), "MobiusMap(center=(0.25+0.5j), rotation=1.5)",
     {}, "MobiusMap(center=0j, rotation=0.0)"),
    (RadialFamily, (0.5, 1.0), "RadialFamily(q=0.5, theta=1.0)", None, None),
    (BoundaryOrbitFamily, (0.5, 2.0, 2.3), "BoundaryOrbitFamily(c=0.5, p=2.0, theta=2.3)", None, None),
    (RadialBlockFamily, (0.5, 1.0, 0.25), "RadialBlockFamily(q=0.5, theta=1.0, r0=0.25)", None, None),
    (FinitePunctures, (POINTS,), "FinitePunctures(punctures=((0.5+0j), 0.5j))", None, None),
    (SequencePunctures, (POINTS, None, 0.9),
     "SequencePunctures(prefix=((0.5+0j), 0.5j), family=None, tail_constant=0.9)",
     {"family": RADIAL},
     "SequencePunctures(prefix=(), family=RadialFamily(q=0.5, theta=1.0), tail_constant=None)"),
    (PolySequencePunctures, (2, ((0.5 + 0j, 0j),), None, 0.9),
     "PolySequencePunctures(n=2, prefix=(((0.5+0j), 0j),), family=None, tail_constant=0.9)",
     {"n": 2, "family": RADIAL},
     "PolySequencePunctures(n=2, prefix=(), family=RadialFamily(q=0.5, theta=1.0), tail_constant=None)"),
    (Block, ((0.5 + 0j, 0j), 0.25), BLOCK_REPR, None, None),
    (RemovedPolydisks, (2, (BLOCK,), None), f"RemovedPolydisks(n=2, blocks=({BLOCK_REPR},), family=None)",
     {"n": 2, "family": BLOCK_FAMILY},
     "RemovedPolydisks(n=2, blocks=(), family=RadialBlockFamily(q=0.5, theta=1.0, r0=0.25))"),
    (RemovedBalls, (2, (BLOCK,), None), f"RemovedBalls(n=2, blocks=({BLOCK_REPR},), family=None)",
     {"n": 2, "family": BLOCK_FAMILY},
     "RemovedBalls(n=2, blocks=(), family=RadialBlockFamily(q=0.5, theta=1.0, r0=0.25))"),
    (Annulus, (0.25,), "Annulus(inner_radius=0.25)", None, None),
    (ProductOfBalls, (2,), "ProductOfBalls(n=2)", None, None),
    (InvariantValue, (0.5, 3, 0.9, 0.001, 2),
     "InvariantValue(value=0.5, truncation_index=3, tail_bound_used=0.9, mesh_error=0.001, attained_index=2)",
     {"value": 0.5},
     "InvariantValue(value=0.5, truncation_index=0, tail_bound_used=0.0, mesh_error=0.0, attained_index=0)"),
    (VerificationOutcome, (True, (0.5,), 3, "x"),
     "VerificationOutcome(passed=True, observed=(0.5,), violating_index=3, details='x')",
     {"passed": False}, "VerificationOutcome(passed=False, observed=(), violating_index=None, details='')"),
    (GridJob, (Annulus(0.25), (-0.5, 0.5, -0.5, 0.5), (3, 2), "squeezing"),
     "GridJob(domain=Annulus(inner_radius=0.25), rect=(-0.5, 0.5, -0.5, 0.5), resolution=(3, 2), "
     "invariant='squeezing')", None, None),
    (VerificationReport, ("c", True, 0.5, 0.5, 0.0, "d"),
     "VerificationReport(check_name='c', passed=True, observed=0.5, expected=0.5, tolerance=0.0, details='d')",
     {"check_name": "c", "passed": False, "observed": 0.5, "expected": 0.25, "tolerance": 0.0},
     "VerificationReport(check_name='c', passed=False, observed=0.5, expected=0.25, tolerance=0.0, details='')"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_every_record_class_is_covered():
    assert len(RECORDS) == 16
    assert all(issubclass(cls, Record) for cls, *_ in RECORDS)


def field_names(text: str) -> list[str]:
    """The field names of a pinned repr, in order: the name before each '='
    at the top level of its parentheses."""
    names, depth = [], 0
    for i, ch in enumerate(text):
        depth += (ch in "([") - (ch in ")]")
        if ch == "=" and depth == 1:
            names.append(re.search(r"\w+$", text[:i]).group())
    return names


@pytest.mark.parametrize("cls, values, expected, partial, expected_partial", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_default(cls, values, expected, partial, expected_partial):
    by_position = cls(*values)
    assert repr(by_position) == expected
    names = field_names(expected)
    assert len(names) == len(values)
    by_keyword = cls(**dict(zip(names, values)))
    assert repr(by_keyword) == expected and by_keyword == by_position
    if partial is not None:
        assert repr(cls(**partial)) == expected_partial


@pytest.mark.parametrize("cls, values, expected, partial, expected_partial", RECORDS, ids=IDS)
def test_equality_and_hash_follow_every_field(cls, values, expected, partial, expected_partial):
    record = cls(*values)
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    for name in field_names(expected):
        other = cls.__new__(cls)
        other.__dict__.update(vars(record))
        object.__setattr__(other, name, object())
        assert record != other and other != record, name
        assert hash(record) != hash(other), name


@pytest.mark.parametrize("cls, values, expected, partial, expected_partial", RECORDS, ids=IDS)
def test_assignment_raises(cls, values, expected, partial, expected_partial):
    record = cls(*values)
    for name in field_names(expected) + ["other"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == expected


def test_records_of_different_classes_are_unequal():
    finite, listed = FinitePunctures(POINTS), SequencePunctures(prefix=POINTS)
    assert finite != listed and listed != finite
    assert not finite == listed
    assert RadialFamily(0.5, 1.0) != RadialBlockFamily(0.5, 1.0, 0.25)


@pytest.mark.parametrize("call, message", [
    (lambda: Annulus(), "Annulus() missing required arguments: 'inner_radius'"),
    (lambda: Annulus(0.25, 0.5), "Annulus() takes 1 positional arguments but 2 were given"),
    (lambda: Annulus(r=0.25), "Annulus() got an unexpected keyword argument 'r'"),
    (lambda: RadialFamily(0.5, q=0.5), "RadialFamily() got multiple values for argument 'q'"),
], ids=["missing", "too-many", "unknown-keyword", "twice"])
def test_calls_that_do_not_match_the_fields_are_type_errors(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_reports_to_json_is_what_asdict_gave():
    reports = [VerificationReport("c", True, 0.5, 0.5, 0.0, "d"),
               VerificationReport("e", False, 0.25, 2 / 7, 1e-12)]
    expected = [
        {"check_name": "c", "passed": True, "observed": 0.5, "expected": 0.5, "tolerance": 0.0, "details": "d"},
        {"check_name": "e", "passed": False, "observed": 0.25, "expected": 0.2857142857142857,
         "tolerance": 1e-12, "details": ""},
    ]
    got = reports_to_json(reports)
    assert got == expected and [list(r) for r in got] == [list(r) for r in expected]
    assert got == [dataclasses.asdict(r) for r in reports]


def test_dataclasses_functions_take_records():
    # perfbench's self-test builds wrong results with dataclasses.replace
    value = InvariantValue(0.5, truncation_index=3)
    assert dataclasses.is_dataclass(value)
    assert [f.name for f in dataclasses.fields(value)] == [
        "value", "truncation_index", "tail_bound_used", "mesh_error", "attained_index"]
    assert dataclasses.replace(value, value=0.25) == InvariantValue(0.25, truncation_index=3)
    assert dataclasses.replace(VerificationOutcome(True), passed=False) == VerificationOutcome(False)
