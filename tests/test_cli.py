import json

import pytest

from squeezefn.cli import MAX_GRID_CELLS, GridJob, main
from squeezefn.domains import MAX_DIMENSION, DomainError, FinitePunctures, parse_domain_spec
from squeezefn.hyperbolic import rho
from squeezefn.verification import MAX_ORACLE_SAMPLES, MAX_TRIALS, MIN_ORACLE_SAMPLES


@pytest.fixture
def domain_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)
    return write


FINITE2 = {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]}
RADIAL = {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0}
ANNULUS = {"kind": "annulus", "r": 0.25}


# --- eval -------------------------------------------------------------------

def test_eval_finite_pair(domain_file, capsys):
    path = domain_file("finite2.json", FINITE2)
    assert main(["eval", "--domain", path, "--point", "0,0",
                 "--invariant", "squeezing"]) == 0
    out = capsys.readouterr().out
    assert "value 0.5\n" in out
    assert "truncation_index 0\n" in out


def test_eval_radial_fridman(domain_file, capsys):
    path = domain_file("radial.json", RADIAL)
    assert main(["eval", "--domain", path, "--point", "0,0",
                 "--invariant", "fridman-c"]) == 0
    out = capsys.readouterr().out
    assert "value 0.5\n" in out
    assert "tail_bound_used 0.75\n" in out


def test_eval_boundary_adjacent_point_exits_3(domain_file, capsys):
    path = domain_file("radial.json", RADIAL)
    assert main(["eval", "--domain", path, "--point",
                 "0.99999999999999,0"]) == 3
    assert "boundary-adjacent" in capsys.readouterr().err


def test_eval_puncture_point_exits_3(domain_file, capsys):
    path = domain_file("finite2.json", FINITE2)
    assert main(["eval", "--domain", path, "--point", "0.5,0"]) == 3


def test_eval_bad_domain_exits_2(domain_file, capsys):
    path = domain_file("bad.json", {"kind": "nosuch"})
    assert main(["eval", "--domain", path, "--point", "0,0"]) == 2
    assert main(["eval", "--domain", str(path) + ".missing",
                 "--point", "0,0"]) == 2


def test_eval_malformed_point_exits_2(domain_file):
    path = domain_file("finite2.json", FINITE2)
    assert main(["eval", "--domain", path, "--point", "zzz"]) == 2


def test_eval_wrong_invariant_for_domain_exits_2(domain_file):
    path = domain_file("finite2.json", FINITE2)
    assert main(["eval", "--domain", path, "--point", "0,0",
                 "--invariant", "polydisk-squeezing"]) == 2


def test_eval_poly_and_product_domains(domain_file, capsys):
    poly = domain_file("poly.json", {"kind": "poly_sequence", "n": 2,
                                     "family": "radial", "q": 0.5, "theta": 1.0})
    assert main(["eval", "--domain", poly, "--point", "0,0;0,0",
                 "--invariant", "polydisk-squeezing"]) == 0
    assert "value 0.5\n" in capsys.readouterr().out
    prod = domain_file("prod.json", {"kind": "product_of_balls", "n": 4})
    assert main(["eval", "--domain", prod, "--point",
                 ";".join(["0,0"] * 16), "--invariant", "squeezing"]) == 0
    assert "value 0.5\n" in capsys.readouterr().out
    assert main(["eval", "--domain", prod, "--point",
                 ";".join(["0,0"] * 16), "--invariant", "t-lower-bound"]) == 0
    assert "value 0.5\n" in capsys.readouterr().out


def test_eval_annulus(domain_file, capsys):
    path = domain_file("ann.json", {"kind": "annulus", "r": 0.25})
    assert main(["eval", "--domain", path, "--point", "0.5,0"]) == 0
    assert "value 0.5\n" in capsys.readouterr().out
    assert main(["eval", "--domain", path, "--point", "0.1,0"]) == 3


def test_eval_uncertified_point_exits_5(domain_file, capsys):
    # |z| = 0.999999 on the p = 1 orbit needs more than the 200000-puncture cap
    path = domain_file("orbit.json", {"kind": "sequence", "family": "boundary_orbit",
                                      "c": 0.5, "p": 1.0, "theta": 2.3})
    assert main(["eval", "--domain", path, "--point=-0.999999,0"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--point", "0,0"])  # missing --domain
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


NAN_POINT_DOMAINS = [
    ("finite", FINITE2, "nan,0", "squeezing"),
    ("sequence", {"kind": "sequence", "family": "boundary_orbit",
                  "c": 0.5, "p": 1.0, "theta": 2.3}, "nan,0", "squeezing"),
    ("annulus", {"kind": "annulus", "r": 0.25}, "0.5,nan", "squeezing"),
    ("removed_block", {"kind": "removed_balls", "n": 2,
                       "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]},
     "nan,0;0,0", "polydisk-squeezing"),
    ("poly_sequence", {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5,
                       "theta": 1.0}, "0,0;nan,nan", "polydisk-squeezing"),
    ("product_of_balls", {"kind": "product_of_balls", "n": 2}, "nan,0;0,0;0,0;0,0",
     "squeezing"),
]


@pytest.mark.parametrize("name, doc, point, invariant", NAN_POINT_DOMAINS,
                         ids=[case[0] for case in NAN_POINT_DOMAINS])
def test_eval_nan_point_exits_3(domain_file, capsys, name, doc, point, invariant):
    path = domain_file(f"{name}.json", doc)
    assert main(["eval", "--domain", path, f"--point={point}", "--invariant", invariant]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


POLYDISK_POINT_DOMAINS = [
    ("removed_polydisks", {"kind": "removed_polydisks", "n": 2,
                           "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]}),
    ("removed_balls", {"kind": "removed_balls", "n": 2,
                       "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]}),
    ("poly_sequence", {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5,
                       "theta": 1.0}),
]


@pytest.mark.parametrize("name, doc", POLYDISK_POINT_DOMAINS,
                         ids=[case[0] for case in POLYDISK_POINT_DOMAINS])
def test_eval_wrong_coordinate_count_exits_2(domain_file, capsys, name, doc):
    # a malformed --point is a usage error, as on product_of_balls, not a
    # point outside the domain
    path = domain_file(f"{name}.json", doc)
    for point, count in (("0.5,0;0,0;0,0", 3), ("0.5,0", 1)):
        assert main(["eval", "--domain", path, f"--point={point}",
                     "--invariant", "polydisk-squeezing"]) == 2
        assert capsys.readouterr().err == f"error: point has {count} coordinates, expected 2\n"
    assert main(["eval", "--domain", path, "--point=0.5,0;0,0",
                 "--invariant", "polydisk-squeezing"]) == 0


def test_eval_product_wrong_coordinate_count_exits_2(domain_file, capsys):
    # a product point lists n*n planar coordinates
    path = domain_file("prod.json", {"kind": "product_of_balls", "n": 2})
    for point, count in (("0,0;0,0;0,0", 3), (";".join(["0,0"] * 5), 5)):
        assert main(["eval", "--domain", path, f"--point={point}",
                     "--invariant", "squeezing"]) == 2
        assert capsys.readouterr().err == f"error: point has {count} coordinates, expected 4\n"


RADIAL_BLOCKS = {"family": "radial", "q": 0.5, "theta": 1.0, "r0": 0.25}
BALL = {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}
EVAL = ["eval", "--point", "0,0"]
GRID = ["grid", "--rect=-0.5,0.5,-0.5,0.5", "--res=2,2", "--output=out.csv"]
PARSE_AND_ARGUMENT_ERRORS = [
    ("orbit_c_above_range", {"kind": "sequence", "family": "boundary_orbit", "c": 1.0,
                             "p": 1.0, "theta": 2.3}, EVAL,
     "boundary_orbit family: c must be in (0, 1), got 1.0"),
    ("orbit_c_zero", {"kind": "sequence", "family": "boundary_orbit", "c": 0.0,
                      "p": 1.0, "theta": 2.3}, EVAL,
     "boundary_orbit family: c must be in (0, 1), got 0.0"),
    ("orbit_p_zero", {"kind": "sequence", "family": "boundary_orbit", "c": 0.5,
                      "p": 0.0, "theta": 2.3}, EVAL,
     "boundary_orbit family: p must be positive, got 0.0"),
    ("orbit_p_overflows", {"kind": "sequence", "family": "boundary_orbit", "c": 0.5,
                           "p": 52.0, "theta": 2.3}, EVAL,
     "boundary_orbit family: k**p overflows at k = 1000001, got p=52.0"),
    ("poly_family_n0", {"kind": "poly_sequence", "n": 0, "family": "radial", "q": 0.5,
                        "theta": 1.0}, EVAL,
     "poly_sequence: dimension must be an integer >= 1, got 0"),
    ("poly_listing_n0", {"kind": "poly_sequence", "n": 0, "points": [[[0.5, 0.0]]]}, EVAL,
     "poly_sequence: dimension must be an integer >= 1, got 0"),
    ("block_family_n1", {"kind": "removed_balls", "n": 1, **RADIAL_BLOCKS}, EVAL,
     "removed_balls: dimension must be an integer >= 2, got 1"),
    ("block_family_r0_one", {"kind": "removed_polydisks", "n": 2, **RADIAL_BLOCKS, "r0": 1.0},
     EVAL, "block family: r0 must be in (0, 1), got 1.0"),
    ("block_family_r0_zero", {"kind": "removed_balls", "n": 2, **RADIAL_BLOCKS, "r0": 0.0},
     EVAL, "block family: r0 must be in (0, 1), got 0.0"),
    ("poly_listing_empty", {"kind": "poly_sequence", "n": 2, "points": []}, EVAL,
     "poly_sequence.points: expected a nonempty list"),
    ("block_centre_count", {"kind": "removed_balls", "n": 2,
                            "blocks": [{"center": [[0.0, 0.0]], "radius": 0.25}]}, EVAL,
     "removed_balls: block 0 center has 1 coordinates, expected 2"),
    ("point_one_number", {"kind": "finite_punctures", "points": [[0.5]]}, EVAL,
     "points[0]: expected [re, im], got [0.5]"),
    ("blocks_missing", {"kind": "removed_balls", "n": 2}, EVAL,
     "removed_balls: missing or empty 'blocks'"),
    ("block_not_object", {"kind": "removed_polydisks", "n": 2, "blocks": [[0.0, 0.25]]}, EVAL,
     "removed_polydisks.blocks[0]: expected {center, radius}"),
    ("block_extra_field", {"kind": "removed_balls", "n": 2, "blocks": [{**BALL, "colour": 1}]},
     EVAL, "removed_balls.blocks[0]: unexpected fields ['colour']"),
    ("document_list", [ANNULUS], EVAL, "domain document must be an object, got list"),
    ("kind_not_string", {"kind": 3}, EVAL, "unknown domain kind 3"),
    ("product_without_n", {"kind": "product_of_balls"}, EVAL, "product_of_balls: missing 'n'"),
    ("point_not_numbers", RADIAL, ["eval", "--point=a,b"],
     "point 'a,b': could not convert string to float: 'a'"),
    ("compare_annulus", ANNULUS, ["compare", "--point=0.5,0"],
     "compare applies to punctured disks, not Annulus"),
    ("grid_rect_three_numbers", RADIAL, [*GRID, "--rect=1,2,3"],
     "--rect needs four numbers 'a,b,c,d', got '1,2,3'"),
    ("grid_res_one_number", RADIAL, [*GRID, "--res=2"],
     "--res needs two integers 'nx,ny', got '2'"),
    ("grid_res_three_numbers", RADIAL, [*GRID, "--res=2,3,4"],
     "--res needs two integers 'nx,ny', got '2,3,4'"),
    ("grid_res_not_integers", RADIAL, [*GRID, "--res=2.5,3"],
     "--res needs two integers 'nx,ny', got '2.5,3'"),
    ("grid_rect_not_numbers", RADIAL, [*GRID, "--rect=a,0,0,1"],
     "--rect needs four numbers 'a,b,c,d', got 'a,0,0,1'"),
]


@pytest.mark.parametrize("name, doc, args, message", PARSE_AND_ARGUMENT_ERRORS,
                         ids=[case[0] for case in PARSE_AND_ARGUMENT_ERRORS])
def test_parse_and_argument_errors_exit_2(domain_file, tmp_path, monkeypatch, capsys,
                                          name, doc, args, message):
    monkeypatch.chdir(tmp_path)
    command, *rest = args
    assert main([command, "--domain", domain_file(f"{name}.json", doc), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out.csv").exists()


def test_eval_domain_with_nan_puncture_exits_2(tmp_path, capsys):
    # json accepts the NaN literal; the puncture must not be silently ignored
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "finite_punctures", "points": [[NaN, 0.0], [0.5, 0.0]]}')
    assert main(["eval", "--domain", str(path), "--point", "0,0"]) == 2
    assert "not a finite complex number" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-6"])
def test_eval_rejects_nonpositive_mesh_tol(domain_file, capsys, tol):
    path = domain_file("ball.json", {"kind": "removed_balls", "n": 2, "blocks": [
        {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]})
    assert main(["eval", "--domain", path, "--point=0.5,0;0,0",
                 "--invariant", "polydisk-squeezing", f"--mesh-tol={tol}"]) == 2
    assert "mesh tolerance must be positive" in capsys.readouterr().err


REMOVED_POLYDISKS = [
    ("listed", {"kind": "removed_polydisks", "n": 2, "blocks": [
        {"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]}, "0.5,0;0,0"),
    ("family", {"kind": "removed_polydisks", "n": 2, "family": "radial",
                "q": 0.5, "theta": 1.0, "r0": 0.25}, "0.1,0;0,0.2"),
]


@pytest.mark.parametrize("name, doc, point", REMOVED_POLYDISKS,
                         ids=[case[0] for case in REMOVED_POLYDISKS])
def test_eval_polydisk_mesh_tol_below_rounding_floor_exits_5(domain_file, capsys, name, doc, point):
    # closed-form polydisk minima carry a rounding floor of about 3e-14: a
    # tighter tolerance cannot be met and must not pass silently
    path = domain_file(f"{name}.json", doc)
    argv = ["eval", "--domain", path, f"--point={point}", "--invariant", "polydisk-squeezing"]
    assert main(argv + ["--mesh-tol=1e-13"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("mesh_error ")[1].split()[0]) <= 1e-13
    assert main(argv + ["--mesh-tol=1e-15"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the mesh tolerance 1e-15" in err


HUGE_THETA_DOMAINS = [
    ("radial", {"kind": "sequence", "family": "radial", "q": 0.5}, "0,0", "squeezing"),
    ("orbit", {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0},
     "0.999,0", "squeezing"),
    ("poly_radial", {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5},
     "0,0;0,0", "polydisk-squeezing"),
    ("block_family", {"kind": "removed_polydisks", "n": 2, "family": "radial",
                      "q": 0.5, "r0": 0.25}, "0,0;0,0", "polydisk-squeezing"),
]


@pytest.mark.parametrize("theta", [1e308, -1e303])
@pytest.mark.parametrize("name, doc, point, invariant", HUGE_THETA_DOMAINS,
                         ids=[case[0] for case in HUGE_THETA_DOMAINS])
def test_eval_family_theta_overflowing_at_large_index_exits_2(
        domain_file, capsys, name, doc, point, invariant, theta):
    # theta * k is not finite at k = 10**6: cmath.rect and math.cos would raise
    # ValueError at parse (1e308) or once an evaluation passes k = 179770
    # (-1e303, e.g. p = 1 at -0.999999, which runs to the 200000 cap)
    path = domain_file(f"{name}.json", {**doc, "theta": theta})
    assert main(["eval", "--domain", path, f"--point={point}", "--invariant", invariant]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "theta * k overflows" in err


def test_eval_family_theta_with_finite_products_evaluates(domain_file, capsys):
    # the largest accepted angles still evaluate far into the orbit
    doc = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 1e302}
    path = domain_file("orbit.json", doc)
    assert main(["eval", "--domain", path, "--point=0.999,0"]) == 0
    assert "truncation_index " in capsys.readouterr().out


def test_eval_domain_with_integer_beyond_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "annulus.json"
    path.write_text('{"kind": "annulus", "r": 1' + "0" * 400 + "}")
    assert main(["eval", "--domain", str(path), "--point", "0.5,0"]) == 2
    assert "too large to convert to float" in capsys.readouterr().err


DIMENSION_DOMAINS = [
    ("poly_sequence", {"kind": "poly_sequence", "family": "radial", "q": 0.5, "theta": 1.0}),
    ("removed_polydisks", {"kind": "removed_polydisks", "family": "radial",
                           "q": 0.5, "theta": 1.0, "r0": 0.25}),
    ("removed_balls", {"kind": "removed_balls", "family": "radial",
                       "q": 0.5, "theta": 1.0, "r0": 0.25}),
    ("product_of_balls", {"kind": "product_of_balls"}),
]


@pytest.mark.parametrize("n", [10**400, 10**8, MAX_DIMENSION + 1], ids=["401-digits", "1e8", "limit+1"])
@pytest.mark.parametrize("name, doc", DIMENSION_DOMAINS, ids=[case[0] for case in DIMENSION_DOMAINS])
def test_eval_dimension_above_limit_exits_2(domain_file, capsys, name, doc, n):
    path = domain_file(f"{name}.json", {**doc, "n": n})
    assert main(["eval", "--domain", path, "--point=0,0"]) == 2
    err = capsys.readouterr().err
    what = "n" if name == "product_of_balls" else "dimension"  # the constructor's own check
    assert err == f"error: {name}: {what} above the limit {MAX_DIMENSION}\n"


def test_parse_accepts_dimension_at_limit():
    doc = {"kind": "poly_sequence", "family": "radial", "q": 0.5, "theta": 1.0, "n": MAX_DIMENSION}
    assert parse_domain_spec(doc).n == MAX_DIMENSION


@pytest.mark.parametrize("text", [
    '{"kind": "annulus", "r": ' + "1" * 5000 + "}",   # beyond int_max_str_digits
    "[" * 100_000 + "]" * 100_000,                      # beyond the recursion limit
])
def test_eval_unreadable_json_exits_2(tmp_path, capsys, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["eval", "--domain", str(path), "--point", "0.5,0"]) == 2
    assert capsys.readouterr().err.startswith("error: domain document is not valid JSON: ")


def test_eval_domain_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["eval", "--domain", str(path), "--point", "0.5,0"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read domain file ")


@pytest.mark.parametrize("point, code", [
    ("garbage", 2),
    ("0.1,0;0,0;0,0", 2),            # three coordinates, the product needs four
    ("0.9,0;0.9,0;0,0;0,0", 3),      # first factor outside its ball
    ("nan,0;0,0;0,0;0,0", 3),
    ("0.1,0;0,0.2;0.3,0;0,0", 0),
])
def test_eval_t_lower_bound_checks_point_like_squeezing(domain_file, capsys, point, code):
    path = domain_file("balls.json", {"kind": "product_of_balls", "n": 2})
    outputs = []
    for invariant in ("squeezing", "t-lower-bound"):
        assert main(["eval", "--domain", path, f"--point={point}",
                     "--invariant", invariant]) == code
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err
    if code == 0:
        assert outputs[0].out == outputs[1].out
        assert "value 0.7071067811865475\n" in outputs[1].out
    else:
        assert outputs[1].err.startswith("error: ") and "Traceback" not in outputs[1].err


# --- compare ----------------------------------------------------------------

def test_compare_prints_identical_values(domain_file, capsys):
    path = domain_file("radial.json", RADIAL)
    assert main(["compare", "--domain", path, "--point", "0.1,0.2"]) == 0
    out = capsys.readouterr().out.splitlines()
    s = float(out[0].split()[1])
    h = float(out[1].split()[1])
    diff = float(out[2].split()[1])
    assert s == h
    assert diff == 0.0


# --- grid -------------------------------------------------------------------

def test_grid_two_by_two_corner_values(domain_file, tmp_path, capsys):
    path = domain_file("one.json", {"kind": "finite_punctures", "points": [[0.5, 0.0]]})
    out = tmp_path / "grid.csv"
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5",
                 "--res", "2,2", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,value,truncation_index,certified"
    assert len(lines) == 5
    a = complex(0.5)
    expected = [
        (-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5),
    ]
    for line, (re, im) in zip(lines[1:], expected):
        cells = line.split(",")
        assert float(cells[0]) == re and float(cells[1]) == im
        assert float(cells[2]) == rho(complex(re, im), a)
        assert cells[4] == "true"


def test_grid_cell_on_puncture_is_empty(domain_file, tmp_path):
    path = domain_file("zero.json", {"kind": "finite_punctures", "points": [[0.0, 0.0]]})
    out = tmp_path / "grid.csv"
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5",
                 "--res", "3,3", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    center = lines[1 + 4]  # row-major: im outer, re inner; middle of 3x3
    assert center == "0.0,0.0,,,false"


def test_grid_rerun_byte_identical(domain_file, tmp_path):
    path = domain_file("radial.json", RADIAL)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["grid", "--domain", path, "--rect=-0.6,0.6,-0.6,0.6",
            "--res", "20,20", "--output"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_grid_parallel_matches_serial(domain_file, tmp_path):
    path = domain_file("radial.json", RADIAL)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    base = ["grid", "--domain", path, "--rect=-0.6,0.6,-0.6,0.6",
            "--res", "25,25"]
    assert main(base + ["--output", str(serial)]) == 0
    assert main(base + ["--output", str(parallel), "--jobs", "4"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_grid_rejects_jobs_below_one(domain_file, tmp_path, capsys, jobs):
    path = domain_file("radial.json", RADIAL)
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5", "--res", "2,2",
                 "--output", str(tmp_path / "x.csv"), f"--jobs={jobs}"]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_grid_unwritable_output_exits_4(domain_file, tmp_path):
    path = domain_file("radial.json", RADIAL)
    missing_dir = tmp_path / "nosuchdir" / "out.csv"
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5",
                 "--res", "2,2", "--output", str(missing_dir)]) == 4


def test_grid_rejects_poly_domain(domain_file, tmp_path):
    path = domain_file("poly.json", {"kind": "poly_sequence", "n": 2,
                                     "family": "radial", "q": 0.5, "theta": 1.0})
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5",
                 "--res", "2,2", "--output", str(tmp_path / "x.csv")]) == 2


def test_grid_job_validation():
    domain = FinitePunctures((complex(0.5),))
    with pytest.raises(DomainError, match="degenerate"):
        GridJob(domain, (0.5, -0.5, -0.5, 0.5), (4, 4), "squeezing")
    with pytest.raises(DomainError, match="resolution"):
        GridJob(domain, (-0.5, 0.5, -0.5, 0.5), (1, 4), "squeezing")
    GridJob(domain, (-0.5, 0.5, -0.5, 0.5), (1000, 1000), "squeezing")  # at the limit


def test_grid_rejects_more_cells_than_the_limit(domain_file, tmp_path, capsys):
    assert 101 * 9901 == MAX_GRID_CELLS + 1
    path = domain_file("radial.json", RADIAL)
    out = tmp_path / "x.csv"
    assert main(["grid", "--domain", path, "--rect=-0.5,0.5,-0.5,0.5", "--res", "101,9901",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: grid resolution 101x9901 has more than {MAX_GRID_CELLS} cells\n")
    assert not out.exists()


@pytest.mark.parametrize("rect", ["-inf,0,-0.5,0.5", "-1e308,1e308,-0.5,0.5"])
def test_grid_rejects_rectangle_without_finite_extent(domain_file, tmp_path, rect, capsys):
    path = domain_file("radial.json", RADIAL)
    assert main(["grid", "--domain", path, f"--rect={rect}", "--res", "3,3",
                 "--output", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_grid_uncertified_cells_report_prefix_minimum(tmp_path, domain_file):
    # tail constant too weak to certify near the listed puncture: the cell
    # still reports the prefix minimum, flagged uncertified
    doc = {"kind": "sequence", "points": [[0.5, 0.0]], "tail_modulus_constant": 0.6}
    path = domain_file("weak.json", doc)
    out = tmp_path / "grid.csv"
    assert main(["grid", "--domain", path, "--rect=-0.5,0.3,0.0,0.1",
                 "--res", "3,2", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    flags = {row[4] for row in rows}
    assert flags == {"true", "false"}
    for row in rows:
        if row[4] == "false":
            z = complex(float(row[0]), float(row[1]))
            assert float(row[2]) == rho(z, complex(0.5))


def test_grid_family_cap_hit_reports_capped_prefix_minimum(tmp_path, domain_file):
    # cells at |z| = 0.999999 need more than the 200000-puncture cap on the
    # p = 1 orbit: they report the minimum over the capped prefix, uncertified
    doc = {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3}
    path = domain_file("orbit.json", doc)
    out = tmp_path / "grid.csv"
    assert main(["grid", "--domain", path, "--rect=-0.999999,-0.99,-0.001,0.001",
                 "--res", "2,2", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["false", "true", "false", "true"]
    domain = parse_domain_spec(doc)
    for row in rows:
        if row[4] == "false":
            z = complex(float(row[0]), float(row[1]))
            brute = min(rho(z, domain.puncture(k)) for k in range(1, 200_001))
            assert row[2:4] == [repr(brute), "200000"]


# --- verify -----------------------------------------------------------------

def test_verify_paper_claims_exits_0(capsys):
    assert main(["verify", "--suite", "paper-claims"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_invariance_small(capsys):
    assert main(["verify", "--suite", "invariance", "--seed", "42",
                 "--trials", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 50
    assert all("\tPASS\t" in line for line in lines)


def test_verify_json_format(capsys):
    assert main(["verify", "--suite", "truncation", "--trials", "5",
                 "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["passed"] for r in reports)


# every suite checks a given --trials, also paper-claims and boundary-oracle,
# which run no trials (before, they ignored it and exited 0)
@pytest.mark.parametrize("suite", ["paper-claims", "invariance", "truncation", "boundary-oracle", "all"])
def test_verify_rejects_zero_trials(capsys, suite):
    assert main(["verify", "--suite", suite, "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "invariance" if suite == "all" else suite  # all runs invariance first
    assert captured.err == f"error: {what} suite needs trials >= 1, got 0\n"


@pytest.mark.parametrize("suite", ["paper-claims", "invariance", "truncation", "boundary-oracle", "all"])
@pytest.mark.parametrize("trials", [MAX_TRIALS + 1, 10**23, 99999999999], ids=["limit", "1e23", "1e11"])
def test_verify_rejects_trials_above_the_limit(capsys, suite, trials):
    assert main(["verify", "--suite", suite, "--trials", str(trials)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    what = "invariance" if suite == "all" else suite  # all runs invariance first
    assert captured.err == f"error: {what} suite trials above the limit {MAX_TRIALS}\n"


def test_verify_rejects_samples_above_the_limit(capsys):
    assert main(["verify", "--suite", "all", "--samples", str(MAX_ORACLE_SAMPLES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: boundary oracle samples above the limit {MAX_ORACLE_SAMPLES}\n"


@pytest.mark.parametrize("suite, samples", [("all", 10), ("invariance", -5),
                                            ("boundary-oracle", MIN_ORACLE_SAMPLES - 1)])
def test_verify_rejects_samples_below_the_floor(capsys, suite, samples):
    # checked before any suite runs, whichever suites the run would use
    assert main(["verify", "--suite", suite, "--samples", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: boundary oracle needs samples >= {MIN_ORACLE_SAMPLES}, got {samples}\n"
