"""Start-up imports: numpy loads only where a batched kernel or an oracle runs.
A family scan loads it only past its scalar head (the first 8 punctures).
Each submodule of squeezefn loads on first use: a domain parse loads domains
and hyperbolic, families for a document with a "family" field and
block_domains for removed blocks; only verify loads verification, only a
scan past its head or a grid loads chunked, only the grid command loads
grid, and only a removed-block evaluation loads blocks.  No command that
runs without numpy loads dataclasses or inspect.

Where numpy is installed, the other test modules import it into this
process, so every check runs in a fresh interpreter.  The checks also run
where numpy is not installed (CI's numpy-free job); the few that need it are
marked ``needs_numpy`` and skip there.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from squeezefn import lower_bound_certificate, parse_domain_spec
from squeezefn.cli import main
from squeezefn.domains import MAX_DIMENSION

SRC = str(Path(__file__).resolve().parents[1] / "src")
# a test that loads numpy, or runs a command that does (grid, verify --suite all)
needs_numpy = pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="needs numpy")

DOCS = {
    "finite": {"kind": "finite_punctures", "points": [[0.5, 0.0], [0.0, 0.5]]},
    "sequence_points": {"kind": "sequence", "points": [[0.5, 0.0]], "tail_modulus_constant": 0.9},
    "sequence_radial": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "sequence_orbit": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
    "orbit_p1": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 1.0, "theta": 2.3},
    "poly_points": {"kind": "poly_sequence", "n": 2, "points": [[[0.5, 0.0], [0.0, 0.0]]]},
    "poly_radial": {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5, "theta": 1.0},
    "polydisks": {"kind": "removed_polydisks", "n": 2,
                  "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]},
    "polydisk_family": {"kind": "removed_polydisks", "n": 2, "family": "radial",
                        "q": 0.5, "theta": 1.0, "r0": 0.25},
    "balls": {"kind": "removed_balls", "n": 2,
              "blocks": [{"center": [[0.0, 0.0], [0.0, 0.0]], "radius": 0.25}]},
    "balls_family": {"kind": "removed_balls", "n": 2, "family": "radial",
                     "q": 0.5, "theta": 1.0, "r0": 0.25},
    "polydisks_n64": {"kind": "removed_polydisks", "n": MAX_DIMENSION,
                      "blocks": [{"center": [[0.0, 0.0]] * MAX_DIMENSION, "radius": 0.25}]},
    "polydisk_family_n64": {"kind": "removed_polydisks", "n": MAX_DIMENSION, "family": "radial",
                            "q": 0.5, "theta": 1.0, "r0": 0.25},
    "annulus": {"kind": "annulus", "r": 0.25},
    "product_of_balls": {"kind": "product_of_balls", "n": 2},
}

# (document, point, invariant, extra arguments) of every eval that needs no numpy
NUMPY_FREE_EVALS = [
    ("finite", "0.1,0.2", "squeezing", []),
    ("finite", "0.1,0.2", "fridman-c", []),
    ("sequence_points", "0.1,0.2", "squeezing", []),
    ("sequence_points", "0.1,0.2", "fridman-c", []),
    ("poly_points", "0.1,0;0,0.2", "polydisk-squeezing", []),
    # families whose scan stops within its scalar head
    ("sequence_radial", "0.1,0.2", "squeezing", []),
    ("sequence_radial", "0.5,-0.3", "fridman-c", []),
    ("sequence_orbit", "0.5,-0.3", "squeezing", []),
    ("poly_radial", "0.3,0.2;0,-0.1", "polydisk-squeezing", []),
    ("annulus", "0.5,0.1", "squeezing", []),
    ("product_of_balls", "0.1,0;0,0.2;0.3,0;0,0", "squeezing", []),
    ("product_of_balls", "0.1,0;0,0.2;0.3,0;0,0", "t-lower-bound", []),
    ("polydisks", "0.5,0;0.1,0.1", "polydisk-squeezing", []),
    ("balls", "0.5,0;0.1,0.1", "polydisk-squeezing", ["--mesh-tol", "1e-4"]),
    # block families: the family parse, its tail check and the tail stop
    ("polydisk_family", "0.1,0;0.1,0", "polydisk-squeezing", []),
    ("balls_family", "0.1,0;0.1,0", "polydisk-squeezing", []),
    # n = MAX_DIMENSION: a listed block, and a family that stops after its first block
    ("polydisks_n64", ";".join(["0.5,0"] + ["0,0.1"] * (MAX_DIMENSION - 1)), "polydisk-squeezing", []),
    ("polydisk_family_n64", ";".join(["0.1,0", "0.1,0"] + ["0,0"] * (MAX_DIMENSION - 2)),
     "polydisk-squeezing", []),
]


def run_python(code: str, block_numpy: bool = False) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter; with ``block_numpy``, any import
    of numpy there raises ImportError."""
    code = textwrap.dedent(code)
    if block_numpy:
        code = 'import sys\nsys.modules["numpy"] = None\n' + code
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


def eval_argv(docs_dir: Path, name, point, invariant, extra):
    return ["eval", "--domain", str(docs_dir / f"{name}.json"), f"--point={point}",
            "--invariant", invariant, *extra]


@pytest.fixture
def docs_dir(tmp_path):
    for name, doc in DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


def test_import_and_parse_load_no_numpy():
    proc = run_python(f"""
        import sys
        import squeezefn, squeezefn.cli
        from squeezefn import parse_domain_spec
        for doc in {list(DOCS.values())!r}:
            parse_domain_spec(doc)
        assert "numpy" not in sys.modules, "numpy was imported"
    """)
    assert proc.returncode == 0, proc.stderr


# the public names of squeezefn, each resolved from its submodule on first use
PUBLIC_NAMES = {
    "Annulus", "Block", "BoundaryOrbitFamily", "DomainError", "FinitePunctures",
    "PolySequencePunctures", "ProductOfBalls", "RadialBlockFamily", "RadialFamily", "RemovedBalls",
    "RemovedPolydisks", "SequencePunctures", "parse_domain_spec", "serialize_domain_spec",
    "MobiusMap", "PointError", "radial_separation_bound",
    "CertificationError", "InvariantValue", "VerificationOutcome", "annulus_squeezing",
    "fridman_caratheodory_punctured_disk", "lower_bound_certificate", "polydisk_squeezing_punctured",
    "polydisk_squeezing_removed_blocks", "product_of_balls_T_lower_bound",
    "product_of_balls_ratio_contradiction", "product_of_balls_squeezing",
    "removed_block_display_formula", "squeezing_punctured_disk",
    "Lcg", "VerificationReport", "annulus_compact_removal_gap", "boundary_min_oracle",
    "brute_force_infimum", "run_suite",
}
SUBMODULES = ("block_domains", "blocks", "certificates", "chunked", "cli", "domains", "families", "grid",
              "hyperbolic", "invariants", "serialize", "verification")


def parse_modules(doc) -> list:
    """The squeezefn modules that a parse of ``doc`` loads: domains and
    hyperbolic, families for a family document and block_domains for
    removed blocks."""
    loaded = ["squeezefn", "squeezefn.domains", "squeezefn.hyperbolic"]
    if "family" in doc:
        loaded.append("squeezefn.families")
    if doc["kind"].startswith("removed_"):
        loaded.append("squeezefn.block_domains")
    return sorted(loaded)


def test_import_and_parse_load_only_domain_modules_and_hyperbolic():
    # one fresh interpreter per document: a listed or closed-form document
    # loads neither families nor block_domains, a listed block no families
    for name, doc in DOCS.items():
        proc = run_python(f"""
            import sys
            import squeezefn
            squeezefn.parse_domain_spec({doc!r})
            print(sorted(m for m in sys.modules if m.startswith("squeezefn")))
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{parse_modules(doc)!r}\n", name


def test_numpy_free_commands_load_neither_dataclasses_nor_inspect(docs_dir):
    # numpy imports inspect, so grid, verify and deep family scans are exempt
    argvs = [eval_argv(docs_dir, *case) for case in NUMPY_FREE_EVALS]
    proc = run_python(f"""
        import sys
        import squeezefn
        for doc in {list(DOCS.values())!r}:
            squeezefn.parse_domain_spec(doc)
        unwanted = ("dataclasses", "inspect")
        assert not [m for m in unwanted if m in sys.modules], "loaded by import and parse"
        from squeezefn.cli import main
        for argv in {argvs!r}:
            assert main(argv) == 0, argv
            loaded = [m for m in unwanted if m in sys.modules]
            assert not loaded, (argv, loaded)
    """)
    assert proc.returncode == 0, proc.stderr


@needs_numpy
def test_only_verify_loads_verification(docs_dir, tmp_path):
    argvs = [eval_argv(docs_dir, *case) for case in NUMPY_FREE_EVALS]
    argvs += [eval_argv(docs_dir, "orbit_p1", "-0.99,0", "squeezing", []),
              ["compare", "--domain", str(docs_dir / "sequence_radial.json"), "--point=0.1,0.2"],
              ["grid", "--domain", str(docs_dir / "sequence_orbit.json"), "--rect=-0.9,0.9,-0.9,0.9",
               "--res=5,5", "--output", str(tmp_path / "grid.csv")]]
    verify = ["verify", "--suite", "boundary-oracle", "--samples", "4000"]
    proc = run_python(f"""
        import sys
        from squeezefn.cli import main
        for argv in {argvs!r}:
            assert main(argv) == 0, argv
            assert "squeezefn.verification" not in sys.modules, argv
        assert main({verify!r}) == 0
        assert "squeezefn.verification" in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


# the evals of NUMPY_FREE_EVALS that minimize over removed blocks
BLOCK_EVALS = [case for case in NUMPY_FREE_EVALS if case[0].startswith(("polydisk", "balls"))]
# the submodules that every command loads
COMMAND_MODULES = ["squeezefn", "squeezefn.cli", "squeezefn.domains", "squeezefn.hyperbolic",
                   "squeezefn.invariants"]


def modules_after(argvs) -> list:
    """The squeezefn modules loaded after each command, run in turn in one
    fresh interpreter."""
    proc = run_python(f"""
        import json, sys
        from squeezefn.cli import main
        for argv in {argvs!r}:
            assert main(argv) == 0, argv
            print("loaded", json.dumps(sorted(m for m in sys.modules if m.startswith("squeezefn"))))
    """)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line[len("loaded "):]) for line in proc.stdout.splitlines() if line.startswith("loaded ")]


def test_import_and_parse_of_every_document_load_neither_chunked_nor_blocks():
    proc = run_python(f"""
        import sys
        import squeezefn, squeezefn.cli
        for doc in {list(DOCS.values())!r}:
            squeezefn.parse_domain_spec(doc)
        loaded = [m for m in ("squeezefn.chunked", "squeezefn.blocks") if m in sys.modules]
        assert not loaded, loaded
    """)
    assert proc.returncode == 0, proc.stderr


def test_puncture_evals_without_numpy_load_neither_chunked_nor_blocks(docs_dir):
    # in one interpreter: each command adds at most its document's modules
    cases = [(case[0], eval_argv(docs_dir, *case)) for case in NUMPY_FREE_EVALS if case not in BLOCK_EVALS]
    cases += [(name, ["compare", "--domain", str(docs_dir / f"{name}.json"), "--point=0.1,0.2"])
              for name in ("finite", "sequence_points", "sequence_radial")]
    expected, loaded = [], set(COMMAND_MODULES)
    for name, _ in cases:
        loaded.update(parse_modules(DOCS[name]))
        expected.append(sorted(loaded))
    assert modules_after([argv for _, argv in cases]) == expected


@pytest.mark.parametrize("case", BLOCK_EVALS, ids=[case[0] for case in BLOCK_EVALS])
def test_block_evals_load_blocks_and_not_chunked(docs_dir, case):
    expected = set(COMMAND_MODULES + parse_modules(DOCS[case[0]]) + ["squeezefn.blocks"])
    assert modules_after([eval_argv(docs_dir, *case)]) == [sorted(expected)]


@needs_numpy
def test_deep_scans_and_grids_load_chunked_and_not_blocks(docs_dir, tmp_path):
    deep = eval_argv(docs_dir, "orbit_p1", "-0.99,0", "squeezing", [])
    grid = ["grid", "--domain", str(docs_dir / "sequence_orbit.json"), "--rect=-0.9,0.9,-0.9,0.9",
            "--res=5,5", "--output", str(tmp_path / "grid.csv")]
    family = COMMAND_MODULES + ["squeezefn.chunked", "squeezefn.families"]
    assert modules_after([deep]) == [sorted(family)]
    assert modules_after([grid]) == [sorted(family + ["squeezefn.grid"])]


# The modules of each command kind of the benchmark's cli workload, on its
# documents (finite, radial q = 0.5, poly_sequence n = 2, the origin
# polydisk and ball, the annulus, the product of balls and the p=2 orbit) at
# points where a family scan stops within its scalar head.  A command
# compiles each module it loads, from source where no bytecode cache is kept.
CLI_WORKLOAD_COMMANDS = {
    "eval-finite": (("finite", "0.1,0.2", "squeezing", []), []),
    "eval-radial": (("sequence_radial", "0.1,0.2", "squeezing", []), ["families"]),
    "eval-poly-radial": (("poly_radial", "0.3,0.2;0,-0.1", "polydisk-squeezing", []), ["families"]),
    "eval-polydisks": (("polydisks", "0.5,0;0,0", "polydisk-squeezing", []), ["block_domains", "blocks"]),
    "eval-balls": (("balls", "0.5,0;0,0", "polydisk-squeezing", ["--mesh-tol", "1e-4"]),
                   ["block_domains", "blocks"]),
    "eval-annulus": (("annulus", "0.5,0.1", "squeezing", []), []),
    "eval-product": (("product_of_balls", "0.1,0;0,0.2;0.3,0;0,0", "squeezing", []), []),
    "compare-orbit-p2": (["compare", "--domain", "sequence_orbit.json", "--point=0.5,-0.3"], ["families"]),
    "grid-radial": (["grid", "--domain", "sequence_radial.json", "--rect=-0.98,0.98,-0.98,0.98",
                     "--res=24,24", "--output", "grid.csv"], ["chunked", "families", "grid"]),
    "verify-all": (["verify", "--suite", "all"],
                   ["block_domains", "blocks", "certificates", "chunked", "families", "verification"]),
}


@pytest.mark.parametrize("command", [pytest.param(c, marks=needs_numpy) if c in ("grid-radial", "verify-all") else c
                                     for c in CLI_WORKLOAD_COMMANDS])
def test_each_cli_workload_command_loads_exactly_its_modules(docs_dir, command):
    argv, extra = CLI_WORKLOAD_COMMANDS[command]
    if isinstance(argv, tuple):  # an eval case
        argv = eval_argv(docs_dir, *argv)
    else:  # file names are in docs_dir
        argv = [str(docs_dir / arg) if arg.endswith((".json", ".csv")) else arg for arg in argv]
    assert modules_after([argv]) == [sorted(COMMAND_MODULES + [f"squeezefn.{m}" for m in extra])]


def test_cli_resolves_the_grid_job_from_its_module():
    proc = run_python("""
        import sys
        import squeezefn.cli as cli
        assert "squeezefn.grid" not in sys.modules
        from squeezefn.cli import MAX_GRID_CELLS, GridJob, run_grid
        import squeezefn.grid as grid
        assert (GridJob, run_grid, MAX_GRID_CELLS) == (grid.GridJob, grid.run_grid, grid.MAX_GRID_CELLS)
        try:
            cli.nosuch
        except AttributeError as e:
            assert str(e) == "module 'squeezefn.cli' has no attribute 'nosuch'", e
        else:
            raise AssertionError("no AttributeError")
    """)
    assert proc.returncode == 0, proc.stderr


@needs_numpy
def test_public_names_resolve_to_their_submodules_objects():
    proc = run_python(f"""
        import importlib, sys
        import squeezefn
        assert set(squeezefn.__all__) == {PUBLIC_NAMES!r}, squeezefn.__all__
        assert len(squeezefn.__all__) == len(set(squeezefn.__all__))
        for name in squeezefn.__all__:
            value = getattr(squeezefn, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert value.__module__.startswith("squeezefn."), name
        for name in {SUBMODULES!r}:
            assert getattr(squeezefn, name) is importlib.import_module("squeezefn." + name), name
    """)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attributes_raise_attribute_error():
    proc = run_python("""
        import squeezefn
        try:
            squeezefn.nosuch
        except AttributeError as e:
            assert str(e) == "module 'squeezefn' has no attribute 'nosuch'", e
        else:
            raise AssertionError("no AttributeError")
        assert not hasattr(squeezefn, "_rho_np")
        try:
            from squeezefn import nosuch
        except ImportError:
            pass
        else:
            raise AssertionError("no ImportError")
    """)
    assert proc.returncode == 0, proc.stderr


def test_evals_without_numpy_print_the_same(docs_dir, capsys):
    argvs = [eval_argv(docs_dir, *case) for case in NUMPY_FREE_EVALS]
    argvs += [["compare", "--domain", str(docs_dir / f"{name}.json"), "--point=0.1,0.2"]
              for name in ("finite", "sequence_points", "sequence_radial")]
    expected = []
    for argv in argvs:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    proc = run_python(f"""
        from squeezefn.cli import main
        for argv in {argvs!r}:
            assert main(argv) == 0, argv
            print("--")
    """, block_numpy=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(out + "--\n" for out in expected)


def test_parse_refuses_an_orbit_whose_powers_overflow_without_numpy(docs_dir):
    # a boundary_orbit p whose powers overflow is refused at parse, exit 2
    path = docs_dir / "orbit_p60.json"
    path.write_text(json.dumps(dict(DOCS["sequence_orbit"], p=60)), encoding="utf-8")
    proc = run_python(f"""
        from squeezefn.cli import main
        raise SystemExit(main({["eval", "--domain", str(path), "--point=0.1,0.2"]!r}))
    """, block_numpy=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: boundary_orbit family: k**p overflows at k = 1000001, got p=60.0\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_invariance_without_numpy_prints_the_same(capsys, fmt):
    # finite-puncture domains under disk automorphisms: the scalar pass and
    # the Mobius maps, no oracle; 1000 reports
    argv = ["verify", "--suite", "invariance", "--format", fmt]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert len(json.loads(expected) if fmt == "json" else expected.splitlines()) == 1000
    proc = run_python(f"""
        from squeezefn.cli import main
        raise SystemExit(main({argv!r}))
    """, block_numpy=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_family_documents_round_trip_without_numpy():
    # one document per family: parse, then serialize, gives it back
    proc = run_python("""
        from squeezefn.domains import parse_domain_spec
        from squeezefn.families import _FAMILIES
        from squeezefn.serialize import serialize_domain_spec
        values = {"q": 0.5, "theta": 1.0, "c": 0.5, "p": 2.0, "r0": 0.25}
        for (kind, name), (_, params) in _FAMILIES.items():
            dims = {} if kind == "sequence" else {"n": 2}
            doc = {"kind": kind, **dims, "family": name, **{p: values[p] for p in params}}
            assert serialize_domain_spec(parse_domain_spec(doc)) == doc, doc
        print(len(_FAMILIES))
    """, block_numpy=True)
    assert (proc.returncode, proc.stdout) == (0, "5\n"), proc.stderr


def certificates_without_numpy(cases):
    """Each (document, point, claim) certificate, in process and in a fresh
    interpreter with numpy blocked: the two reprs must be equal."""
    expected = "".join(
        f"{lower_bound_certificate(parse_domain_spec(DOCS[name]), z, claimed)!r}\n"
        for name, z, claimed in cases)
    proc = run_python(f"""
        from squeezefn import lower_bound_certificate, parse_domain_spec
        for name, z, claimed in {cases!r}:
            domain = parse_domain_spec({DOCS!r}[name])
            print(repr(lower_bound_certificate(domain, z, claimed)))
    """, block_numpy=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_listed_certificates_load_no_numpy():
    # a listing is scanned in one scalar pass, certificates included
    certificates_without_numpy([(name, 0.1 + 0.2j, claimed) for name in ("finite", "sequence_points")
                                for claimed in (0.1, 0.5, 0.9)])


def test_shallow_family_certificates_load_no_numpy():
    # so is a family's head: at 0.5-0.3j the radial family certifies 0.1
    # after 1 puncture and 0.5 after 2, and puncture 1 refutes 0.9
    certificates_without_numpy([("sequence_radial", 0.5 - 0.3j, claimed) for claimed in (0.1, 0.5, 0.9)])


def test_poly_sequence_certificates_load_no_numpy():
    # at (0.3+0.2i, 0.1i) the poly_sequence family stops at puncture 1: 0.1
    # and 0.25 certify on it and on the listing, and puncture 1 refutes 0.5
    certificates_without_numpy([(name, (0.3 + 0.2j, 0.1j), claimed) for name in ("poly_points", "poly_radial")
                                for claimed in (0.1, 0.25, 0.5)])


@needs_numpy
def test_sequence_eval_loads_numpy(docs_dir):
    # the blocker above is not vacuous: a family scan past its scalar head
    # needs numpy (p=1 at -0.99 stops at N = 87)
    argv = eval_argv(docs_dir, "orbit_p1", "-0.99,0", "squeezing", [])
    proc = run_python(f"""
        import sys
        from squeezefn.cli import main
        assert "numpy" not in sys.modules
        assert main({argv!r}) == 0
        assert "numpy" in sys.modules
        sys.modules.pop("numpy")
        sys.modules["numpy"] = None
        import squeezefn  # chunked imports numpy at its top: drop it, to load again
        del sys.modules["squeezefn.chunked"], squeezefn.chunked
        try:
            main({argv!r})
        except ImportError:
            print("blocked")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("value 0.2739146045638394\ntruncation_index 87\n"
                                "tail_bound_used 0.9943181818181818\nmesh_error 0.0\n"
                                "attained_index 56\nblocked\n")
