#!/usr/bin/env python3
"""Run CI's numpy-free job on the other Python versions installed here, and
check that numpy-free values are the same bits on every one of them.

    python scripts/other_pythons.py

The interpreters are ~/.pyenv/versions/*/bin/python and python3 on PATH;
versions below the project's requires-python (3.10) are listed as skipped.
The one running this script must have pytest and hypothesis (the tier-1
environment): a temporary directory gets symlinks to its pure-Python pytest,
hypothesis and their dependencies, so that an interpreter without them can
run the job's tests.  Every interpreter runs with -S, so none sees its own
site-packages, numpy included.

1. The steps of the ``numpy-free`` job in .github/workflows/tests.yml, read
   from that file so that they cannot drift, run in a copy of src/, tests/
   and pyproject.toml, with ``python`` on PATH the interpreter under test.
   The job runs tests/test_startup.py and the kernel, circle-minimum and
   block-minimum tests with pytest, where the tests marked needs_numpy
   skip.  A step that installs packages is skipped (it needs the network),
   and so are the pytest steps on an interpreter where pytest does not
   import (3.10's needs exceptiongroup and tomli); each skip is named.  On
   such an interpreter nothing of the job runs: its numpy-free commands are
   checked by CI's tier-1 matrix, which runs tests/test_startup.py (numpy
   blocked in each fresh interpreter) on 3.10-3.13, and by the table below.
2. A table of numpy-free values (listings, family heads, certificates,
   blocks, annuli and the distance kernel), repr by repr, with any
   difference from 3.11 marked.

Exits non-zero when a step that ran fails or a value differs.  It depends
on the host's interpreters, so it is not part of tier-1.
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = (3, 11)
OLDEST = (3, 10)
# 3.11's pure-Python test dependencies, as top-level names in its site-packages
LINKED = ("pytest", "_pytest", "py.py", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis",
          "_hypothesis_*", "sortedcontainers", "attr", "attrs", "typing_extensions.py")

VALUES = r'''
import sys
from squeezefn import (Annulus, Block, ProductOfBalls, RadialBlockFamily, RemovedBalls,
                       RemovedPolydisks, annulus_squeezing, lower_bound_certificate,
                       parse_domain_spec, polydisk_squeezing_punctured,
                       polydisk_squeezing_removed_blocks, product_of_balls_squeezing,
                       squeezing_punctured_disk)
from squeezefn.hyperbolic import rho

docs = {
    "finite": {"kind": "finite_punctures", "points": [[0.5, 0], [0, 0.5], [-0.3, 0.6]]},
    "listed": {"kind": "sequence", "points": [[0.5, 0], [0, 0.5]], "tail_modulus_constant": 0.9},
    "poly-listed": {"kind": "poly_sequence", "n": 2, "points": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0.5]]]},
    "radial": {"kind": "sequence", "family": "radial", "q": 0.5, "theta": 1.0},
    "orbit-p2": {"kind": "sequence", "family": "boundary_orbit", "c": 0.5, "p": 2.0, "theta": 2.3},
    "poly-radial": {"kind": "poly_sequence", "n": 2, "family": "radial", "q": 0.5, "theta": 1.0},
}
d = {name: parse_domain_spec(doc) for name, doc in docs.items()}
origin = Block((0j, 0j), 0.25)
offcentre = Block((0.3 + 0j, -0.1j), 0.2)
family = RadialBlockFamily(q=0.5, theta=1.0, r0=0.25)
cases = [
    ("rho near the boundary", lambda: rho(complex(-0.99999, 0.0), complex(-0.99998, 3e-6))),
    ("rho on the diagonal", lambda: rho(complex(0.7071, 0.7071), complex(0.70710678, 0.7071067))),
    ("rho from 0", lambda: rho(0j, complex(0.0, 0.7))),
    ("rho 5e-324 apart", lambda: rho(0.5 + 0j, complex(0.5, 5e-324))),
    ("finite at 0.1+0.2i", lambda: squeezing_punctured_disk(d["finite"], 0.1 + 0.2j)),
    ("listed at 0.1+0.2i", lambda: squeezing_punctured_disk(d["listed"], 0.1 + 0.2j)),
    ("listed certificate 0.4", lambda: lower_bound_certificate(d["listed"], 0.1 + 0.2j, 0.4)),
    ("poly listed", lambda: polydisk_squeezing_punctured(d["poly-listed"], (0.1 + 0j, 0.2j))),
    ("radial head at 0.1+0.2i", lambda: squeezing_punctured_disk(d["radial"], 0.1 + 0.2j)),
    ("radial head at 0.5-0.3i", lambda: squeezing_punctured_disk(d["radial"], 0.5 - 0.3j)),
    ("radial certificate 0.1", lambda: lower_bound_certificate(d["radial"], 0.5 - 0.3j, 0.1)),
    ("radial certificate 0.5", lambda: lower_bound_certificate(d["radial"], 0.5 - 0.3j, 0.5)),
    ("radial certificate 0.9", lambda: lower_bound_certificate(d["radial"], 0.5 - 0.3j, 0.9)),
    ("orbit p=2 head at 0.5-0.3i", lambda: squeezing_punctured_disk(d["orbit-p2"], 0.5 - 0.3j)),
    ("poly radial head", lambda: polydisk_squeezing_punctured(d["poly-radial"], (0.3 + 0.2j, -0.1j))),
    ("poly listed certificate 0.25", lambda: lower_bound_certificate(d["poly-listed"], (0.3 + 0.2j, 0.1j), 0.25)),
    ("poly radial certificate 0.25", lambda: lower_bound_certificate(d["poly-radial"], (0.3 + 0.2j, 0.1j), 0.25)),
    ("removed polydisk 2/7", lambda: polydisk_squeezing_removed_blocks(
        RemovedPolydisks(n=2, blocks=(origin,)), (0.5 + 0j, 0j))),
    ("removed polydisk off-centre", lambda: polydisk_squeezing_removed_blocks(
        RemovedPolydisks(n=2, blocks=(offcentre,)), (-0.5 + 0.1j, 0.2j))),
    ("removed ball 2/7", lambda: polydisk_squeezing_removed_blocks(
        RemovedBalls(n=2, blocks=(origin,)), (0.5 + 0j, 0j))),
    ("removed polydisk family", lambda: polydisk_squeezing_removed_blocks(
        RemovedPolydisks(n=2, family=family), (0.1 + 0j, 0.1 + 0j))),
    ("removed ball family", lambda: polydisk_squeezing_removed_blocks(
        RemovedBalls(n=2, family=family), (0.1 + 0j, 0.1 + 0j))),
    ("annulus", lambda: annulus_squeezing(Annulus(0.25), 0.5 + 0.1j)),
    ("product of balls", lambda: product_of_balls_squeezing(ProductOfBalls(3))),
]
for name, value in cases:
    print(f"{name}\t{value()!r}")
assert "numpy" not in sys.modules
'''


def interpreters() -> list[tuple[tuple[int, ...], str]]:
    """(version, path) of every interpreter found, one per version."""
    found = {}
    candidates = sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin/python")))
    candidates += [p for p in (shutil.which("python3"),) if p]
    version = "import sys; sys.stdout.write(' '.join(map(str, sys.version_info[:3])))"  # also Python 2
    for path in candidates:
        try:
            out = subprocess.run([path, "-S", "-c", version], capture_output=True, text=True,
                                 timeout=30).stdout.split()
        except (OSError, subprocess.TimeoutExpired):
            out = []
        if len(out) == 3:
            found.setdefault(tuple(map(int, out)), path)
        else:
            print(f"skipped {path}: does not run")
    return sorted(found.items())


def link_test_dependencies(target: Path) -> None:
    purelib = Path(sysconfig.get_paths()["purelib"])
    for pattern in LINKED:
        for source in purelib.glob(pattern):
            (target / source.name).symlink_to(source)


def numpy_free_steps() -> list[dict]:
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    return [step for step in workflow["jobs"]["numpy-free"]["steps"] if "run" in step]


def wrapper(bindir: Path, python: str, links: Path) -> None:
    """``python`` on PATH: the interpreter under test with -S, with the
    linked dependencies after whatever PYTHONPATH a step sets."""
    script = bindir / "python"
    script.write_text(f'#!/bin/sh\nPYTHONPATH="${{PYTHONPATH:+$PYTHONPATH:}}{links}" exec "{python}" -S "$@"\n',
                      encoding="utf-8")
    script.chmod(0o755)


def run_steps(version, python: str, work: Path, links: Path) -> tuple[list[str], list[str], list[str]]:
    """(passed, failed, skipped) step names, each with its reason when not passed."""
    bindir = work / f"bin-{'.'.join(map(str, version))}"
    bindir.mkdir()
    wrapper(bindir, python, links)
    env = {**os.environ, "PATH": f"{bindir}{os.pathsep}{os.environ['PATH']}", "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    probe = subprocess.run([str(bindir / "python"), "-c", "import pytest"], env=env,
                           capture_output=True, text=True)
    pytest_error = probe.stderr.strip().splitlines()[-1] if probe.returncode else None
    passed, failed, skipped = [], [], []
    for step in numpy_free_steps():
        name, script = step["name"], step["run"]
        if "pip install" in script:
            skipped.append(f"{name}: installs packages, which needs the network")
            continue
        if "pytest" in script and pytest_error:
            skipped.append(f"{name}: pytest does not import ({pytest_error})")
            continue
        run_dir = Path(tempfile.mkdtemp(dir=work))
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, run_dir / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", run_dir / "pyproject.toml")
        proc = subprocess.run(["bash", "-e", "-c", script], cwd=run_dir, capture_output=True, text=True,
                              env={**env, **{k: str(v) for k, v in step.get("env", {}).items()}}, timeout=600)
        if proc.returncode == 0:
            passed.append(name)
        else:
            tail = (proc.stderr.strip() or proc.stdout.strip()).splitlines()[-1:] or [""]
            failed.append(f"{name}: exit {proc.returncode}: {tail[0]}")
    return passed, failed, skipped


def values(python: str) -> dict[str, str] | str:
    proc = subprocess.run([python, "-S", "-c", VALUES], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=600)
    if proc.returncode:
        return (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]
    return dict(line.split("\t", 1) for line in proc.stdout.splitlines())


def main() -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    found = interpreters()
    usable = [(v, p) for v, p in found if v[:2] >= OLDEST]
    for version, path in found:
        if version[:2] < OLDEST:
            print(f"skipped {'.'.join(map(str, version))} ({path}): below requires-python >= 3.10")
    if not any(v[:2] == REFERENCE for v, _ in usable):
        print("no Python 3.11 found: nothing to compare against")
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="other-pythons-") as tmp:
        work = Path(tmp)
        links = work / "links"
        links.mkdir()
        link_test_dependencies(links)
        for version, path in usable:
            label = ".".join(map(str, version))
            passed, failed, skipped = run_steps(version, path, work, links)
            print(f"\n{label} ({path}): numpy-free job, {len(passed)} passed, {len(failed)} failed, "
                  f"{len(skipped)} skipped")
            for line in [f"  passed  {n}" for n in passed] + [f"  FAILED  {n}" for n in failed] \
                    + [f"  skipped {n}" for n in skipped]:
                print(line)
            bad += len(failed)
    tables = {".".join(map(str, v)): values(p) for v, p in usable}
    reference = next(t for label, t in tables.items() if tuple(map(int, label.split(".")))[:2] == REFERENCE)
    print("\nnumpy-free values (same: the bits of 3.11)")
    if isinstance(reference, str):
        print(f"  3.11 failed: {reference}")
        return 1
    labels = list(tables)
    print("  " + "\t".join(["case"] + labels))
    for case, want in reference.items():
        row = []
        for label in labels:
            table = tables[label]
            got = table if isinstance(table, str) else table.get(case)
            row.append("same" if got == want else "DIFF")
            if got != want:
                bad += 1
                print(f"  {case} on {label}: {got!r} where 3.11 gives {want!r}")
        print("  " + "\t".join([case] + row))
    print(f"\nreference values:\n" + "\n".join(f"  {case}\t{want}" for case, want in reference.items()))
    print("\nfailures: none" if not bad else f"\nfailures: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
