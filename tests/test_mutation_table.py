"""The table of scripts/mutation_check.py matches the code: every mutant's
old text occurs exactly once, and every test it names exists, so that a
refactor that moves either updates the table in the same change.  Whether
the tests kill the mutants is the script's full run, outside tier-1."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutation_check", ROOT / "scripts" / "mutation_check.py")
mutation_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutation_check)


def test_every_old_text_matches_exactly_once():
    assert mutation_check.matches() == {m.name: 1 for m in mutation_check.MUTANTS}


def test_every_named_test_exists():
    for m in mutation_check.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(encoding="utf-8"), re.M), node
