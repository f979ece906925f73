"""scripts/truncation_profile.py counts the punctures a value converts and
the tails it computes by wrapping the domain's puncture, tail_lower_bound,
parts and tails: every conversion and tail of the scan, scalar or numpy,
must go through them, so that the counts are the work done."""

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from squeezefn import domains
from squeezefn import invariants as inv

spec = importlib.util.spec_from_file_location(
    "truncation_profile", Path(__file__).resolve().parent.parent / "scripts" / "truncation_profile.py")
truncation_profile = importlib.util.module_from_spec(spec)
spec.loader.exec_module(truncation_profile)


def family_work(domain, z):
    """(punctures converted, tails computed) by one value at z, counted in
    the family's law: point(k) and the Cartesian parts of numpy chunks, and
    tail_modulus(n) and the moduli of numpy chunks that are not punctures'."""
    counts = {"point": 0, "tail": 0, "moduli": 0, "cartesian": 0}
    family = domain.family
    cls = type(family)
    point, tail, moduli, cartesian = cls.point, cls.tail_modulus, cls.moduli, domains._cartesian

    def count(key, f, size=lambda *a: 1):
        def counted(*args):
            counts[key] += size(*args)
            return f(*args)
        return counted

    with mock.patch.multiple(cls, point=count("point", point), tail_modulus=count("tail", tail),
                             moduli=count("moduli", moduli, lambda self, k: len(k))), \
            mock.patch.object(domains, "_cartesian", count("cartesian", cartesian, lambda m, y: len(y))):
        inv.squeezing_punctured_disk(domain, z)
    return (counts["point"] + counts["cartesian"],
            counts["tail"] + counts["moduli"] - counts["cartesian"])


@pytest.mark.parametrize("name", ["radial q=0.99", "orbit c=0.5 p=1"])
def test_truncation_profile_counts_the_work_done(name):
    # the profile counts calls to the domain's puncture, tail_lower_bound,
    # parts and tails; the scalar batches must go through them, so that the
    # counts equal the work done in the family's law, at every profile point
    domain = truncation_profile.FAMILIES[name]
    for i in range(12):
        z = complex(-(1.0 - 0.5 ** (i + 1)), 0.0)
        assert truncation_profile.counted(domain, z) == family_work(domain, z), z
