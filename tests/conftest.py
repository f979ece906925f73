"""Tier-1 runs hypothesis derandomized and without an example database, so that
every run draws the same examples and a failure reproduces from the commit
alone.  A derandomized run ignores ``--hypothesis-seed``; to search beyond
the fixed draws, run with ``--hypothesis-profile=default --hypothesis-seed=N``
for a few values of N."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
