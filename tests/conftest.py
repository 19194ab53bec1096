"""Tier-1 test configuration: hypothesis draws the same examples every run.

``tier1`` (loaded by default) derives each property test's examples from
the test itself, so a tier-1 run is reproducible; the randomised
``explore`` profile is for bug hunting::

    PYTHONPATH=src python -m pytest -x -q --hypothesis-profile explore
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, max_examples=1000)
settings.load_profile("tier1")
