"""Test-suite settings: Hypothesis draws the same examples on every run.

The profile derives its examples from each test's own code rather than a
random seed, keeps no example database between runs, and sets no deadline,
so a slow host cannot fail a test by timing alone.
"""

from __future__ import annotations

from hypothesis import settings

settings.register_profile("layerseal", derandomize=True, database=None, deadline=None)
settings.load_profile("layerseal")
