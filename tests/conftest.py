"""Tier-1 is deterministic: a red run means the diff did it.

Hypothesis derives its examples from each test's source instead of a
random seed, and keeps no example database, so two runs collect and
pass the same examples.  Random search is opt-in::

    HYPOTHESIS_PROFILE=explore python -m pytest ...
"""

import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
