"""Hypothesis profiles.  HYPOTHESIS_PROFILE=ci selects a derandomized run
that prints the reproduction blob of a failing example, so a red CI run
replays the same examples locally; unset, Hypothesis keeps its defaults."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
