"""Hypothesis profiles.  `pytest --hypothesis-profile=ci` prints a
``@reproduce_failure`` line with every failing example, so a failure seen
only in CI can be replayed locally; per-test settings are unchanged."""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
