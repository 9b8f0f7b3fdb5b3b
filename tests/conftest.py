"""Hypothesis profiles.

`ci` runs every property test on 1000 examples, with no deadline and a
derandomized search, so a failure in CI reproduces on any machine:

    python -m pytest --hypothesis-profile=ci

Runs without the option keep Hypothesis's default profile.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None, derandomize=True)
