"""Test settings shared by every module.

The `ci` Hypothesis profile draws the same examples on every run, so a
property test that fails in CI fails the same way locally with
`pytest --hypothesis-profile=ci`.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
