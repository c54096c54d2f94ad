"""Test-wide Hypothesis settings: a failing property prints the
@reproduce_failure blob, so that a failure found on one machine (whose
example database stays there) can be replayed on another."""

from hypothesis import settings

settings.register_profile("vanvisc", print_blob=True)
settings.load_profile("vanvisc")
