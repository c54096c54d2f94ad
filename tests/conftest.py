"""Test-wide Hypothesis settings: a failing property prints the
@reproduce_failure blob, so that a failure found on one machine (whose
example database stays there) can be replayed on another, and no example has
a deadline, since the properties solve Riemann problems and run front
tracking, whose time per example varies with the draw and the machine."""

from hypothesis import settings

settings.register_profile("vanvisc", print_blob=True, deadline=None)
settings.load_profile("vanvisc")
