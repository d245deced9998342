"""Tier-1 runs every hypothesis property at a fixed seed: each keeps its
own `max_examples`, and `derandomize` fixes the seed, but not the draws.
Hypothesis also draws from the literal constants it finds in every loaded
module outside site-packages, so the examples a property draws change with
the modules a session has imported (collecting `test_localization`, which
loads `equiloc.useries`, is enough).  A failure therefore prints its
`@reproduce_failure` blob (`print_blob`), which replays the failing example
when the test runs alone."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.load_profile("tier1")
