"""Tier-1 runs every hypothesis property at a fixed seed: each keeps its
own `max_examples`, and `derandomize` draws the same examples every run."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
