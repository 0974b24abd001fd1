"""Shared test configuration: one Hypothesis profile for the whole suite.

Exact arithmetic makes single examples slow at times, so no example has a
deadline; ``print_blob`` prints the reproduction blob of any failure.
"""

from hypothesis import settings

settings.register_profile("stabilis", deadline=None, print_blob=True)
settings.load_profile("stabilis")
