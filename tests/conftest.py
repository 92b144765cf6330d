"""Shared test settings.

Property tests run under one hypothesis profile: derandomised, so every run
draws the same examples, and with no per-example deadline, since timing on a
shared machine says nothing about correctness.
"""

from hypothesis import settings

settings.register_profile("affectfuse", derandomize=True, deadline=None)
settings.load_profile("affectfuse")
