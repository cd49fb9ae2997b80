"""Suite-wide test settings.

Hypothesis draws the same examples on every run (``derandomize`` seeds
each test from a hash of its function and turns off the example
database), so the suite's verdict and its wall time do not change from
one run to the next.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
