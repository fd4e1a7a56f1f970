"""Test-wide hypothesis settings.

Property tests run derandomized: each test draws its examples from a seed
derived from the test itself, and no example database is replayed, so two
checkouts of the suite test the same examples. Each test keeps its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
