"""Hypothesis profiles.

The default profile draws the same examples on every run (derandomize,
no example database), so a tier-1 failure reproduces as it stands.  The
thorough profile draws fresh examples and more of them wherever a test
does not pin max_examples:

    python -m pytest --hypothesis-profile=thorough tests/test_entropy.py
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("thorough", max_examples=1000)
settings.load_profile("deterministic")
