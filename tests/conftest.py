"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; a bounded example count, so the suite stays fast;
no deadline, so a slow machine does not fail a correct test; and no example
database, so a run writes nothing into the tree.

digit_limit sets Python's int-to-decimal digit limit for one test, which
the text parsers' int() and the binary DRAT parser read.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("dratkit", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("dratkit")


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
