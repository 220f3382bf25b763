"""Shared test settings.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples; a bounded example count, so the suite stays fast;
no deadline, so a slow machine does not fail a correct test; and no example
database, so a run writes nothing into the tree.
"""

from hypothesis import settings

settings.register_profile("dratkit", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("dratkit")
