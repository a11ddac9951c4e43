"""Example counts of the property tests.

Each @given test takes its settings from `examples(n)`: n examples and no
deadline.  Under `pytest --hypothesis-profile stress` every count is
STRESS_FACTOR times larger, for the stress job beside Tier-1.  The profile
is registered here, and conftest.py imports this module so that it exists
before pytest loads it.
"""

from hypothesis import settings

STRESS_FACTOR = 10

settings.register_profile("stress")


def examples(n: int) -> settings:
    """settings(max_examples=n, deadline=None), with n scaled by
    STRESS_FACTOR under the stress profile."""
    if settings.get_current_profile_name() == "stress":
        n *= STRESS_FACTOR
    return settings(max_examples=n, deadline=None)
