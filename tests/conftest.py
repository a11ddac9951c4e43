"""Registers the "stress" hypothesis profile (see _examples.py) before
pytest reads --hypothesis-profile."""

import _examples  # noqa: F401
