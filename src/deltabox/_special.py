"""Numerically careful scalar helpers shared across modules.

The closed forms in this package repeatedly need 1 - sin(y)/y and
sinh(y)/y - 1, which cancel catastrophically for small y, and a rescaling
of sinh expressions that overflow for large arguments.  These helpers and
constants hold the series switch, the linear window and the switch to the
large-argument forms of an evanescent compartment, so every module uses
the same conventions.
"""

from __future__ import annotations

import math

# Below this argument 1 - sin(y)/y and sinh(y)/y - 1 are summed as power
# series; above it the direct forms lose at most a digit to cancellation.
SERIES_SWITCH = 0.5

# Below this value of |nu| * L the state equals the nu = 0 linear state to
# rounding: its corrections are of relative order (nu * L)**2, under an ulp.
LINEAR_WINDOW = 2.0**-27

# From this value of y = |nu| * w on, for one compartment of width w of an
# evanescent state, sinh(y/2)**2 exp(-y), exp(-y) (sinh(y)/y - 1) and the
# mean distance from the site are 1/4, 0.5/y and w/y to rounding; sinh
# itself overflows near 710.
LOG_SWITCH = 600.0

# 1/(2k+1)! for k = 1..7, the Taylor coefficients in y**2 of sinh(y)/y - 1
# (alternating in sign for 1 - sin(y)/y).  The first omitted term is below
# 1e-18 of the sum at SERIES_SWITCH.
_SERIES = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 8))


def _even_series(y: float, sign: float) -> float:
    z = y * y
    acc = 0.0
    for coeff in reversed(_SERIES):
        acc = coeff + sign * z * acc
    return z * acc


def one_minus_sinc(y: float) -> float:
    """1 - sin(y)/y without cancellation near y = 0."""
    if abs(y) < SERIES_SWITCH:
        return _even_series(y, -1.0)
    return 1.0 - math.sin(y) / y


def sinhc_minus_one(y: float) -> float:
    """sinh(y)/y - 1 without cancellation near y = 0 (y < ~700)."""
    if abs(y) < SERIES_SWITCH:
        return _even_series(y, 1.0)
    return math.sinh(y) / y - 1.0

