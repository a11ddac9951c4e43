"""Numerically careful scalar helpers shared across modules.

The closed forms in this package repeatedly need 1 - sin(y)/y and
sinh(y)/y - 1, which cancel catastrophically for small y, and log-scale
evaluation of sinh expressions that overflow for large arguments.  These
helpers centralize the series switches and log identities so every module
uses the same conventions.
"""

from __future__ import annotations

import math

# Below this argument the quartic series replaces the direct expression.
_SMALL = 1e-4

# Beyond this value of |nu| * L the evanescent closed forms (norms, ratios,
# expansion prefactors) are evaluated in log space or rescaled by their
# dominant exponential; the direct sinh products overflow near 709.
LOG_SWITCH = 600.0


def sinc(y: float) -> float:
    """sin(y)/y with the removable singularity filled in."""
    if abs(y) < _SMALL:
        y2 = y * y
        return 1.0 - y2 / 6 * (1.0 - y2 / 20)
    return math.sin(y) / y


def one_minus_sinc(y: float) -> float:
    """1 - sin(y)/y without cancellation near y = 0."""
    if abs(y) < _SMALL:
        y2 = y * y
        return y2 / 6 * (1.0 - y2 / 20)
    return 1.0 - math.sin(y) / y


def sinhc_minus_one(y: float) -> float:
    """sinh(y)/y - 1 without cancellation near y = 0 (y < ~700)."""
    if abs(y) < _SMALL:
        y2 = y * y
        return y2 / 6 * (1.0 + y2 / 20)
    return math.sinh(y) / y - 1.0


def log_sinh(z: float) -> float:
    """log(sinh(z)) for z > 0, stable for arbitrarily large z."""
    if z < 20:
        return math.log(math.sinh(z))
    return z - math.log(2.0) + math.log1p(-math.exp(-2 * z))


def log_sinhc_minus_one(y: float) -> float:
    """log(sinh(y)/y - 1) for y > 0, stable for arbitrarily large y."""
    if y < 40:
        return math.log(sinhc_minus_one(y))
    return y - math.log(2 * y) + math.log1p(-math.exp(-2 * y) - 2 * y * math.exp(-y))


def log_add_exp(a: float, b: float) -> float:
    """log(exp(a) + exp(b)) without overflow."""
    hi, lo = (a, b) if a >= b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def hardened_floor(y: float) -> int:
    """floor(y) with arguments within 1e-12 of an integer snapped first.

    Sign-factor exponents flip exactly at lattice points, where evaluation
    is guarded anyway; snapping keeps the factor stable against the last-ulp
    noise of arguments that are meant to be integers.
    """
    r = round(y)
    if abs(y - r) < 1e-12:
        return int(r)
    return math.floor(y)
