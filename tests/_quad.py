"""Composite Simpson quadrature helpers shared by the test modules.

The analytic code under test never uses these routines; they provide an
independent numerical check of norms, coefficients, and moments.  All
integrands in this project are piecewise smooth with at most one interior
kink (at the interaction site), so a split composite Simpson rule on a
uniform grid converges at fourth order and is plenty for 1e-8 comparisons.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable, Iterable, List, Sequence, Tuple


def simpson_nodes(a: float, b: float, n: int = 4001) -> Tuple[List[float], float]:
    """The n nodes of the composite Simpson rule on [a, b] (n odd, >= 3;
    an even n is raised by one) and their spacing h."""
    if n % 2 == 0:
        n += 1
    h = (b - a) / (n - 1)
    return [a, *(a + i * h for i in range(1, n - 1)), b], h


def simpson_values(ys: Sequence[float], h: float) -> float:
    """Composite Simpson rule from the integrand's values at simpson_nodes."""
    total = ys[0] + ys[-1]
    for i in range(1, len(ys) - 1):
        total += ys[i] * (4 if i % 2 else 2)
    return total * h / 3.0


def simpson(f: Callable[[float], float], a: float, b: float, n: int = 4001) -> float:
    """Composite Simpson rule with n sample points (n odd, >= 3)."""
    xs, h = simpson_nodes(a, b, n)
    return simpson_values(list(map(f, xs)), h)


def split_nodes(a: float, b: float, cut: float, n: int = 4001) -> List[Tuple[List[float], float]]:
    """simpson_split's panels as (nodes, h): [a, b] whole, or split at an
    interior cut."""
    if not a < cut < b:
        return [simpson_nodes(a, b, n)]
    return [simpson_nodes(a, cut, n), simpson_nodes(cut, b, n)]


def simpson_panels(panels: Iterable[Tuple[Sequence[float], float]]) -> float:
    """Sum of simpson_values over split_nodes' panels, given as (values, h)."""
    return reduce(add, (simpson_values(ys, h) for ys, h in panels))


def simpson_split(
    f: Callable[[float], float],
    a: float,
    b: float,
    cut: float,
    n: int = 4001,
) -> float:
    """Simpson rule split at an interior kink so each panel stays smooth."""
    return simpson_panels((list(map(f, xs)), h) for xs, h in split_nodes(a, b, cut, n))


def simpson_peaked(
    f: Callable[[float], float],
    a: float,
    b: float,
    center: float,
    width: float,
    n: int = 4001,
) -> float:
    """Integrate a function sharply peaked at an interior point.

    Uses a fine Simpson panel on [center - width, center + width] split at
    the peak, plus coarser panels on the flanks.  Suitable for the deeply
    bound states whose mass concentrates in an O(1/|nu|) neighborhood.
    """
    lo = max(a, center - width)
    hi = min(b, center + width)
    total = simpson_split(f, lo, hi, center, n)
    if lo > a:
        total += simpson(f, a, lo, n)
    if hi < b:
        total += simpson(f, hi, b, n)
    return total


def extrapolate_to_zero(eps: list, values: list) -> float:
    """Neville polynomial extrapolation of values(eps) to eps = 0."""
    pts = sorted(zip(eps, values))
    xs = [p[0] for p in pts]
    table = [p[1] for p in pts]
    k = len(xs)
    for level in range(1, k):
        for i in range(k - level):
            x_lo, x_hi = xs[i], xs[i + level]
            table[i] = (x_hi * table[i] - x_lo * table[i + 1]) / (x_hi - x_lo)
    return table[0]


def rel_err(value: float, reference: float, floor: float = 1e-300) -> float:
    """Relative error with a graceful scale floor."""
    scale = max(abs(reference), floor)
    return abs(value - reference) / scale


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def pi_multiple(n: int, denom: float) -> float:
    return 2.0 * n * math.pi / denom
