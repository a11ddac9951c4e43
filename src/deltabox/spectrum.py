"""Dispersion relation between interaction strength and wave number.

The quantization condition for the point interaction reads

    alpha / c = f(nu),

where f is evaluated per branch:

    nu > 0:  f(nu) = -(nu/2) [cot((nu/2) w1) + cot((nu/2) w2)]
    nu = 0:  f(0)  = -L / (L^2/4 - x0^2)
    nu < 0:  f(nu) = -(t/2) [coth((t/2) w1) + coth((t/2) w2)],  t = -nu

with w1 = L/2 - x0 and w2 = L/2 + x0.  The cot/coth forms are used because
they stay numerically clean away from the lattice poles; a two-sided series
in nu takes over below |nu| w2 / 2 = 1e-4, where the cotangents would
cancel catastrophically against each other.  f is continuous across nu = 0,
strictly increasing on every lattice interval, and maps each interval onto
all of R, which makes alpha -> nu on a fixed interval a well-posed root
finding problem solved here by safeguarded Newton inside the bracket of
the interval's own poles.

f equals the eigenfunction's derivative-jump ratio at x0 (the weak form of
the point interaction), which is pinned by a dedicated test; the returned
value is exposed both raw (dispersion) and scaled by c (alpha_from_nu).
Both are absolute: f is an inverse length and alpha = c f(nu) is c per
length; dividing alpha by c * nu_n(setup, 1) = 2 pi c / L gives the
dimensionless coupling scale in which the paper's values are quoted.

analytic_levels assembles the spectrum from these roots: one level per
partition interval plus the free modes on the shared lattice.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from .errors import ConvergenceError, DomainError, SingularPoint
from .lattice import (
    POINT_BUDGET,
    IntervalDescriptor,
    kappa_base,
    nearest_lattice_point,
    partition,
    singular_guard_radius,
    underline_nu,
)
from .model import Setup, nu_n

# Below this value of |nu| w2 / 2 the series expansion around nu = 0 is used.
# It is not _special.SERIES_SWITCH: it guards the cancellation of the
# cot/coth terms of the dispersion function and its Newton derivative, a
# different series that stops at nu**4 and so needs the smaller switch.
_SERIES_THRESHOLD = 1e-4

# ======================================================================
# Evaluation
# ======================================================================


def _check_not_singular(setup: Setup, nu: float) -> None:
    if nu <= 0:
        return
    _, dist = nearest_lattice_point(setup, nu)
    if dist < singular_guard_radius(setup):
        raise SingularPoint(f"nu = {nu} is within guard radius of a lattice point")


def _coth(z: float) -> float:
    return 1.0 / math.tanh(z)

def _csch2(z: float) -> float:
    # 1/sinh^2 z; underflows to 0 for large z instead of overflowing.
    if z > 300:
        return 0.0
    return (1.0 / math.sinh(z)) ** 2


def _value_and_derivative(setup: Setup, nu: float) -> tuple[float, float]:
    w1, w2 = setup.width_right, setup.width_left
    if abs(nu) * w2 / 2 < _SERIES_THRESHOLD:
        # Even series around nu = 0, valid on both branches: the quadratic
        # term changes sign with the branch, the quartic does not.
        try:
            g0 = -setup.L / (setup.L**2 / 4 - setup.x0_value**2)
        except ZeroDivisionError:
            raise ZeroDivisionError(f"L**2/4 - x0**2 underflows to 0 at L = {setup.L!r}") from None
        s3 = w1**3 + w2**3
        sign = 1.0 if nu >= 0 else -1.0
        value = g0 + sign * nu**2 * setup.L / 12 + nu**4 * s3 / 720
        return value, sign * nu * setup.L / 6 + nu**3 * s3 / 180
    if nu > 0:
        a1, a2 = nu / 2 * w1, nu / 2 * w2
        cot1, cot2 = 1 / math.tan(a1), 1 / math.tan(a2)
        csc1_sq, csc2_sq = 1 + cot1**2, 1 + cot2**2
        value = -(nu / 2) * (cot1 + cot2)
        deriv = -(cot1 + cot2) / 2 + (nu / 4) * (w1 * csc1_sq + w2 * csc2_sq)
        return value, deriv
    t = -nu
    c1, c2 = t / 2 * w1, t / 2 * w2
    coth1, coth2 = _coth(c1), _coth(c2)
    value = -(t / 2) * (coth1 + coth2)
    # d/dnu = -d/dt
    ddt = -(coth1 + coth2) / 2 + (t / 4) * (w1 * _csch2(c1) + w2 * _csch2(c2))
    return value, -ddt


def dispersion(setup: Setup, nu: float) -> float:
    """The dispersion value f(nu) = alpha / c, on any branch.

    Raises SingularPoint when nu lies within the guard radius of a lattice
    point (absolute radius 1e-12 of the first under point).
    """
    _check_not_singular(setup, nu)
    return _value_and_derivative(setup, nu)[0]


def alpha_from_nu(setup: Setup, nu: float) -> float:
    """Interaction strength with eigenfunction at wave number nu: c f(nu).

    The value is absolute (c per length); divide it by c * nu_n(setup, 1)
    to get the paper's dimensionless coupling scale alpha L / (2 pi c).
    """
    return setup.c * dispersion(setup, nu)


# ======================================================================
# Root solving
# ======================================================================


def solve_nu(setup: Setup, alpha: float, interval: IntervalDescriptor) -> float:
    """The unique nu in the interval with alpha_from_nu(nu) = alpha.

    The dispersion value rises from -inf to +inf between the interval's two
    poles, so they bracket the root as they stand (as in Bunch, Nielsen &
    Sorensen's secular equation and LAPACK dlaed4).  The solve stops once
    the bracket is 4e-16 relative wide, a few ulps, however close to a pole
    the root lies; it also stops at a
    Newton step that no longer moves nu (its correction is below half an
    ulp), as Newton-bisection hybrids do.  A ConvergenceError is raised when
    200 Newton or bisection steps leave the bracket wider than that.  On the
    unbounded leftmost interval the lower end is min(1.5 alpha/c,
    -underline_nu(setup, 1)), at least -sys.float_info.max: below the first
    pole coth > 1 gives f(nu) < nu, so f < alpha/c there; it scales with L.
    An alpha/c beyond float range raises OverflowError.
    """
    target = alpha / setup.c
    if math.isinf(target):
        raise OverflowError(
            f"alpha/c exceeds float range at alpha (--alpha) = {alpha!r}, c (--c) = {setup.c!r}"
        )
    lower = interval.lower
    lo = min(1.5 * target, -underline_nu(setup, 1)) if lower is None else lower.nu
    lo = max(lo, math.nextafter(-math.inf, 0.0))  # 1.5 alpha/c may overflow
    return _safeguarded_newton(setup, target, lo, interval.upper.nu)


def _safeguarded_newton(setup: Setup, target: float, lo: float, hi: float) -> float:
    # Invariant: f(lo) < target < f(hi), where an end may be a pole and f
    # its limit there; f is never evaluated at an end.  Newton steps are
    # taken only when they land strictly inside the bracket; otherwise
    # bisect.  A step that rounds back to x ends the solve: the bisections
    # that would follow only shrink the far side of the bracket, and its
    # midpoint is no better.
    x = 0.5 * (lo + hi)
    spacing = underline_nu(setup, 1)
    for _ in range(200):
        value, deriv = _value_and_derivative(setup, x)
        if value < target:
            lo = x
        else:
            hi = x
        tol = 4e-16 * max(abs(lo), abs(hi), spacing)
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        if deriv > 0:
            step = (value - target) / deriv
            candidate = x - step
            if candidate == x:
                return x
            if lo < candidate < hi:
                x = candidate
                continue
        x = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"Newton solve for alpha/c = {target!r} left bracket ({lo!r}, {hi!r}) after 200 steps"
    )


def analytic_levels(setup: Setup, alpha: float, count: int) -> List[Tuple[float, bool]]:
    """Lowest `count` analytic levels as (nu, is_mode) pairs.

    An eigenvalue is either the root of the coupling equation inside one
    partition interval, or a free mode on the shared lattice, which solves
    the problem for every coupling because it vanishes at the site.  The
    intervals and the modes are walked in order, a mode before any root
    above it, and the walk stops at `count` levels: an interval is solved
    only once every mode below its lower end is taken.  A mode on that end
    waits for the root, which a huge |alpha| can round onto it.
    Raises DomainError when the lattice this needs exceeds the point budget.
    """
    # Up to nu_max lie at most nu_max L / (2 pi) lattice points (partition).
    points = 1.5 * count + 8
    if points > POINT_BUDGET:
        raise DomainError(
            f"count = {count} needs up to {points:.3g} lattice points, "
            f"beyond the budget of {POINT_BUDGET:.0e}"
        )
    nu_max = points * 2 * math.pi / setup.L
    _, intervals = partition(setup, nu_max)
    base = kappa_base(setup)

    def walk() -> Iterator[Tuple[float, bool]]:
        n = base
        for iv in intervals:
            lower = -math.inf if iv.lower is None else iv.lower.nu
            while (mode := nu_n(setup, n)) < lower:
                yield mode, True
                n += base
            nu = solve_nu(setup, alpha, iv)
            while (mode := nu_n(setup, n)) < nu:
                yield mode, True
                n += base
            yield nu, False
        while (mode := nu_n(setup, n)) <= nu_max:
            yield mode, True
            n += base

    # zip draws from range first, so walk stops at the count-th level.
    levels = [level for _, level in zip(range(count), walk())]
    if len(levels) < count:
        raise DomainError(f"internal level budget too small for count={count}")
    return levels
