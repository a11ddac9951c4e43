"""Physical observables of the eigenstates: side probabilities, mean position,
and the centered-interaction amplitude envelope.

The probability ratio r(nu) compares the mass of the normalized state right
of the interaction site to the mass left of it.  It is defined by closed
forms away from the lattice, extends continuously to the shared lattice with
the exact value 1/q_ratio, and degenerates to 0 or infinity at one-sided
lattice points, where the state empties one compartment.  The position
expectation admits closed antiderivatives on all branches and collapses to
exact values at distinguished points (x0 on the shared lattice, x0/2 for the
zero-energy state).  For the centered site the normalized amplitude is
governed by a single scalar envelope gamma -> 1/sqrt(1 - sin(gamma)/gamma)
whose extrema interlace the half-integer multiples of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import BracketError, ConvergenceError, DomainError, InK, SingularPoint
from .lattice import LatticePoint, kappa_base, lattice_point_at
from .model import Setup
from ._special import (
    LOG_SWITCH,
    log_sinh,
    log_sinhc_minus_one,
    one_minus_sinc,
    sinhc_minus_one,
)


@dataclass(frozen=True)
class RatioPoint:
    """Probability ratio at one branch parameter.

    r is the right-to-left probability ratio, math.inf at right-side lattice
    points.  at_lattice carries the lattice point when nu sits on one.
    """

    nu: float
    r: float
    at_lattice: Optional[LatticePoint] = None


@dataclass(frozen=True)
class AmplitudeExtremum:
    """One extremum of the centered-site amplitude envelope."""

    n: int
    gamma_crit: float
    value: float
    bracket: Tuple[float, float]


# ============================================================
# Probability ratio
# ============================================================


def prob_ratio(setup: Setup, nu: float) -> RatioPoint:
    """Right-to-left probability ratio of the normalized state at nu.

    Total on all inputs: lattice points return their continuous-limit
    values (1/q_ratio on the shared lattice, 0 at left-side points, inf at
    right-side points) so that parameter sweeps need no special casing.
    """
    w1 = setup.width_right
    w2 = setup.width_left
    hit = lattice_point_at(setup, nu)
    if hit is not None:
        if hit.kind == "both":
            return RatioPoint(nu, 1.0 / setup.q_ratio, hit)
        if hit.kind == "under":
            return RatioPoint(nu, 0.0, hit)
        return RatioPoint(nu, math.inf, hit)
    if nu > 0:
        s1 = math.sin((nu / 2) * w1)
        s2 = math.sin((nu / 2) * w2)
        num = s2 * s2 * (w1 / 2) * one_minus_sinc(nu * w1)
        den = s1 * s1 * (w2 / 2) * one_minus_sinc(nu * w2)
        return RatioPoint(nu, num / den)
    if nu == 0:
        return RatioPoint(nu, setup.q_ratio)
    t = -nu
    if t * setup.L < LOG_SWITCH:
        sh1 = math.sinh(t * w1 / 2)
        sh2 = math.sinh(t * w2 / 2)
        num = sh2 * sh2 * (w1 / 2) * sinhc_minus_one(t * w1)
        den = sh1 * sh1 * (w2 / 2) * sinhc_minus_one(t * w2)
        return RatioPoint(nu, num / den)
    log_num = 2 * log_sinh(t * w2 / 2) + math.log(w1 / 2) + log_sinhc_minus_one(t * w1)
    log_den = 2 * log_sinh(t * w1 / 2) + math.log(w2 / 2) + log_sinhc_minus_one(t * w2)
    return RatioPoint(nu, math.exp(log_num - log_den))


def prob_ratio_at_mode(setup: Setup, n: int) -> float:
    """Ratio at the n-th free-mode value, reduced to a sinc quotient.

    At free modes the two half-wave amplitudes coincide in magnitude, so the
    ratio depends only on the compartment widths.  Tends to q_ratio as
    n grows.  Raises InK when the mode sits on the shared lattice, where the
    state empties no compartment and the reduced formula does not apply.
    """
    if n < 1:
        raise DomainError(f"mode number must be >= 1, got {n!r}")
    if n % kappa_base(setup) == 0:
        raise InK(f"mode n={n} lies on the shared lattice")
    ratio_arg_right = n * math.pi * (1 - 2 * setup.x0_value / setup.L)
    ratio_arg_left = n * math.pi * (1 + 2 * setup.x0_value / setup.L)
    return (
        setup.q_ratio
        * one_minus_sinc(ratio_arg_right)
        / one_minus_sinc(ratio_arg_left)
    )


# ============================================================
# Position expectation
# ============================================================


def _trig_antideriv_left(nu: float, L: float, x: float) -> float:
    """Antiderivative of x*sin((nu/2)(L/2+x))**2."""
    theta = nu * (L / 2 + x)
    return x * x / 4 - (x / (2 * nu)) * math.sin(theta) - math.cos(theta) / (
        2 * nu * nu
    )


def _trig_antideriv_right(nu: float, L: float, x: float) -> float:
    """Antiderivative of x*sin((nu/2)(L/2-x))**2."""
    theta = nu * (L / 2 - x)
    return x * x / 4 + (x / (2 * nu)) * math.sin(theta) - math.cos(theta) / (
        2 * nu * nu
    )


def _hyper_antideriv_left(t: float, L: float, x: float) -> float:
    """Antiderivative of x*sinh((t/2)(L/2+x))**2."""
    theta = t * (L / 2 + x)
    return -x * x / 4 + (x / (2 * t)) * math.sinh(theta) - math.cosh(theta) / (
        2 * t * t
    )


def _hyper_antideriv_right(t: float, L: float, x: float) -> float:
    """Antiderivative of x*sinh((t/2)(L/2-x))**2."""
    theta = t * (L / 2 - x)
    return -x * x / 4 - (x / (2 * t)) * math.sinh(theta) - math.cosh(theta) / (
        2 * t * t
    )


# Series coefficients of sin(z)**2 = sum_j (-1)**(j+1) _SIN2_COEFF[j-1] z**(2j)
# (and of sinh(z)**2 with all signs positive): 2**(2j-1) / (2j)!.
_SIN2_COEFF = (
    1.0,
    1.0 / 3.0,
    2.0 / 45.0,
    1.0 / 315.0,
    512.0 / 3628800.0,
    2048.0 / 479001600.0,
)

# Below this value of |nu| * L the antiderivative differences cancel to
# noise and the expectation integrals are summed as power series instead.
_EXPECTATION_SERIES_SWITCH = 0.5


def _expectation_series(setup: Setup, nu: float) -> float:
    """Mean position for small |nu|, via the sin^2 / sinh^2 power series.

    The closed antiderivatives lose all significance as nu -> 0 (their
    1/nu**2 terms cancel only analytically), while the piecewise integrals
    expand in even powers of nu with smooth coefficients.  Six terms leave a
    relative truncation error below 1e-17 at the switch point.
    """
    w1 = setup.width_right
    w2 = setup.width_left
    L = setup.L
    beta = (nu / 2) ** 2
    alternating = nu > 0
    if alternating:
        amp1 = math.sin((nu / 2) * w1) ** 2
        amp2 = math.sin((nu / 2) * w2) ** 2
    else:
        amp1 = math.sinh((nu / 2) * w1) ** 2
        amp2 = math.sinh((nu / 2) * w2) ** 2

    def piece(w: float) -> tuple:
        """(integral of amp^2, integral of u * amp^2) over u in [0, w]."""
        total_a = 0.0
        total_b = 0.0
        power = 1.0
        for j, coeff in enumerate(_SIN2_COEFF, start=1):
            power *= beta * w * w
            sign = -1.0 if (alternating and j % 2 == 0) else 1.0
            total_a += sign * coeff * power * w / (2 * j + 1)
            total_b += sign * coeff * power * w * w / (2 * j + 2)
        return total_a, total_b

    a2, b2 = piece(w2)
    a1, b1 = piece(w1)
    numer = amp1 * (b2 - (L / 2) * a2) + amp2 * ((L / 2) * a1 - b1)
    denom = amp1 * a2 + amp2 * a1
    return numer / denom


def _expectation_hyper_scaled(setup: Setup, t: float) -> float:
    """Mean position for deep evanescent states, rescaled by exp(-t*L).

    Every sinh/cosh is replaced by its dominant exponential times a bounded
    correction, so the quotient stays finite for arbitrarily large t and
    tends to x0 as t grows.
    """
    w1 = setup.width_right
    w2 = setup.width_left
    x0 = setup.x0_value
    big1 = t * w1
    big2 = t * w2
    e1 = math.exp(-big1)
    e2 = math.exp(-big2)
    ee1 = math.exp(-2 * big1)
    ee2 = math.exp(-2 * big2)
    amp_left = (1 - e1) ** 2 / 4
    amp_right = (1 - e2) ** 2 / 4
    int_left = (
        (x0 / (4 * t)) * (1 - ee2)
        - ((1 + ee2) / 2 - e2) / (2 * t * t)
        + e2 * w1 * w2 / 4
    )
    int_right = (
        (x0 / (4 * t)) * (1 - ee1)
        + ((1 + ee1) / 2 - e1) / (2 * t * t)
        - e1 * w1 * w2 / 4
    )
    norm2 = amp_left * (w2 / 2) * ((1 - ee2) / (2 * big2) - e2) + amp_right * (
        w1 / 2
    ) * ((1 - ee1) / (2 * big1) - e1)
    return (amp_left * int_left + amp_right * int_right) / norm2


def expectation_x(setup: Setup, nu: float) -> float:
    """Mean position of the normalized state at branch parameter nu.

    Exact shortcuts: x0 on the shared lattice, x0/2 for the zero-energy
    state, 0 for a centered site (every state is then symmetric or
    antisymmetric).  One-sided lattice points have no two-sided state and
    raise SingularPoint.
    """
    hit = lattice_point_at(setup, nu)
    if hit is not None:
        if hit.kind == "both":
            return setup.x0_value
        raise SingularPoint(
            f"nu={nu!r} is a one-sided lattice point; the state is not defined there"
        )
    if setup.x0_value == 0.0:
        return 0.0
    if nu == 0:
        return setup.x0_value / 2
    if abs(nu) * setup.L <= _EXPECTATION_SERIES_SWITCH:
        return _expectation_series(setup, nu)
    w1 = setup.width_right
    w2 = setup.width_left
    x0 = setup.x0_value
    L = setup.L
    if nu > 0:
        s1 = math.sin((nu / 2) * w1)
        s2 = math.sin((nu / 2) * w2)
        left = s1 * s1 * (
            _trig_antideriv_left(nu, L, x0) - _trig_antideriv_left(nu, L, -L / 2)
        )
        right = s2 * s2 * (
            _trig_antideriv_right(nu, L, L / 2) - _trig_antideriv_right(nu, L, x0)
        )
        norm2 = s1 * s1 * (w2 / 2) * one_minus_sinc(nu * w2) + s2 * s2 * (
            w1 / 2
        ) * one_minus_sinc(nu * w1)
        return (left + right) / norm2
    t = -nu
    if t * setup.L >= LOG_SWITCH:
        return _expectation_hyper_scaled(setup, t)
    sh1 = math.sinh(t * w1 / 2)
    sh2 = math.sinh(t * w2 / 2)
    left = sh1 * sh1 * (
        _hyper_antideriv_left(t, L, x0) - _hyper_antideriv_left(t, L, -L / 2)
    )
    right = sh2 * sh2 * (
        _hyper_antideriv_right(t, L, L / 2) - _hyper_antideriv_right(t, L, x0)
    )
    norm2 = sh1 * sh1 * (w2 / 2) * sinhc_minus_one(t * w2) + sh2 * sh2 * (
        w1 / 2
    ) * sinhc_minus_one(t * w1)
    return (left + right) / norm2


# ============================================================
# Centered-site amplitude envelope
# ============================================================


def gamma_factor(gamma: float) -> float:
    """Amplitude envelope 1/sqrt(1 - sin(gamma)/gamma) for a centered site.

    The envelope diverges like sqrt(6)/gamma as gamma -> 0, so arguments
    below 1e-3 are rejected rather than returned with catastrophic loss of
    meaning.
    """
    if not gamma >= 1e-3:
        raise DomainError(f"gamma must be >= 1e-3, got {gamma!r}")
    return 1.0 / math.sqrt(one_minus_sinc(gamma))


def _tan_fixed_point(lo: float, hi: float) -> float:
    """Root of tan(gamma) = gamma in [lo, hi] via bisection.

    Bisects g(gamma) = gamma*cos(gamma) - sin(gamma), which shares the roots
    of tan(gamma) - gamma but has no poles near the bracket.
    """

    def g(x: float) -> float:
        return x * math.cos(x) - math.sin(x)

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0) == (ghi > 0):
        raise BracketError(f"no sign change of gamma*cos-sin in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo < 1e-15 * hi:
            break
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (gm > 0) == (glo > 0):
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    return 0.5 * (lo + hi)


def _crit_bracket(half: float) -> Tuple[float, float]:
    """Bracket for the root of tan(gamma) = gamma near half*pi (half >= 1.5)."""
    return (half * math.pi - 1 / (3 * half), half * math.pi - 1 / (4 * half))


def amplitude_extrema(n: int) -> Tuple[AmplitudeExtremum, AmplitudeExtremum]:
    """Envelope extrema flanking the n-th odd mode of a centered site.

    Returns (max, min): the maximum of the envelope on ((n-1)pi, n*pi) and
    its minimum on (n*pi, (n+1)pi), located by bisection of the critical
    equation tan(gamma) = gamma inside half-integer brackets.  For n = 1 the
    supremum is attained in the gamma -> 0 limit of the weighted amplitude
    sin(gamma/2) * envelope, which equals sqrt(3/2) exactly; the minimum is
    computed as for every other n.  For n >= 3 the returned values are
    checked against the interlacing bounds

        max_n in (1 + 1/(2n pi) + 1/(3 n^2 pi^2),
                  1 + 1/(2(n-1) pi) + 1/(2 (n-1)^2 pi^2))
        min_n in (1 - 1/(2n pi) + 1/(3 n^2 pi^2),
                  1 - 1/(2(n+1) pi) + 1/(2 (n+1)^2 pi^2)).
    """
    if n < 1 or n % 2 == 0:
        raise DomainError(f"n must be odd and >= 1, got {n!r}")
    lo_min, hi_min = _crit_bracket(n + 0.5)
    gamma_min = _tan_fixed_point(lo_min, hi_min)
    value_min = 1.0 / math.sqrt(1.0 + 1.0 / math.sqrt(1.0 + gamma_min * gamma_min))
    minimum = AmplitudeExtremum(n, gamma_min, value_min, (lo_min, hi_min))
    if n == 1:
        maximum = AmplitudeExtremum(1, 0.0, math.sqrt(1.5), (0.0, 0.0))
        return maximum, minimum
    lo_max, hi_max = _crit_bracket(n - 0.5)
    gamma_max = _tan_fixed_point(lo_max, hi_max)
    value_max = 1.0 / math.sqrt(1.0 - 1.0 / math.sqrt(1.0 + gamma_max * gamma_max))
    maximum = AmplitudeExtremum(n, gamma_max, value_max, (lo_max, hi_max))
    npi = n * math.pi
    if not 1 + 1 / (2 * npi) + 1 / (3 * npi * npi) < value_max < 1 + 1 / (
        2 * (n - 1) * math.pi
    ) + 1 / (2 * ((n - 1) * math.pi) ** 2):
        raise ConvergenceError(
            f"envelope maximum {value_max!r} of mode {n} is outside its interlacing bounds"
        )
    mpi = (n + 1) * math.pi
    if not 1 - 1 / (2 * npi) + 1 / (3 * npi * npi) < value_min < 1 - 1 / (
        2 * mpi
    ) + 1 / (2 * mpi * mpi):
        raise ConvergenceError(
            f"envelope minimum {value_min!r} of mode {n} is outside its interlacing bounds"
        )
    return maximum, minimum
