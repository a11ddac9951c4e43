"""Physical observables of the eigenstates: side probabilities, mean position,
and the centered-interaction amplitude envelope.

The side probabilities and the mean position are read from the
compartment masses and first moments of `wavefn.compartment_rows`, one
loop over a grid of wave numbers that runs the lattice test and the
compartment formulas inline; ratio_grid and expectation_grid are its
"ratio" and "mean" readouts, and a one-element grid,
next(ratio_grid(setup, (nu,))), answers at one point.  The
probability ratio r(nu) is the right mass over the left mass away from the
lattice, extends continuously to the shared lattice with the exact value
1/q_ratio, and degenerates to 0 or infinity at one-sided lattice points,
where the state empties one compartment.  The position expectation weights
each compartment's centre of mass, a closed form in its own width, by its
mass, and collapses to exact values at distinguished points (x0 on the
shared lattice, x0/2 for the zero-energy state).  For the centered site
the normalized amplitude is governed by a single scalar envelope
gamma -> 1/sqrt(1 - sin(gamma)/gamma) whose extrema interlace the
half-integer multiples of pi.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

from .errors import BracketError, ConvergenceError, DomainError, InK
from .lattice import kappa_base
from .model import Setup
from .wavefn import compartment_rows
from ._special import one_minus_sinc


class AmplitudeExtremum(NamedTuple):
    """One extremum of the centered-site amplitude envelope."""

    n: int
    gamma_crit: float
    value: float
    bracket: Tuple[float, float]


# ============================================================
# Probability ratio
# ============================================================


def ratio_grid(setup: Setup, nus: Iterable[float]) -> Iterator[Tuple[float, float, Optional[str]]]:
    """Rows (nu, r, lattice kind or None) over nus, in order, r the
    right-to-left probability ratio at nu.

    Total on all inputs: a lattice point gives its continuous-limit value
    (1/q_ratio, 0 or inf) and its kind.  The rows are compartment_rows'
    "ratio" readout: one loop over the grid, each row made as it is drawn.
    """
    return compartment_rows(setup, nus, "ratio")


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
    # n pi (1 -/+ 2 x0 / L) = pi n (q -/+ p) / q, the quotient of integers
    # rounded once, so no rounding of x0 or 2 x0 / L reaches the phases.
    p, q = setup.p, setup.q
    ratio_arg_right = math.pi * ((n * (q - p)) / q)
    ratio_arg_left = math.pi * ((n * (q + p)) / q)
    return (
        setup.q_ratio
        * one_minus_sinc(ratio_arg_right)
        / one_minus_sinc(ratio_arg_left)
    )


# ============================================================
# Position expectation
# ============================================================


def expectation_grid(
    setup: Setup, nus: Iterable[float], skip_one_sided: bool = True
) -> Iterator[Tuple[float, float]]:
    """Rows (nu, Ex) over nus, in order, Ex the mean position at nu.

    Exact shortcuts: x0 on the shared lattice, x0/2 for the linear state
    (inside the linear window), 0 for a centered site (every state is then
    symmetric or antisymmetric).  One-sided lattice points have no
    two-sided state: their rows are left out, or raise SingularPoint when
    skip_one_sided is False.  The rows are compartment_rows' "mean"
    readout: one loop over the grid, each row made as it is drawn, as
    x0 + (right d_right - left d_left) / (left + right).
    """
    return compartment_rows(setup, nus, "mean", skip_one_sided)


# ============================================================
# Centered-site amplitude envelope
# ============================================================


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
