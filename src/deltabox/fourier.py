"""Expansions of the interacting states in the free-box sine basis.

Every normalized eigenfunction and every limit state is square-integrable on
the box, so it expands in the free modes Phi_m.  The overlap integrals all
collapse to closed forms proportional to Phi_m(x0) over a resonance
denominator, so the coefficients decay like 1/m**2 and partial sums converge
uniformly.  This module produces those coefficient lists, evaluates partial
sums by Clenshaw's recurrence with the angle taken from the nearer wall, and
reports a tail estimate alongside every expansion.

Sign prefactors reuse the conventions of `wavefn` and the exact lattice
floors of `lattice`, so the expansions converge to the states as defined
there, not merely up to sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .errors import DomainError, InK
from .lattice import (
    LIMIT_WINDOW_RTOL,
    over_in_shared,
    shared_mode,
    shared_mode_near,
    under_floor,
    under_in_shared,
)
from .model import Setup, check_in_box, nu_n, phi_modes
from .wavefn import WaveKind, deep_rho, rho, trig_left_sign
from ._special import LINEAR_WINDOW, LOG_SWITCH

# Default truncation order; the 1/m**2 decay puts the sup-norm tail near
# a few parts in M.
DEFAULT_M = 4096

# Relative snap radius for recognizing nu as a free-mode value nu_n, where
# the expansion is exactly one-hot.
_MODE_SNAP_RTOL = 1e-12


@dataclass(frozen=True)
class FourierExpansion:
    """Truncated sine-basis expansion of one state.

    coefficients holds (m, a_m) pairs for m = 1..M.  tail_bound estimates
    the sup-norm of the dropped tail from the measured 1/m**2 envelope.
    """

    kind: WaveKind
    coefficients: List[Tuple[int, float]]
    M: int
    setup: Setup
    tail_bound: float


def _finish(setup: Setup, kind: WaveKind, coeffs: List[Tuple[int, float]]) -> FourierExpansion:
    envelope = max((abs(a) * m * m for m, a in coeffs), default=0.0)
    tail = math.sqrt(2 / setup.L) * envelope / max(len(coeffs), 1)
    return FourierExpansion(kind, coeffs, len(coeffs), setup, tail)


def _one_hot(setup: Setup, kind: WaveKind, n: int, M: int) -> FourierExpansion:
    coeffs = [(m, 1.0 if m == n else 0.0) for m in range(1, M + 1)]
    return FourierExpansion(kind, coeffs, M, setup, 0.0)


def _check_m(M: int) -> None:
    if M < 1:
        raise DomainError(f"truncation order must be >= 1, got {M!r}")


# ============================================================
# General states (any branch parameter nu)
# ============================================================


def coeffs_general(setup: Setup, nu: float, M: int = DEFAULT_M) -> FourierExpansion:
    """Expansion of the normalized eigenfunction at branch parameter nu.

    Within the limit-state window around a shared-lattice value (1e-8
    relative, as in wavefn.eval_normalized) the state is the continuous
    limit state and its expansion is coeffs_upsilon_hat.  At any other
    free-mode value (within 1e-12 relative) the state is the free mode
    itself and the expansion is exactly one-hot.  Inside the linear window
    (|nu| L < LINEAR_WINDOW) the state is the nu = 0 linear state.  Elsewhere
    a_m = c * Phi_m(x0) / D_m with the branch-dependent resonance
    denominator D_m and prefactor c; the oscillatory and evanescent branches
    differ in the sign of the nu**2/4 term and in sin versus sinh.
    """
    _check_m(M)
    shared = shared_mode_near(setup, nu, LIMIT_WINDOW_RTOL)
    if shared is not None:
        return coeffs_upsilon_hat(setup, nu_n(setup, shared), M)
    if abs(nu) * setup.L < LINEAR_WINDOW:
        nu = 0.0
    if nu > 0:
        n_guess = round(nu / nu_n(setup, 1))
        if n_guess >= 1 and abs(nu - nu_n(setup, n_guess)) <= _MODE_SNAP_RTOL * nu:
            return _one_hot(setup, WaveKind.trig(), n_guess, M)
        pref = trig_left_sign(setup, nu) * (nu / (2 * rho(setup, nu))) * math.sin(
            nu * setup.L / 2
        )
        kind = WaveKind.trig()

        def denom(m: int) -> float:
            return (math.pi * m / setup.L) ** 2 - (nu / 2) ** 2

    elif nu == 0:
        pref = 4 * math.sqrt(3) * math.sqrt(setup.L) / (
            setup.L**2 - 4 * setup.x0_value**2
        )
        kind = WaveKind.linear()

        def denom(m: int) -> float:
            return (math.pi * m / setup.L) ** 2

    else:
        t = -nu
        kind = WaveKind.hyper()
        if t * setup.L < LOG_SWITCH:
            pref = (t / (2 * rho(setup, nu))) * math.sinh(t * setup.L / 2)

            def denom(m: int) -> float:
                return (math.pi * m / setup.L) ** 2 + (t / 2) ** 2

        else:
            # sinh(t L / 2) / rho = -expm1(-t L) / (2 deep_rho); the factor
            # t / 2 moves into the denominator, which would overflow near t**2.
            pref = -math.expm1(-t * setup.L) / (2 * deep_rho(setup, nu))

            def denom(m: int) -> float:
                return (math.pi * m / setup.L) ** 2 / (t / 2) + t / 2

    phi0 = phi_modes(setup, M, setup.x0_value)
    coeffs = [(m, pref * f / denom(m)) for m, f in enumerate(phi0, start=1)]
    return _finish(setup, kind, coeffs)


# ============================================================
# Limit states
# ============================================================


def coeffs_upsilon_hat(
    setup: Setup, nu_hat: float, M: int = DEFAULT_M
) -> FourierExpansion:
    """Expansion of the continuous limit state at shared-lattice value nu_hat.

    a_m = c_p * Phi_m(x0) / (m**2 - p**2) for m != p, and a_p = 0 exactly:
    the limit state is orthogonal to the free mode it replaces, and to every
    mode that vanishes at x0.
    """
    _check_m(M)
    p = shared_mode(setup, nu_hat)
    pref = (
        math.cos((p * math.pi / setup.L) * (setup.L / 2 - setup.x0_value))
        * 2
        * math.sqrt(2)
        * p
        * setup.L ** 1.5
        / (math.pi * math.sqrt(setup.L**2 - 4 * setup.x0_value**2))
    )
    phi0 = phi_modes(setup, M, setup.x0_value)
    coeffs = [
        (m, 0.0 if m == p else pref * f / (m * m - p * p))
        for m, f in enumerate(phi0, start=1)
    ]
    return _finish(setup, WaveKind.limit_hat(), coeffs)


def coeffs_upsilon_under(
    setup: Setup, k: int, M: int = DEFAULT_M, side: str = "below"
) -> FourierExpansion:
    """Expansion of the left one-sided limit state with index k.

    Denominators (L/2 + x0)**2 m**2 - L**2 k**2 never vanish for valid k:
    a vanishing one would place the k-th left value on the free-mode lattice
    and hence on the shared lattice, which upsilon_under rejects.  side
    selects the coupling path; "above" negates every coefficient.
    """
    _check_m(M)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k!r}")
    if side not in ("below", "above"):
        raise DomainError(f"side must be 'below' or 'above', got {side!r}")
    if under_in_shared(setup, k) is not None:
        raise InK(f"left lattice index k={k} lies on the shared lattice")
    exponent = 1 + (under_floor(setup, k) - k)
    sign = -1.0 if exponent % 2 else 1.0
    if side == "above":
        sign = -sign
    pref = sign * k * setup.L**2 * math.sqrt(setup.L + 2 * setup.x0_value) / math.pi
    w2 = setup.width_left
    phi0 = phi_modes(setup, M, setup.x0_value)
    coeffs = [
        (m, pref * f / (w2 * w2 * m * m - setup.L**2 * k * k))
        for m, f in enumerate(phi0, start=1)
    ]
    return _finish(setup, WaveKind.limit_under(k, side), coeffs)


def coeffs_upsilon_over(setup: Setup, l: int, M: int = DEFAULT_M) -> FourierExpansion:
    """Expansion of the right one-sided limit state with index l."""
    _check_m(M)
    if l < 1:
        raise DomainError(f"l must be >= 1, got {l!r}")
    if over_in_shared(setup, l) is not None:
        raise InK(f"right lattice index l={l} lies on the shared lattice")
    sign = -1.0 if l % 2 else 1.0
    pref = sign * l * setup.L**2 * math.sqrt(setup.L - 2 * setup.x0_value) / math.pi
    w1 = setup.width_right
    phi0 = phi_modes(setup, M, setup.x0_value)
    coeffs = [
        (m, pref * f / (w1 * w1 * m * m - setup.L**2 * l * l))
        for m, f in enumerate(phi0, start=1)
    ]
    return _finish(setup, WaveKind.limit_over(l), coeffs)


# ============================================================
# Evaluation
# ============================================================


def partial_sum(expansion: FourierExpansion, x: float) -> float:
    """Sum_{m<=M} a_m Phi_m(x) by Clenshaw's recurrence from the nearer wall.

    Phi_m(x) = sqrt(2/L) sin(m theta_R) with theta_R = pi (L/2 - x) / L, and
    Clenshaw (1955) gives the sum as sqrt(2/L) b_1 sin(theta_R) with
    b_m = a_m + 2 cos(theta_R) b_{m+1} - b_{m+2}.  The angle is taken from
    the nearer wall, theta = pi (L/2 - |x|) / L (theta_R, or pi - theta_R
    left of the centre), an exact small difference there, whereas theta_R
    itself rounds near pi at the left wall.  Within pi/3 of a wall,
    2 cos(theta_R) = +/-(2 - lam) with lam = 4 sin(theta/2)**2, and forming
    it would cancel lam away; Reinsch's form carries d_m = b_m -/+ b_{m+1}
    and lam itself instead (Gentleman, Computer J. 12, 1969).  The middle
    third runs the plain recurrence.  Raises DomainError for x outside the
    box.
    """
    setup = expansion.setup
    check_in_box(setup, x)
    theta = math.pi * (setup.L / 2 - abs(x)) / setup.L
    lam = 4 * math.sin(theta / 2) ** 2
    two_cos = math.copysign(2 * math.cos(theta), x)  # 2 cos(theta_R)
    b = d = 0.0
    if theta >= math.pi / 3:
        for _, a in reversed(expansion.coefficients):
            b, d = a + two_cos * b - d, b  # d holds b_{m+2}
    elif x >= 0:
        for _, a in reversed(expansion.coefficients):
            d += a - lam * b
            b += d
    else:
        for _, a in reversed(expansion.coefficients):
            d = a + lam * b - d
            b = d - b
    return math.sqrt(2 / setup.L) * b * math.sin(theta) + 0.0  # no -0.0 at a wall


def parseval_defect(expansion: FourierExpansion) -> float:
    """1 - sum a_m**2, the truncated mass deficit of a unit-norm state."""
    return 1.0 - math.fsum(a * a for _, a in expansion.coefficients)
