"""Expansions of the interacting states in the free-box sine basis.

Every normalized eigenfunction and every limit state is square-integrable on
the box, so it expands in the free modes Phi_m.  The overlap integrals all
collapse to closed forms proportional to Phi_m(x0) over a resonance
denominator, so the coefficients decay like 1/m**2 and partial sums converge
uniformly.  This module produces those coefficients, kept as one flat list
of floats per expansion (`FourierExpansion.values`), evaluates partial sums
by Clenshaw's recurrence with the angle taken from the nearer wall, and
folds an expansion onto the P - 2 terms that an equispaced grid of P points
can tell apart.

Each builder takes L and x0 in units of a power of four near L
(model.box_exponent), or near 2**500 / nu for a trig state beyond that nu L,
once per request: an expansion at 4**j L is the one at L to the bit, and
none leaves float range far from a unit box.

Branches, signs and norms come from the records of `wavefn.general_state`
and `wavefn.limit_state`, so the expansions converge to the states as
defined there, not merely up to sign.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

from .errors import DomainError
from .lattice import POINT_BUDGET, kappa_base
from .model import Setup, box_exponent, check_in_box, nu_n, site_modes
from .wavefn import LimitState, WaveKind, general_state

# Default truncation order; the 1/m**2 decay puts the sup-norm tail near
# a few parts in M.
DEFAULT_M = 4096

# Relative snap radius for recognizing nu as a free-mode value nu_n, where
# the expansion is exactly one-hot, and its cap as a share of the mode
# step nu_1: 1e-12 * nu alone spans whole gaps between modes at large nu.
_MODE_SNAP_RTOL = 1e-12
_MODE_SNAP_CAP = 1e-3


class FourierExpansion(NamedTuple):
    """Truncated sine-basis expansion of one state.

    values is one flat list of floats, values[m - 1] = a_m for m = 1..M.
    coefficients builds the (m, a_m) pairs from it on each access; no code
    here reads them, they stay for the benchmark's fourier.terms counter.
    """

    kind: WaveKind
    values: List[float]
    setup: Setup

    @property
    def coefficients(self) -> List[Tuple[int, float]]:
        return list(enumerate(self.values, 1))


def _one_hot(setup: Setup, kind: WaveKind, n: int, M: int) -> FourierExpansion:
    return FourierExpansion(kind, [1.0 if m == n else 0.0 for m in range(1, M + 1)], setup)


def _check_m(M: int) -> None:
    if M < 1:
        raise DomainError(f"truncation order must be >= 1, got {M!r}")
    if M > POINT_BUDGET:
        raise DomainError(f"truncation order M = {M} is beyond the budget of {POINT_BUDGET:.0e}")


# ============================================================
# General states (any branch parameter nu)
# ============================================================


def coeffs_general(setup: Setup, nu: float, M: int = DEFAULT_M) -> FourierExpansion:
    """Expansion of the normalized eigenfunction at branch parameter nu.

    At a free-mode value off the shared lattice (within 1e-12 relative,
    capped at 1e-3 of the mode step nu_1 as lattice_locator caps its
    radius; the cap binds above about 6.3e9 / L) the state is the free mode
    itself and the expansion is exactly one-hot; no norm is taken.  On a
    shared-lattice value (where lattice_locator puts it, as in
    wavefn.general_state) the state is the continuous limit state,
    expanded by coeffs_limit.  Inside the linear
    window (|nu| L < LINEAR_WINDOW) the state is the nu = 0 linear state,
    whose closed-form prefactor needs no norm either.  Elsewhere
    a_m = c * Phi_m(x0) / D_m with the branch-dependent resonance
    denominator D_m and prefactor c; the oscillatory and evanescent branches
    differ in the sign of the nu**2/4 term and in sin versus sinh.  The
    evanescent c and D_m carry t/2 = -nu/2 and exp(t L / 2) divided out.
    """
    _check_m(M)
    # Tested before the state is resolved; shared modes (n a multiple of
    # kappa_base) are left to general_state.
    if nu > 0:
        step = nu_n(setup, 1)
        n = round(nu / step)
        radius = min(_MODE_SNAP_RTOL * nu, _MODE_SNAP_CAP * step)
        if n % kappa_base(setup) and abs(nu - nu_n(setup, n)) <= radius:
            return _one_hot(setup, WaveKind("trig"), n, M)
    state = general_state(setup, nu)
    if isinstance(state, LimitState):
        return coeffs_limit(state, M)
    # Units of 2**e for lengths, e the even exponent near L, or near 2**500 / nu
    # beyond nu L = 2**500 (trig), where (nu/2)**2 stays a float; pref is scaled
    # once by the 2**(e/2) that Phi_m(x0) = sqrt(2/L) sin(.) lacks in them.
    e = box_exponent(min(setup.L, 2.0**500 / state.nu) if state.nu > 0 else setup.L)
    L, x0, half_e = math.ldexp(setup.L, -e), math.ldexp(setup.x0_value, -e), e // 2
    nu, label = math.ldexp(state.nu, e), state.kind.label
    # a_m = pref * Phi_m(x0) / ((pi m / L)**2 / scale + shift): scale 1.0 and
    # shift -(nu/2)**2 or 0.0 give the trig and linear denominators to the
    # last bit; the hyper branch divides by t/2 instead.
    if label == "trig":
        pref = state.sign * (nu / (2 * math.ldexp(state.norm, -half_e))) * math.sin(nu * L / 2)
        scale, shift = 1.0, -((nu / 2) ** 2)
    elif label == "linear":
        pref = 4 * math.sqrt(3) * math.sqrt(L) / (L**2 - 4 * x0**2)
        scale, shift = 1.0, 0.0
    else:
        # With t = -nu, sinh(t L / 2) / rho = -expm1(-t L) / (2 norm), the
        # hyper norm being rho exp(-t L / 2); the factor t / 2 moves into the
        # denominator, which would overflow near t**2.
        pref = -math.expm1(nu * L) / (2 * math.ldexp(state.norm, -half_e))
        scale = shift = -nu / 2
    pref, pi = math.ldexp(pref, half_e), math.pi
    values = [  # + 0.0: a node of Phi_m prints 0.0, never -0.0
        pref * f / ((pi * m / L) ** 2 / scale + shift) + 0.0
        for m, f in enumerate(site_modes(setup, M), start=1)
    ]
    return FourierExpansion(state.kind, values, setup)


# ============================================================
# Limit states
# ============================================================


def coeffs_limit(state: LimitState, M: int = DEFAULT_M) -> FourierExpansion:
    """Expansion of a limit state resolved by wavefn.limit_state.

    Hat (mode p): a_m = c_p * Phi_m(x0) / (m**2 - p**2) for m != p, and
    a_p = 0 exactly: the limit state is orthogonal to the free mode it
    replaces, and to every mode that vanishes at x0.  One-sided (mode j,
    compartment width w): a_m = c_j * Phi_m(x0) / (w**2 m**2 - L**2 j**2),
    signed by state.coeff_sign.  Those denominators never vanish: a
    vanishing one would place the j-th one-sided value on the free-mode
    lattice and hence on the shared lattice, which limit_state rejects.
    """
    _check_m(M)
    setup, j = state.setup, state.mode
    phi0 = site_modes(setup, M)
    # L and x0 in units of 2**e_L, as in coeffs_general; a one-sided pref takes
    # root = sqrt(L +/- 2 x0) unscaled, with the 2**(e_L/2) Phi_m(x0) lacks.
    e_L = box_exponent(setup.L)
    L, x0 = math.ldexp(setup.L, -e_L), math.ldexp(setup.x0_value, -e_L)
    if state.kind.label == "limit_hat":
        cos = math.cos((j * math.pi / L) * (L / 2 - x0))
        pref = cos * 2 * math.sqrt(2) * j * L**1.5 / (math.pi * math.sqrt(L**2 - 4 * x0**2))
        pref, j2 = math.ldexp(pref, e_L // 2), j * j
        values = [  # + 0.0: a node of Phi_m prints 0.0, never -0.0
            0.0 if m == j else pref * f / (m * m - j2) + 0.0
            for m, f in enumerate(phi0, start=1)
        ]
    else:
        width = math.ldexp(state.width, -e_L)
        w2, lj2 = width * width, L**2 * j * j
        pref = state.coeff_sign * j * L**2 * state.root / math.pi
        values = [pref * f / (w2 * m * m - lj2) + 0.0 for m, f in enumerate(phi0, start=1)]
    return FourierExpansion(state.kind, values, setup)


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
        for a in reversed(expansion.values):
            b, d = a + two_cos * b - d, b  # d holds b_{m+2}
    elif x >= 0:
        for a in reversed(expansion.values):
            d += a - lam * b
            b += d
    else:
        for a in reversed(expansion.values):
            d = a + lam * b - d
            b = d - b
    return math.sqrt(2 / setup.L) * b * math.sin(theta) + 0.0  # no -0.0 at a wall


def fold_to_grid(expansion: FourierExpansion, points: int) -> FourierExpansion:
    """An expansion with at most points - 2 terms that sums as this one on the grid.

    On the grid x_j = -L/2 + j L / K (j = 0..K, K = points - 1) the angle
    from the right wall is theta_j = pi (K - j) / K, so sin(m theta_j) has
    period 2K in m: residues 0 and K vanish and residue 2K - s is minus
    residue s (the sampled DST-I identity).  The coefficients therefore alias onto b_s = B_s - B_{2K-s},
    s = 1..K-1, with B_r the sum (math.fsum) of the a_m with m = r mod 2K.
    An expansion of fewer than K terms, or a grid of at most two points, is
    returned as it is.
    """
    K = points - 1
    a = expansion.values
    if K < 2 or len(a) < K:
        return expansion
    folded = [
        math.fsum(a[s - 1 :: 2 * K]) - math.fsum(a[2 * K - s - 1 :: 2 * K]) for s in range(1, K)
    ]
    return expansion._replace(values=folded)
