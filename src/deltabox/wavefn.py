"""Eigenfunctions of the point-interaction box and their strong-coupling limits.

Every bound state splits at the interaction site x0 into two free half-waves
that share the wavenumber nu/2 and vanish at the walls.  This module builds
those piecewise states on all three energy branches (oscillatory nu > 0, the
linear nu = 0 state, evanescent nu < 0), computes the L2 mass and the
first moment of each compartment in closed form in one place
(`moment_kernel`, bound to a setup once; the norm, the probability ratio
and the mean position follow from it), and exposes the limit states
reached as the coupling strength diverges: a continuous state on the
shared lattice and one-sided states that fill a single compartment and
vanish identically on the other.

Each state is resolved once and then sampled.  `general_state` makes the
window and branch decision for a normalized eigenfunction at nu (the
shared-lattice window, where it returns the hat limit state, the linear
window, trig, hyper or deep) and computes the per-branch amplitudes and
the sign; the norm is taken on first use.  `limit_state` validates a limit
state (index, side, lattice membership) and fixes its sign and amplitude.
Both records sample a list of positions in one pass (`sample`) and feed
`fourier`'s coefficient builders; the one-point functions are the
one-element case.

Conventions fixed here and relied on elsewhere:

* the right piece of a trig state carries amplitude |sin(a2)| >= 0, the left
  piece carries sign(sin(a2)) * sin(a1) (`trig_left_sign`), which keeps the
  state continuous at x0 and pins its sign for the coefficient formulas in
  `fourier`;
* limit states are normalized to 1 and signed so that they are the pointwise
  limits of the normalized eigenfunctions along the attractive and repulsive
  coupling paths (the one-sided pair differ by an overall sign between the
  two paths, selected by `side`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple, Optional, Union

from .errors import DomainError, InK
from .lattice import (
    LIMIT_WINDOW_RTOL,
    LatticePoint,
    over_in_shared,
    shared_mode,
    shared_mode_near,
    under_floor,
    under_in_shared,
)
from .model import Setup, check_in_box, nu_n, phi_mode
from ._special import (
    LINEAR_WINDOW,
    LOG_SWITCH,
    SERIES_SWITCH,
    one_minus_sinc,
    sinhc_minus_one,
)

_LN2 = math.log(2.0)


# ============================================================
# Kinds and samples
# ============================================================


class WaveKind(NamedTuple):
    """Tag identifying which formula produced a wavefunction value.

    label is one of "trig", "linear", "hyper", "limit_hat", "limit_under",
    "limit_over".  The one-sided limits carry their lattice index (k or l),
    and the left-compartment one additionally carries the coupling path
    ("below" or "above") that selects its overall sign.
    """

    label: str
    k: Optional[int] = None
    l: Optional[int] = None
    side: Optional[str] = None


class WaveSample(NamedTuple):
    """One evaluated point of a wavefunction, as the one-point functions return it."""

    x: float
    value: float
    kind: WaveKind


class LimitResidualReport(NamedTuple):
    """Numerical evidence that a limit state solves its boundary problem.

    max_ode_residual is the largest relative second-difference defect of
    -psi'' = (E/c) psi away from the kink; jump_error compares the analytic
    one-sided derivative mismatch at x0 against the tabulated kappa constant;
    boundary_error is the larger of the two wall values.
    """

    max_ode_residual: float
    jump_error: float
    boundary_error: float


# ============================================================
# Resolved states
# ============================================================

_HalfWave = Callable[[float], float]


class _Pieces:
    """A state's two half-waves: left(x) for x <= x0, right(x) for x > x0."""

    def __init__(self, setup: Setup, kind: WaveKind, left: _HalfWave, right: _HalfWave) -> None:
        self.setup, self.kind, self.left, self.right = setup, kind, left, right

    def sample(self, xs: "list[float]") -> "list[float]":
        """The state's values at a list of positions; DomainError for one outside the box."""
        if xs:  # the ends decide the list; min and max can step over a NaN
            for x in (min(xs), max(xs), *filter(math.isnan, xs)):
                check_in_box(self.setup, x)
        x0, left, right = self.setup.x0_value, self.left, self.right
        return [(left(x) if x <= x0 else right(x)) + 0.0 for x in xs]  # no -0.0 at a wall


def _sample_at(state: _Pieces, x: float) -> WaveSample:
    return WaveSample(x, state.sample([x])[0], state.kind)


class GeneralState(_Pieces):
    """The eigenfunction at one nu, resolved once by general_state.

    branch is "trig", "linear" (nu is then 0), "hyper" or "deep" (t L >=
    LOG_SWITCH with t = -nu, sampled with its exp(t L / 2) divided out).
    sign is trig_left_sign on the trig branch and 1.0 elsewhere.
    """

    def __init__(
        self, setup: Setup, kind: WaveKind, left: _HalfWave, right: _HalfWave,
        branch: str, nu: float, sign: float,
    ) -> None:
        super().__init__(setup, kind, left, right)
        self.branch, self.nu, self.sign = branch, nu, sign

    @functools.cached_property
    def norm(self) -> float:
        """The divisor of every value, rho (deep_rho on the deep branch), taken
        on first use: the linear expansion in `fourier` never reads it."""
        return (deep_rho if self.branch == "deep" else rho)(self.setup, self.nu)


class LimitState(_Pieces):
    """A limit state, validated once by limit_state.

    mode is n (hat), k (under) or l (over).  sign is the overall sign s: +1
    for hat and over, (-1)**(F-1) for under with F = floor(k L / (L/2 + x0))
    (lattice.under_floor), negated on the "above" path.  For the one-sided
    states amp = s * 2 / root is the amplitude in the filled compartment,
    root = sqrt(L +/- 2 x0) and width is that compartment's width.  For hat
    amp is the free-mode amplitude sqrt(2/L), root is sqrt(q_ratio) (the
    left piece is -root phi_n, the right phi_n / root) and width is L.
    """

    def __init__(
        self, setup: Setup, kind: WaveKind, left: _HalfWave, right: _HalfWave,
        mode: int, sign: float, amp: float, root: float, width: float,
    ) -> None:
        super().__init__(setup, kind, left, right)
        self.mode, self.sign, self.amp, self.root, self.width = mode, sign, amp, root, width

    @property
    def coeff_sign(self) -> float:
        """s * (-1)**mode: the sign of a one-sided state's sine coefficients.

        Its derivative-jump constant kappa carries the opposite sign.
        """
        return self.sign * (-1.0 if self.mode % 2 else 1.0)


# ============================================================
# Trig, linear and evanescent states
# ============================================================


def trig_left_sign(setup: Setup, nu: float) -> float:
    """Sign of sin(a2), a2 = (nu/2) (L/2 + x0), carried by the left trig piece.

    The right piece has amplitude |sin(a2)|, so this sign keeps the state
    continuous at x0.  It is (-1)**floor(a2/pi) and flips at the under
    points; being read from the very sine of the right amplitude, it
    cannot disagree with that amplitude next to one.
    """
    return math.copysign(1.0, math.sin((nu / 2) * setup.width_left))


def _direct(setup: Setup, nu: float) -> GeneralState:
    """The normalized trig, linear or evanescent state at nu."""
    half, w1, w2, sign = setup.L / 2, setup.width_right, setup.width_left, 1.0
    if nu > 0:
        branch, f, k = "trig", math.sin, nu / 2
        s2 = math.sin(k * w2)
        sign = math.copysign(1.0, s2)  # trig_left_sign, from the sine b needs
        a, b = sign * math.sin(k * w1), abs(s2)
    elif nu == 0:
        # w1 (L/2 + x) and w2 (L/2 - x): float is the identity here.
        branch, f, k, a, b = "linear", float, 1.0, w1, w2
    else:
        t = -nu
        branch, f, k = "hyper", math.sinh, t / 2
        a, b = math.sinh(t * w1 / 2), math.sinh(t * w2 / 2)
    state = GeneralState(
        setup=setup, kind=WaveKind(branch),
        left=lambda x: a * f(k * (half + x)) / state.norm,
        right=lambda x: b * f(k * (half - x)) / state.norm,
        branch=branch, nu=nu, sign=sign,
    )
    return state


# ============================================================
# Compartment kernel
# ============================================================


def moment_kernel(setup: Setup) -> Callable[[float], "tuple[float, float, float, float]"]:
    """The compartment kernel, setup bound once: nu -> (left, right, scale, offset).

    left and right are the L2 masses of the unnormalized eigenfunction left
    and right of x0 times 2**-scale; offset is right d_right - left d_left in
    the same units, d being a compartment's mean distance from x0, so the
    mean position is x0 + offset / (left + right).  rho and the probability
    ratio read the first three values.  scale is 0 except in the linear
    window (|nu| L < LINEAR_WINDOW), where the state is (nu/2)**2 times the
    nu = 0 state to rounding and scale is that factor's exact binary
    exponent, and on the deep branch (t L >= LOG_SWITCH, t = -nu), where it
    carries exp(t L) (`_deep_compartments`).  With y = |nu| w, d =
    (w/2) (1 - sinc(y/2)**2) / (1 - sinc(y)) on the trig branch, its sinh
    analogue for nu < 0 and w/4 in the linear window.  Mass and distance share their
    sines: (nu/2) w equals (nu w)/2 bit for bit, and 1 - sinc(nu w) is a
    factor of both.
    """
    L, w1, w2 = setup.L, setup.width_right, setup.width_left
    half_w1, half_w2 = w1 / 2, w2 / 2
    linear_left = w1 * w1 * w2**3 / 3
    linear_right = w2 * w2 * w1**3 / 3

    def moments(nu: float) -> "tuple[float, float, float, float]":
        if abs(nu) * L < LINEAR_WINDOW:
            # |nu|/2 = m * 2**(e - 1); frexp avoids the underflow of |nu|/2.
            # At nu = 0, m = 1 and e = 1 give the nu = 0 masses and scale 0.
            m, e = math.frexp(abs(nu)) if nu else (1.0, 1)
            m4 = m**4
            left, right, scale = linear_left * m4, linear_right * m4, 4.0 * (e - 1)
            return left, right, scale, right * (w1 / 4) - left * (w2 / 4)
        if nu > 0:
            z1 = (nu / 2) * w1
            z2 = (nu / 2) * w2
            y1 = nu * w1
            y2 = nu * w2
            s1 = math.sin(z1)
            s2 = math.sin(z2)
            m1 = 1.0 - math.sin(y1) / y1 if y1 >= SERIES_SWITCH else one_minus_sinc(y1)
            m2 = 1.0 - math.sin(y2) / y2 if y2 >= SERIES_SWITCH else one_minus_sinc(y2)
            a1 = 1.0 - s1 / z1 if z1 >= SERIES_SWITCH else one_minus_sinc(z1)
            a2 = 1.0 - s2 / z2 if z2 >= SERIES_SWITCH else one_minus_sinc(z2)
            left = s1 * s1 * half_w2 * m2
            right = s2 * s2 * half_w1 * m1
            d1 = half_w1 * a1 * (2 - a1) / m1
            d2 = half_w2 * a2 * (2 - a2) / m2
            return left, right, 0.0, right * d1 - left * d2
        t = -nu
        y1 = t * w1
        y2 = t * w2
        if t * L < LOG_SWITCH:
            z1 = y1 / 2
            z2 = y2 / 2
            sh1 = math.sinh(z1)
            sh2 = math.sinh(z2)
            m1 = math.sinh(y1) / y1 - 1.0 if y1 >= SERIES_SWITCH else sinhc_minus_one(y1)
            m2 = math.sinh(y2) / y2 - 1.0 if y2 >= SERIES_SWITCH else sinhc_minus_one(y2)
            b1 = sh1 / z1 - 1.0 if z1 >= SERIES_SWITCH else sinhc_minus_one(z1)
            b2 = sh2 / z2 - 1.0 if z2 >= SERIES_SWITCH else sinhc_minus_one(z2)
            left = sh1 * sh1 * half_w2 * m2
            right = sh2 * sh2 * half_w1 * m1
            d1 = half_w1 * b1 * (2 + b1) / m1
            d2 = half_w2 * b2 * (2 + b2) / m2
            return left, right, 0.0, right * d1 - left * d2
        left, right, k, d1, d2 = _deep_compartments(w1, w2, y1, y2)
        return left, right, (y1 + y2) / _LN2 + k, right * d1 - left * d2

    return moments


def _deep_compartments(
    w1: float, w2: float, y1: float, y2: float
) -> "tuple[float, float, int, float, float]":
    """(left, right, k, d1, d2) of a deep evanescent state (t L >= LOG_SWITCH).

    With y1 = t w1 and y2 = t w2 (right and left widths) the masses are
    (left, right) * 2**k * exp(t L), left + right in [0.5, 1), as sinh(y/2)**2
    = exp(y) expm1(-y)**2 / 4; d1 and d2 are the mean distances.  m =
    sinh(y)/y - 1 feeds a compartment's mass factor exp(-y) m and its
    distance; from y = LOG_SWITCH on these are 0.5/y and w/y to rounding.
    """
    if y1 < LOG_SWITCH:
        z1 = y1 / 2
        m1 = math.sinh(y1) / y1 - 1.0 if y1 >= SERIES_SWITCH else sinhc_minus_one(y1)
        b1 = math.sinh(z1) / z1 - 1.0 if z1 >= SERIES_SWITCH else sinhc_minus_one(z1)
        e1, d1 = math.exp(-y1) * m1, (w1 / 2) * b1 * (2 + b1) / m1
    else:
        e1, d1 = 0.5 / y1, w1 / y1
    if y2 < LOG_SWITCH:
        z2 = y2 / 2
        m2 = math.sinh(y2) / y2 - 1.0 if y2 >= SERIES_SWITCH else sinhc_minus_one(y2)
        b2 = math.sinh(z2) / z2 - 1.0 if z2 >= SERIES_SWITCH else sinhc_minus_one(z2)
        e2, d2 = math.exp(-y2) * m2, (w2 / 2) * b2 * (2 + b2) / m2
    else:
        e2, d2 = 0.5 / y2, w2 / y2
    left = math.expm1(-y1) ** 2 / 4 * (w2 / 2) * e2
    right = math.expm1(-y2) ** 2 / 4 * (w1 / 2) * e1
    # A power-of-two rescaling keeps left + right near 1, so rho overflows
    # only where rho itself exceeds float range.
    k = math.frexp(left + right)[1]
    return math.ldexp(left, -k), math.ldexp(right, -k), k, d1, d2


def rho_kernel(setup: Setup) -> Callable[[float], float]:
    """rho with the setup bound once: nu -> the L2 norm of the unnormalized
    eigenfunction, from its compartment masses.

    The norm is math.inf where the evanescent norm exceeds float range.
    """
    moments = moment_kernel(setup)

    def norm(nu: float) -> float:
        left, right, scale, _ = moments(nu)
        try:
            return math.sqrt(left + right) * 2.0 ** (0.5 * scale)
        except OverflowError:
            return math.inf

    return norm


def rho(setup: Setup, nu: float) -> float:
    """rho_kernel at one nu: the L2 norm of the unnormalized eigenfunction."""
    return rho_kernel(setup)(nu)


def deep_rho(setup: Setup, nu: float) -> float:
    """rho * exp(-t L / 2) of a deep evanescent state (t = -nu, t L >= LOG_SWITCH).

    About (8 t)**-0.5: finite and accurate for every such t, where rho overflows.
    """
    t, w1, w2 = -nu, setup.width_right, setup.width_left
    left, right, k, _, _ = _deep_compartments(w1, w2, t * w1, t * w2)
    return math.sqrt(left + right) * 2.0 ** (0.5 * k)


def general_state(setup: Setup, nu: float) -> Union[GeneralState, LimitState]:
    """The normalized eigenfunction at nu, resolved once for sampling.

    Within a relative window of 1e-8 around a shared-lattice mode the norm
    collapses and the direct quotient loses all precision, so the state is
    the continuous limit state there (the two-sided limit along either
    coupling path) and the hat LimitState is returned.  Inside the linear
    window the state is the nu = 0 linear state.  Deep evanescent states
    (t L >= LOG_SWITCH, t = -nu), whose sinh products overflow, are rescaled
    by exp(-t L / 2) in closed form: every factor stays bounded.
    """
    n = shared_mode_near(setup, nu, LIMIT_WINDOW_RTOL)
    if n is not None:
        return limit_state(setup, "hat", nu_n(setup, n))
    if abs(nu) * setup.L < LINEAR_WINDOW:
        nu = 0.0
    t = -nu
    if t * setup.L < LOG_SWITCH:
        return _direct(setup, nu)
    # sinh(other) sinh(arm) / rho with sinh(z) = -exp(z) expm1(-2 z) / 2 and
    # rho = exp(t L / 2) deep_rho: the exponents sum to -(t/2) |x - x0|.
    half, x0, k = setup.L / 2, setup.x0_value, t / 2
    a = math.expm1(-2 * (t * setup.width_right / 2))
    b = math.expm1(-2 * (t * setup.width_left / 2))
    state = GeneralState(
        setup=setup, kind=WaveKind("hyper"),
        left=lambda x: (
            a * math.expm1(-2 * (k * (half + x))) * math.exp(-k * abs(x - x0)) / (4 * state.norm)
        ),
        right=lambda x: (
            b * math.expm1(-2 * (k * (half - x))) * math.exp(-k * abs(x - x0)) / (4 * state.norm)
        ),
        branch="deep", nu=nu, sign=1.0,
    )
    return state


def eval_normalized(setup: Setup, nu: float, x: float) -> WaveSample:
    """Unit-norm eigenfunction value at x; the one-point case of general_state's sample."""
    return _sample_at(general_state(setup, nu), x)


# ============================================================
# Logarithmic-derivative jump at the interaction site
# ============================================================


def jump_ratio(setup: Setup, nu: float) -> float:
    """[psi'(x0+) - psi'(x0-)] / psi(x0), from the piecewise derivatives.

    This is computed from the eigenfunction pieces alone, independently of
    the dispersion function, so the two can be checked against each other.
    Raises DomainError when psi(x0) = 0 (lattice points), where the ratio
    is undefined.
    """
    w1 = setup.width_right
    w2 = setup.width_left
    if nu > 0:
        a1 = (nu / 2) * w1
        a2 = (nu / 2) * w2
        s = trig_left_sign(setup, nu)
        denom = abs(math.sin(a2)) * math.sin(a1) * s
        if denom == 0.0:
            raise DomainError("eigenfunction vanishes at x0; jump ratio undefined")
        num = -(nu / 2) * (
            abs(math.sin(a2)) * math.cos(a1) * s + s * s * math.sin(a1) * math.cos(a2)
        )
        # s*s = 1; kept explicit so both pieces visibly carry the left sign.
        return num / denom
    if nu == 0:
        return -setup.L / (w1 * w2)
    t = -nu
    return -(t / 2) * (1.0 / math.tanh(t * w1 / 2) + 1.0 / math.tanh(t * w2 / 2))


# ============================================================
# Limit states (coupling strength -> +/- infinity)
# ============================================================


def limit_state(setup: Setup, kind: str, index: float, side: str = "below") -> LimitState:
    """Validate a limit state once and fix everything that does not depend on x.

    kind is "hat" with index a shared-lattice value nu_hat, "under" with
    index k (the left compartment; side "below" or "above" selects the
    coupling path) or "over" with index l (the right compartment; side is
    ignored).  Raises NotInK for a hat value off the shared lattice, InK for
    a one-sided index whose value lies on it, and DomainError for an index
    below 1, an unknown side or an unknown kind.
    """
    half = setup.L / 2
    if kind == "hat":
        n = shared_mode(setup, index)
        amp, root = math.sqrt(2 / setup.L), math.sqrt(setup.q_ratio)
        return LimitState(
            setup=setup, kind=WaveKind("limit_hat"),
            left=lambda x: -root * phi_mode(setup, n, x),
            right=lambda x: phi_mode(setup, n, x) / root,
            mode=n, sign=1.0, amp=amp, root=root, width=setup.L,
        )
    if kind not in ("under", "over"):
        raise DomainError(f"unknown limit kind {kind!r}")
    if index is None or index < 1:
        raise DomainError(f"{'k' if kind == 'under' else 'l'} must be >= 1, got {index!r}")
    if kind == "under":
        if side not in ("below", "above"):
            raise DomainError(f"side must be 'below' or 'above', got {side!r}")
        if under_in_shared(setup, index) is not None:
            raise InK(f"left lattice index k={index} lies on the shared lattice")
        sign = -1.0 if (under_floor(setup, index) - 1) % 2 else 1.0
        if side == "above":
            sign = -sign
        root, width = math.sqrt(setup.L + 2 * setup.x0_value), setup.width_left
        wave_kind = WaveKind("limit_under", k=index, side=side)
    else:
        if over_in_shared(setup, index) is not None:
            raise InK(f"right lattice index l={index} lies on the shared lattice")
        sign, root, width = 1.0, math.sqrt(setup.L - 2 * setup.x0_value), setup.width_right
        wave_kind = WaveKind("limit_over", l=index)
    amp, phase = sign * (2.0 / root), index * math.pi
    if kind == "under":
        # Past mid-compartment sin(k pi u) = (-1)**(k+1) sin(k pi (1 - u)), with
        # the phase taken from the site: x0 - x is exact next to it, 0 at x0.
        x0, far = setup.x0_value, (amp if index % 2 else -amp)
        left = lambda x: (far * math.sin(phase * (x0 - x) / width) if 2 * (half + x) > width
                          else amp * math.sin(phase * (half + x) / width))
        right = lambda x: 0.0
    else:
        left = lambda x: 0.0
        right = lambda x: amp * math.sin(phase * (half - x) / width)
    return LimitState(
        setup=setup, kind=wave_kind, left=left, right=right,
        mode=index, sign=sign, amp=amp, root=root, width=width,
    )


def upsilon_hat(setup: Setup, nu_hat: float, x: float) -> WaveSample:
    """Continuous limit state at a shared-lattice value nu_hat.

    Equals -sqrt(q_ratio) * phi_n(x) left of x0 and phi_n(x) / sqrt(q_ratio)
    right of it, where n is the box mode sitting at nu_hat.  This is the
    two-sided limit of the normalized eigenfunctions through the lattice
    point, identical along both coupling paths.  Raises NotInK unless nu_hat
    is on the shared lattice (lattice.shared_mode).
    """
    return _sample_at(limit_state(setup, "hat", nu_hat), x)


def upsilon_under(setup: Setup, k: int, side: str, x: float) -> WaveSample:
    """One-sided limit state filling the left compartment, k-th left mode.

    Vanishes identically for x > x0.  The sign alternates with the coupling
    path: side="below" (attractive path) and side="above" (repulsive path)
    give opposite overall signs.  Raises InK when the k-th left value also
    lies on the shared lattice, where the limit is upsilon_hat instead.
    """
    return _sample_at(limit_state(setup, "under", k, side), x)


def upsilon_over(setup: Setup, l: int, x: float) -> WaveSample:
    """One-sided limit state filling the right compartment, l-th right mode.

    Vanishes identically for x <= x0 and carries the same sign on both
    coupling paths.  Raises InK when the l-th right value also lies on the
    shared lattice.
    """
    return _sample_at(limit_state(setup, "over", l), x)


def _point_limit(setup: Setup, point: LatticePoint, side: str = "below") -> LimitState:
    """The limit state at a lattice point."""
    if point.kind == "both":
        return limit_state(setup, "hat", point.nu)
    if point.kind == "under":
        return limit_state(setup, "under", point.k, side)
    if point.kind == "over":
        return limit_state(setup, "over", point.l)
    raise DomainError(f"unknown lattice point kind {point.kind!r}")


# ============================================================
# Derivative-jump constants of the limit states
# ============================================================


def kappa_constants(setup: Setup, point: LatticePoint) -> float:
    """Derivative-jump constant kappa of the limit state at a lattice point.

    The limit state satisfies psi'(x0+) - psi'(x0-) = sigma * kappa / c with
    sigma = +1 except along the repulsive path of a left one-sided state
    (side="above"), where sigma = -1.  The returned kappa corresponds to the
    side="below" sign convention for "under" points.
    """
    c = setup.c
    if point.kind == "both":
        if point.l is None or point.k is None:
            raise DomainError("shared lattice point must carry both indices")
        amp = math.sqrt(2 * setup.L) / (
            math.sqrt(setup.L + 2 * setup.x0_value)
            * math.sqrt(setup.L - 2 * setup.x0_value)
        )
        sign = -1.0 if (point.l - 1) % 2 else 1.0
        return c * amp * point.nu * sign
    state = _point_limit(setup, point)
    return c * point.nu * -state.coeff_sign / state.root


# ============================================================
# Self-check of the limit states
# ============================================================


def _one_sided_derivatives(state: LimitState) -> "tuple[float, float]":
    """Analytic (left, right) derivatives of the limit state at x0."""
    setup, j = state.setup, state.mode
    if state.kind.label == "limit_hat":
        h = j * math.pi / setup.L
        dphi = -state.amp * h * math.cos(h * (setup.L / 2 - setup.x0_value))
        return -state.root * dphi, dphi / state.root
    slope = state.amp * (j * math.pi / state.width) * math.cos(j * math.pi)
    return (slope, 0.0) if state.kind.label == "limit_under" else (0.0, -slope)


def limit_residual(
    setup: Setup, point: LatticePoint, grid_n: int = 2000, side: str = "below"
) -> LimitResidualReport:
    """Check that the limit state at `point` solves its boundary problem.

    Verifies three properties on a uniform grid: the free equation
    -psi'' = (E/c) psi away from x0 (second differences, relative to the
    state's scale), the derivative jump at x0 against sigma * kappa / c, and
    the wall values.  All three numbers should be small; the ODE residual is
    second-order in the grid spacing.
    """
    if grid_n < 16:
        raise DomainError("grid_n too small for a meaningful residual")
    state = _point_limit(setup, point, side)
    energy_factor = (point.nu / 2) ** 2
    h = setup.L / grid_n
    xs = [-setup.L / 2 + i * h for i in range(grid_n + 1)]
    values = state.sample(xs)
    scale = max(abs(v) for v in values)
    max_resid = 0.0
    for i in range(1, grid_n):
        if abs(xs[i] - setup.x0_value) <= 1.5 * h:
            continue
        second = (values[i - 1] - 2 * values[i] + values[i + 1]) / (h * h)
        resid = abs(second + energy_factor * values[i])
        if resid > max_resid:
            max_resid = resid
    max_resid /= energy_factor * scale
    left_d, right_d = _one_sided_derivatives(state)
    sigma = -1.0 if (point.kind == "under" and side == "above") else 1.0
    kappa = kappa_constants(setup, point)
    jump_error = abs((right_d - left_d) - sigma * kappa / setup.c)
    boundary_error = max(abs(values[0]), abs(values[-1]))
    return LimitResidualReport(max_resid, jump_error, boundary_error)
