"""Eigenfunctions of the point-interaction box and their strong-coupling limits.

Every bound state splits at the interaction site x0 into two free half-waves
that share the wavenumber nu/2 and vanish at the walls.  This module builds
those piecewise states on all three energy branches (oscillatory nu > 0, the
linear nu = 0 state, evanescent nu < 0), computes the L2 mass and the
first moment of each compartment in closed form in one place
(`compartment_rows`, one loop over a grid of nu that asks
lattice.lattice_locator about each nu > 0, whose "ratio", "mean" and
"norm" readouts give the probability ratio, the mean position and the
norm), and exposes the limit states reached as the coupling strength
diverges: a continuous state on the shared lattice and one-sided states
that fill a single compartment and vanish identically on the other.

An evanescent state has one form at every depth, each sinh with its
exponential divided out, and the masses take every width in units of a
power of four near L, so their rows at L 4**j are those at L to the bit.

Each state is resolved once and then sampled.  `general_state` makes the
window and branch decision for a normalized eigenfunction at nu (a shared
point of lattice_locator, where it returns the hat limit state, the
linear window, trig or hyper) and computes the per-branch amplitudes and
the sign; the norm is taken on first use.  `limit_state` validates a limit
state (index, side, lattice membership) and fixes its sign and amplitude.
Both records feed `fourier`'s coefficient builders and sample a list of
positions (`sample`): each half-wave is a list function, one comprehension
over the positions on its side of x0, with no call per position (the hat
state's pieces read `model.phi_mode_grid`); the one-point functions are
the one-element case.

Conventions fixed here and relied on elsewhere:

* the right piece of a trig state carries amplitude |sin(a2)| >= 0, the left
  piece carries sign(sin(a2)) * sin(a1), which keeps the state continuous at
  x0 and pins its sign for the coefficient formulas in `fourier`;
* limit states are normalized to 1 and signed so that they are the pointwise
  limits of the normalized eigenfunctions along the attractive and repulsive
  coupling paths (the one-sided pair differ by an overall sign between the
  two paths, selected by `side`).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Union

from .errors import DomainError, InK, NotInK, SingularPoint
from .lattice import lattice_locator, over_in_shared, under_floor, under_in_shared
from .model import Setup, check_all_in_box, phi_mode_grid
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


# ============================================================
# Resolved states
# ============================================================

# A half-wave as a list function: its values at a list of positions, each
# plus 0.0, so that no -0.0 reaches a table.
_HalfWave = Callable[[List[float]], List[float]]


class _Pieces:
    """A state's two half-waves: left(xs) for x <= x0, right(xs) for x > x0."""

    def __init__(self, setup: Setup, kind: WaveKind, left: _HalfWave, right: _HalfWave) -> None:
        self.setup, self.kind, self.left, self.right = setup, kind, left, right

    def sample(self, xs: List[float]) -> List[float]:
        """The state's values at a list of positions; DomainError for one outside the box.

        A list whose positions up to x0 all come before the others (an
        ascending grid) is cut in two and each half goes to its piece;
        any other order is merged back from the two pieces' values.
        """
        check_all_in_box(self.setup, xs)
        x0 = self.setup.x0_value
        cut, end = 0, len(xs)  # bisect for the first position past x0
        while cut < end:
            mid = (cut + end) // 2
            if xs[mid] <= x0:
                cut = mid + 1
            else:
                end = mid
        head, tail = xs[:cut], xs[cut:]
        if max(head, default=x0) <= x0 < min(tail, default=math.inf):
            return self.left(head) + self.right(tail)
        lefts = iter(self.left([x for x in xs if x <= x0]))
        rights = iter(self.right([x for x in xs if x > x0]))
        return [next(lefts) if x <= x0 else next(rights) for x in xs]


def _sample_at(state: _Pieces, x: float) -> WaveSample:
    return WaveSample(x, state.sample([x])[0], state.kind)


class GeneralState(_Pieces):
    """The eigenfunction at one nu, resolved once by general_state.

    kind.label is "trig", "linear" (nu is then 0) or "hyper" (t = -nu > 0,
    sampled with its exp(t L / 2) divided out).  sign is sign(sin(a2)), a2
    = (nu/2) (L/2 + x0), on the trig branch and 1.0 elsewhere.
    """

    def __init__(
        self, setup: Setup, kind: WaveKind, left: _HalfWave, right: _HalfWave,
        nu: float, sign: float,
    ) -> None:
        super().__init__(setup, kind, left, right)
        self.nu, self.sign = nu, sign

    @functools.cached_property
    def norm(self) -> float:
        """The divisor of every value, taken on first use (the linear expansion
        in `fourier` never reads it): rho on the trig and linear branches, and
        rho exp(-t L / 2) on the hyper branch, about (8 t)**-0.5 for a large
        t L, which stays finite where rho overflows."""
        mass, _, scale = next(compartment_rows(self.setup, (self.nu,), "norm"))
        return math.ldexp(math.sqrt(mass), scale // 2)


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


def _direct(setup: Setup, nu: float) -> GeneralState:
    """The normalized trig or linear state at nu >= 0."""
    half, w1, w2, sign = setup.L / 2, setup.width_right, setup.width_left, 1.0
    if nu > 0:
        label, f, k = "trig", math.sin, nu / 2
        s2 = math.sin(k * w2)
        sign = math.copysign(1.0, s2)  # from the very sine b needs
        a, b = sign * math.sin(k * w1), abs(s2)
    else:
        # w1 (L/2 + x) and w2 (L/2 - x): float is the identity here.
        label, f, k, a, b = "linear", float, 1.0, w1, w2

    def left(xs: List[float]) -> List[float]:
        norm = state.norm
        return [a * f(k * (half + x)) / norm + 0.0 for x in xs]

    def right(xs: List[float]) -> List[float]:
        norm = state.norm
        return [b * f(k * (half - x)) / norm + 0.0 for x in xs]

    state = GeneralState(setup, WaveKind(label), left, right, nu, sign)
    return state


# ============================================================
# Compartment rows
# ============================================================


def compartment_rows(
    setup: Setup, nus: Iterable[float], readout: str, skip_one_sided: bool = True
) -> Iterator[tuple]:
    """Rows over nus, in order, each made as it is drawn, from the L2 masses
    left and right of the unnormalized eigenfunction on either side of x0
    and each compartment's mean distance d from x0.  readout is fixed:

    * "ratio": (nu, right / left, None), the probability ratio; on a lattice
      point (nu, 1/q_ratio, "both"), (nu, 0.0, "under") or (nu, inf, "over").
    * "mean": (nu, x0 + (right d_right - left d_left) / (left + right)); x0
      on the shared lattice, 0.0 at a centered site, x0/2 in the linear
      window.  A one-sided point's row is left out, or raises SingularPoint
      when skip_one_sided is False.
    * "norm": (left + right, deep, scale) for every nu, no lattice test.

    Only "mean" computes distances.  Each nu > 0 is put to lattice_locator,
    which builds a point only on a hit.  Every width and distance is taken
    in units of 2**e_L, e_L the even part of frexp(L)[1], so a box 4**j
    times as long gives the same masses and distances to the bit.  The
    masses carry 2**-(deep + scale), scale an even integer.  On the trig
    branch scale = e_L and deep = 0.  On the evanescent branch (t = -nu)
    each compartment's sinh(t w / 2)**2 is taken times exp(-t w), so deep =
    log2 exp(t L); from y = t w = LOG_SWITCH on, a compartment's factors
    sinh(y/2)**2 exp(-y), exp(-y) (sinh(y)/y - 1) and d are 1/4, 0.5/y and
    w/y to rounding.  Outside ratio rows, whose quotient it leaves exact,
    an even power of two k keeps left + right in [0.5, 2), and scale = e_L
    + k.  In the linear window (|nu| L < LINEAR_WINDOW) the state is
    (nu/2)**2 times the nu = 0 state to rounding, whose masses scale as
    L**5: deep = 0 and scale is 5 e_L plus the factor's exact binary
    exponent.  With y = |nu| w, d = (w/2) (1 - sinc(y/2)**2) / (1 - sinc(y))
    for nu > 0 and its sinh analogue for nu < 0; mass and distance share
    their sines, (nu/2) w being (nu w)/2 exactly.
    """
    if readout not in ("ratio", "mean", "norm"):
        raise DomainError(f"unknown readout {readout!r}")
    ratio, mean, on_lattice = readout == "ratio", readout == "mean", readout != "norm"
    L, x0, w1, w2 = setup.L, setup.x0_value, setup.width_right, setup.width_left
    e_L = math.frexp(L)[1] & -2
    v1, v2 = math.ldexp(w1, -e_L), math.ldexp(w2, -e_L)
    half_v1, half_v2 = v1 / 2, v2 / 2
    linear_left = v1 * v1 * v2**3 / 3
    linear_right = v2 * v2 * v1**3 / 3
    locate, shared = lattice_locator(setup), 1.0 / setup.q_ratio
    sin, sinh, exp, frexp, ldexp = math.sin, math.sinh, math.exp, math.frexp, math.ldexp
    series, log_switch, linear_window = SERIES_SWITCH, LOG_SWITCH, LINEAR_WINDOW
    for nu in nus:
        # not nu <= 0: a NaN reaches locate's round() and raises there.
        if on_lattice and not nu <= 0 and (point := locate(nu)) is not None:
            kind = point.kind
            if kind == "both":
                yield (nu, shared, kind) if ratio else (nu, x0)
            elif ratio:
                yield nu, (0.0 if kind == "under" else math.inf), kind
            elif not skip_one_sided:
                raise SingularPoint(
                    f"nu={nu!r} is a one-sided lattice point; the state is not defined there"
                )
            continue
        linear = abs(nu) * L < linear_window
        if mean and (linear or x0 == 0.0):
            # x0/2 for the linear state; 0.0 at a centered site, whose
            # states are all symmetric or antisymmetric.
            yield nu, (x0 / 2 if x0 else 0.0)
            continue
        deep, scale = 0.0, e_L
        if linear:
            # |nu|/2 = m * 2**(e - 1); frexp avoids the underflow of |nu|/2.
            # At nu = 0, m = 1 and e = 1 give the nu = 0 masses and scale 5 e_L.
            m, e = frexp(abs(nu)) if nu else (1.0, 1)
            m4 = m**4
            left, right = linear_left * m4, linear_right * m4
            scale = 4 * (e - 1) + 5 * e_L
        elif nu > 0:
            z1 = (nu / 2) * w1
            z2 = (nu / 2) * w2
            y1 = nu * w1
            y2 = nu * w2
            s1 = sin(z1)
            s2 = sin(z2)
            m1 = 1.0 - sin(y1) / y1 if y1 >= series else one_minus_sinc(y1)
            m2 = 1.0 - sin(y2) / y2 if y2 >= series else one_minus_sinc(y2)
            left = s1 * s1 * half_v2 * m2
            right = s2 * s2 * half_v1 * m1
            if mean:
                a1 = 1.0 - s1 / z1 if z1 >= series else one_minus_sinc(z1)
                a2 = 1.0 - s2 / z2 if z2 >= series else one_minus_sinc(z2)
                d1 = half_v1 * a1 * (2 - a1) / m1
                d2 = half_v2 * a2 * (2 - a2) / m2
        else:
            # A compartment's factor sinh(y/2)**2 and the other's factor
            # m = sinh(y)/y - 1 are each taken times exp(-y), which divides
            # exp(t L) out of both masses.
            t = -nu
            y1 = t * w1
            y2 = t * w2
            if y1 < log_switch:
                z1 = y1 / 2
                sh1 = sinh(z1)
                x1 = exp(-y1)
                f1 = sh1 * sh1 * x1
                m1 = sinh(y1) / y1 - 1.0 if y1 >= series else sinhc_minus_one(y1)
                e1 = x1 * m1
                if mean:
                    b1 = sh1 / z1 - 1.0 if z1 >= series else sinhc_minus_one(z1)
                    d1 = half_v1 * b1 * (2 + b1) / m1
            else:
                f1, e1, d1 = 0.25, 0.5 / y1, v1 / y1
            if y2 < log_switch:
                z2 = y2 / 2
                sh2 = sinh(z2)
                x2 = exp(-y2)
                f2 = sh2 * sh2 * x2
                m2 = sinh(y2) / y2 - 1.0 if y2 >= series else sinhc_minus_one(y2)
                e2 = x2 * m2
                if mean:
                    b2 = sh2 / z2 - 1.0 if z2 >= series else sinhc_minus_one(z2)
                    d2 = half_v2 * b2 * (2 + b2) / m2
            else:
                f2, e2, d2 = 0.25, 0.5 / y2, v2 / y2
            left = f1 * half_v2 * e2
            right = f2 * half_v1 * e1
            if not ratio:
                # An even power of two keeps left + right near 1: rho overflows
                # only beyond float range, and the mean's d products do not
                # underflow.  It depends on t, not on L, so it is taken per row.
                k = frexp(left + right)[1] & -2
                left, right = ldexp(left, -k), ldexp(right, -k)
                deep, scale = (y1 + y2) / _LN2, e_L + k
        if ratio:
            yield nu, right / left, None
        elif mean:
            yield nu, x0 + ldexp((right * d1 - left * d2) / (left + right), e_L)
        else:
            yield left + right, deep, scale


def rho_grid(setup: Setup, nus: Iterable[float]) -> Iterator[float]:
    """The L2 norm of the unnormalized eigenfunction at each nu, in order,
    from its compartment masses; math.inf where it exceeds float range."""
    for mass, deep, scale in compartment_rows(setup, nus, "norm"):
        try:
            yield math.ldexp(math.sqrt(mass) * 2.0 ** (0.5 * deep), scale // 2)
        except OverflowError:
            yield math.inf


def rho(setup: Setup, nu: float) -> float:
    """rho_grid at one nu: the L2 norm of the unnormalized eigenfunction."""
    return next(rho_grid(setup, (nu,)))


def general_state(setup: Setup, nu: float) -> Union[GeneralState, LimitState]:
    """The normalized eigenfunction at nu, resolved once for sampling.

    Where lattice_locator places nu on a shared point the norm collapses
    and the direct quotient loses all precision, so the state there is the
    continuous limit state (the two-sided limit along either coupling
    path) and the hat LimitState is returned.  Inside the linear window
    the state is the nu = 0 linear state.  Every other evanescent state (t
    = -nu) is rescaled by exp(-t L / 2) in closed form, so no factor
    overflows at any depth.
    """
    point = lattice_locator(setup)(nu)
    if point is not None and point.kind == "both":
        return limit_state(setup, "hat", nu)
    if abs(nu) * setup.L < LINEAR_WINDOW:
        nu = 0.0
    if nu >= 0:
        return _direct(setup, nu)
    # sinh(other) sinh(arm) / rho with sinh(z) = -exp(z) expm1(-2 z) / 2 and
    # rho = exp(t L / 2) norm: the exponents sum to -(t/2) |x - x0|.
    t = -nu
    half, x0, k = setup.L / 2, setup.x0_value, t / 2
    a = math.expm1(-2 * (t * setup.width_right / 2))
    b = math.expm1(-2 * (t * setup.width_left / 2))
    expm1, exp = math.expm1, math.exp

    def left(xs: List[float]) -> List[float]:
        scale = 4 * state.norm
        return [a * expm1(-2 * (k * (half + x))) * exp(-k * abs(x - x0)) / scale + 0.0 for x in xs]

    def right(xs: List[float]) -> List[float]:
        scale = 4 * state.norm
        return [b * expm1(-2 * (k * (half - x))) * exp(-k * abs(x - x0)) / scale + 0.0 for x in xs]

    state = GeneralState(setup, WaveKind("hyper"), left, right, nu, 1.0)
    return state


def eval_normalized(setup: Setup, nu: float, x: float) -> WaveSample:
    """Unit-norm eigenfunction value at x; the one-point case of general_state's sample."""
    return _sample_at(general_state(setup, nu), x)


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
        point = lattice_locator(setup)(index)
        if point is None or point.kind != "both":
            raise NotInK(f"nu={index!r} is not a shared-lattice value")
        n = point.k + point.l  # the mode at a shared point: 2kq/(q+p) = k + l
        amp, root = math.sqrt(2 / setup.L), math.sqrt(setup.q_ratio)
        return LimitState(
            setup=setup, kind=WaveKind("limit_hat"),
            left=lambda xs: [-root * v + 0.0 for v in phi_mode_grid(setup, n, xs)],
            right=lambda xs: [v / root + 0.0 for v in phi_mode_grid(setup, n, xs)],
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
    # In the half next to the site sin(j pi u) = (-1)**(j+1) sin(j pi (1 - u)),
    # u the distance from the wall over the width, with the phase taken from
    # the site: x0 - x is exact next to it, 0 at x0.
    x0, near, sin = setup.x0_value, (amp if index % 2 else -amp), math.sin
    zeros: _HalfWave = lambda xs: [0.0] * len(xs)
    if kind == "under":
        left = lambda xs: [
            (near * sin(phase * (x0 - x) / width) if 2 * (half + x) > width
             else amp * sin(phase * (half + x) / width)) + 0.0
            for x in xs
        ]
        right = zeros
    else:
        left = zeros
        right = lambda xs: [
            (near * sin(phase * (x - x0) / width) if 2 * (half - x) > width
             else amp * sin(phase * (half - x) / width)) + 0.0
            for x in xs
        ]
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
    is a shared-lattice point of lattice_locator.
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
