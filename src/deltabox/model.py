"""Physical configuration and free-well mode functions.

The system is a particle confined to the interval [-L/2, L/2] with a point
interaction of strength alpha located at x0 >= 0.  All formulas in the
package are parameterized by an immutable Setup carrying the box length L,
the interaction point x0, and the kinetic prefactor c = hbar^2/(2m).

Angular wave number convention: a single signed real nu labels all three
energy branches.  nu > 0 labels oscillatory states with energy
E = c (nu/2)^2, nu = 0 the zero-energy piecewise-linear state, and nu < 0
the evanescent branch with E = -c (nu/2)^2.  The map nu -> E is continuous
and strictly increasing on all of R.

The interaction point is given either as an exact rational multiple of the
half box, x0 = (p/q) (L/2) with p, q coprime, or as a plain float length.
Whether the two sub-box wave lattices share points is a number-theoretic
fact that floating point cannot decide, so every Setup carries one exact
fraction p/q of L/2 and the lattice is built from it in integer arithmetic.
A float site gets the fraction with the smallest denominator whose position
lies within half an ulp of the float: a float that is exactly a simple
fraction of the box (0.125 = L/8 at L = 1) gets that fraction, while a
generic float gets a denominator near 1e8 or more, whose shared lattice
begins far beyond any wave number of interest.  The closed forms use the
float position x0_value in both cases, except for the free modes at the
site: Phi_m(x0) is taken from p/q in integer arithmetic (site_modes), so a
mode with a node at x0 is exactly 0.0 there, for `real:` sites too.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Union

from .errors import DomainError

# ======================================================================
# Interaction-point representation
# ======================================================================


class RationalX0(NamedTuple("RationalX0", [("p", int), ("q", int)])):
    """x0 = (p/q) (L/2), stored in lowest terms with 0 <= p < q."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> "RationalX0":
        if q < 1:
            raise DomainError(f"rational x0 needs q >= 1, got q={q}")
        if p < 0:
            raise DomainError(f"rational x0 needs p >= 0, got p={p}")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p >= q:
            raise DomainError(f"rational x0 = ({p}/{q})(L/2) lies outside [0, L/2)")
        return super().__new__(cls, p, q)

    def value(self, L: float) -> float:
        return self.p / self.q * (L / 2)


class RealX0(NamedTuple("RealX0", [("value_abs", float)])):
    """x0 as a plain float length; its lattice uses site_fraction's p/q.

    -0.0 is stored as 0.0, so no sign of zero reaches the tables.
    """

    __slots__ = ()

    def __new__(cls, value_abs: float) -> "RealX0":
        if not math.isfinite(value_abs) or value_abs < 0:
            raise DomainError(f"real x0 must be finite and >= 0, got {value_abs}")
        return super().__new__(cls, value_abs + 0.0)

    def value(self, L: float) -> float:
        return self.value_abs


X0Spec = Union[RationalX0, RealX0]


# ======================================================================
# Setup
# ======================================================================


class Setup(NamedTuple):
    """Immutable physical configuration; all derived lengths precomputed.

    q_ratio is the sub-box length ratio (L/2 - x0)/(L/2 + x0) in (0, 1].
    p/q is the exact fraction of L/2 that the lattice is built from: the
    site's own fraction for RationalX0, the simplest fraction within half an
    ulp of x0_value for RealX0 (see site_fraction).
    """

    L: float
    x0: X0Spec
    c: float
    x0_value: float
    q_ratio: float
    p: int
    q: int

    @property
    def width_right(self) -> float:
        """Length of the right sub-box, L/2 - x0."""
        return self.L / 2 - self.x0_value

    @property
    def width_left(self) -> float:
        """Length of the left sub-box, L/2 + x0."""
        return self.L / 2 + self.x0_value


def make_setup(L: float, x0: X0Spec, c: float) -> Setup:
    """Build a Setup, validating ranges and populating derived fields.

    Rational x0 not in lowest terms is reduced on construction rather than
    rejected.  Raises DomainError for L <= 0, c <= 0, or x0 outside [0, L/2).
    """
    if not (math.isfinite(L) and L > 0):
        raise DomainError(f"box length must be positive, got L={L}")
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"kinetic prefactor must be positive, got c={c}")
    if not isinstance(x0, (RationalX0, RealX0)):
        raise DomainError(f"x0 must be RationalX0 or RealX0, got {type(x0).__name__}")
    x0_value = x0.value(L)
    if not (0 <= x0_value < L / 2):
        raise DomainError(f"x0 = {x0_value} lies outside [0, L/2) for L = {L}")
    q_ratio = (L / 2 - x0_value) / (L / 2 + x0_value)
    p, q = (x0.p, x0.q) if isinstance(x0, RationalX0) else site_fraction(x0_value, L)
    return Setup(L=L, x0=x0, c=c, x0_value=x0_value, q_ratio=q_ratio, p=p, q=q)


def box_exponent(L: float) -> int:
    """e_L, the even part of L's binary exponent: a box 4**j times as long
    has e_L + 2 j, so widths in units of 2**e_L keep their bits."""
    return math.frexp(L)[1] & -2


def site_fraction(x0: float, L: float) -> tuple[int, int]:
    """Lowest-terms p/q of smallest q with |(p/q)(L/2) - x0| <= ulp(x0)/2.

    Exact: the bounds (2 x0 -/+ ulp(x0)) / L are integer ratios taken from
    the floats, and the continued-fraction walk below runs on integer
    pairs.  For 0 <= x0 < L/2 the result satisfies 0 <= p < q.
    """
    xn, xd = x0.as_integer_ratio()
    un, ud = math.ulp(x0).as_integer_ratio()
    Ln, Ld = L.as_integer_ratio()
    den = xd * ud * Ln
    return _simplest_between((2 * xn * ud - un * xd) * Ld, den, (2 * xn * ud + un * xd) * Ld, den)


def _simplest_between(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    # Smallest-denominator fraction in [an/ad, bn/bd] (ad, bd > 0).  While
    # both ends share their integer part f, peel it off (x = f + 1/x') and go
    # on with the reciprocal interval, keeping the convergents h/k of the
    # peeled parts; the first integer inside the current interval ends it.
    h0, k0, h1, k1 = 0, 1, 1, 0
    while True:
        f = an // ad
        if f * ad == an:
            break
        if f < bn // bd:
            f += 1
            break
        h0, k0, h1, k1 = h1, k1, f * h1 + h0, f * k1 + k0
        an, ad, bn, bd = bd, bn - f * bd, ad, an - f * ad
    return f * h1 + h0, f * k1 + k0


# ======================================================================
# Free-well quantities
# ======================================================================


def nu_n(setup: Setup, n: int) -> float:
    """Wave number of the n-th free-well mode, 2 n pi / L."""
    if n < 1:
        raise DomainError(f"mode index must be >= 1, got n={n}")
    return 2 * n * math.pi / setup.L


def check_in_box(setup: Setup, x: float) -> None:
    """Raise DomainError unless -L/2 <= x <= L/2 (a NaN x is outside)."""
    half = setup.L / 2
    if not (-half <= x <= half):
        raise DomainError(f"x = {x!r} lies outside the box [{-half}, {half}]")


def check_all_in_box(setup: Setup, xs: List[float]) -> None:
    """check_in_box for every x of a list, read from its ends; min and max
    can step over a NaN, which the sum of the list carries."""
    if xs:
        check_in_box(setup, min(xs))
        check_in_box(setup, max(xs))
        total = sum(xs)
        if total != total:
            check_in_box(setup, total)


def phi_mode_grid(setup: Setup, n: int, xs: List[float]) -> List[float]:
    """Normalized free-well eigenfunction sqrt(2/L) sin((nu_n/2)(L/2 - x)) at each x.

    Vanishes at both walls, exactly 0.0 on them, and has unit L^2 norm.
    Left of the centre the phase is taken from the left wall, (-1)**(n+1)
    sin((nu_n/2)(L/2 + x)), so that it is exact there and never -0.0.  At
    the site itself (x == x0_value) the value is site_modes', exactly 0.0
    at a node.  Raises DomainError for an x outside the box.
    """
    if n < 1:
        raise DomainError(f"mode index must be >= 1, got n={n}")
    check_all_in_box(setup, xs)
    x0, half = setup.x0_value, setup.L / 2
    half_nu, amp, sin = n * math.pi / setup.L, math.sqrt(2 / setup.L), math.sin
    left_amp = amp if n % 2 else -amp
    site = _site_sines(setup, n, n + 1)[0]
    return [
        site if x == x0
        else left_amp * sin(half_nu * (half + x)) + 0.0 if x < 0
        else amp * sin(half_nu * (half - x))
        for x in xs
    ]


def phi_mode(setup: Setup, n: int, x: float) -> float:
    """phi_mode_grid at one x."""
    return phi_mode_grid(setup, n, [x])[0]


def site_modes(setup: Setup, M: int) -> List[float]:
    """[Phi_1(x0), ..., Phi_M(x0)] (M >= 1) from the site's exact fraction p/q.

    With x0 = (p/q)(L/2) the phase of Phi_m at x0 is pi t / (2 q) with
    t = m (q - p).  Reducing t mod 4q in integers and folding it into
    [-q, q] leaves the sine unchanged and its argument within pi/2 (the
    sinPi of IEEE 754-2019 9.2), so every node, m (q - p) = 0 mod 2q, is
    exactly 0.0 and every other value is within a few ulps.  A `real:` site
    uses its site_fraction, which moves the phase by at most
    m pi ulp(x0) / (2 L), below the rounding of a float phase.  The values
    repeat with period 4q in m: one period is computed and tiled.
    """
    period = _site_sines(setup, 1, min(M, 4 * setup.q) + 1)
    reps, rest = divmod(M, len(period))
    return period * reps + period[:rest]


def _site_sines(setup: Setup, start: int, stop: int) -> List[float]:
    # Phi_m(x0) for start <= m < stop.  With u = m (q - p) + q and
    # r = u mod 4q, t = r - q (r < 2q) or 3q - r (r >= 2q) is m (q - p)
    # mod 4q folded into [-q, q], where pi t / (2 q) has the same sine.
    # t / (2 q) is a correctly rounded int quotient, whatever the size of q.
    p, q = setup.p, setup.q
    two_q, three_q, four_q = 2 * q, 3 * q, 4 * q
    norm, pi, sin = math.sqrt(2 / setup.L), math.pi, math.sin
    us = range(start * (q - p) + q, stop * (q - p) + q, q - p)
    return [
        norm * sin(pi * ((r - q if (r := u % four_q) < two_q else three_q - r) / two_q))
        for u in us
    ]


def energy_from_nu(setup: Setup, nu: float) -> float:
    """Signed energy c (nu/2)^2, negative for nu < 0; OverflowError naming nu beyond float range."""
    try:
        e = setup.c * (nu / 2) ** 2
    except OverflowError:  # float ** raises where * returns inf
        e = math.inf
    if e == math.inf:
        raise OverflowError(f"energy c (nu/2)**2 exceeds float range at nu = {nu!r}")
    return e if nu >= 0 else -e
