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
float position x0_value in both cases.
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
    """x0 as a plain float length; its lattice uses site_fraction's p/q."""

    __slots__ = ()

    def __new__(cls, value_abs: float) -> "RealX0":
        if not math.isfinite(value_abs) or value_abs < 0:
            raise DomainError(f"real x0 must be finite and >= 0, got {value_abs}")
        return super().__new__(cls, value_abs)

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


def phi_mode(setup: Setup, n: int, x: float) -> float:
    """Normalized free-well eigenfunction sqrt(2/L) sin((nu_n/2)(L/2 - x)).

    Vanishes at both walls and has unit L^2 norm.  Raises DomainError for x
    outside the box.
    """
    if n < 1:
        raise DomainError(f"mode index must be >= 1, got n={n}")
    check_in_box(setup, x)
    half_nu = n * math.pi / setup.L
    return math.sqrt(2 / setup.L) * math.sin(half_nu * (setup.L / 2 - x))


def phi_modes(setup: Setup, M: int, x: float) -> List[float]:
    """[Phi_1(x), ..., Phi_M(x)], each bit equal to phi_mode's, one domain check."""
    check_in_box(setup, x)
    L, norm, arm = setup.L, math.sqrt(2 / setup.L), setup.L / 2 - x
    return [norm * math.sin(m * math.pi / L * arm) for m in range(1, M + 1)]


def energy_from_nu(setup: Setup, nu: float) -> float:
    """Signed energy c (nu/2)^2, negative for nu < 0; OverflowError naming nu beyond float range."""
    try:
        e = setup.c * (nu / 2) ** 2
    except OverflowError:  # float ** raises where * returns inf
        e = math.inf
    if e == math.inf:
        raise OverflowError(f"energy c (nu/2)**2 exceeds float range at nu = {nu!r}")
    return e if nu >= 0 else -e
