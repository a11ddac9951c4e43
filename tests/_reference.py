"""Reference cross-checks of the paper's claims, shared by the test modules.

No command calls these routines; like `_quad`, they state a fact a second
way so that the package can be checked against it:

* the derivative jump at the site, read from the eigenfunction pieces alone
  (`jump_ratio`, with the sign of the left trig piece, `trig_left_sign`),
  against the dispersion function;
* the limit states solving their boundary problem (`limit_residual`): the
  free equation away from x0, the derivative jump against the tabulated
  constant (`kappa_constants`), and the wall values;
* the placement of a free mode from exact floors (`classify_mode`) against
  the merge walk of `lattice.partition`;
* the centered-site amplitude envelope (`gamma_factor`);
* Bessel's inequality and the dropped tail of a sine expansion
  (`parseval_defect`, `tail_bound`).

`classify_mode` builds its interval with the package's own private
`lattice._interval` and `lattice._make_point`, so that both placements
yield the same records.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from deltabox.errors import DomainError
from deltabox.fourier import FourierExpansion
from deltabox.lattice import IntervalDescriptor, LatticePoint, _interval, _make_point, kappa_base
from deltabox.model import Setup
from deltabox.wavefn import LimitState, limit_state
from deltabox._special import one_minus_sinc


# ============================================================
# Logarithmic-derivative jump at the interaction site
# ============================================================


def trig_left_sign(setup: Setup, nu: float) -> float:
    """Sign of sin(a2), a2 = (nu/2) (L/2 + x0), carried by the left trig piece.

    The right piece has amplitude |sin(a2)|, so this sign keeps the state
    continuous at x0.  It is (-1)**floor(a2/pi) and flips at the under
    points; being read from the very sine of the right amplitude, it
    cannot disagree with that amplitude next to one.
    """
    return math.copysign(1.0, math.sin((nu / 2) * setup.width_left))


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
# Derivative-jump constants and self-check of the limit states
# ============================================================


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


def _point_limit(setup: Setup, point: LatticePoint, side: str = "below") -> LimitState:
    """The limit state at a lattice point."""
    if point.kind == "both":
        return limit_state(setup, "hat", point.nu)
    if point.kind == "under":
        return limit_state(setup, "under", point.k, side)
    if point.kind == "over":
        return limit_state(setup, "over", point.l)
    raise DomainError(f"unknown lattice point kind {point.kind!r}")


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


# ============================================================
# Mode classification
# ============================================================


class ModeClassification(NamedTuple):
    """Placement of a free mode: either interval + case tag, or tag Z."""

    n: int
    case_tag: str
    interval: Optional[IntervalDescriptor]

    @property
    def in_shared_lattice(self) -> bool:
        return self.case_tag == "Z"


def classify_mode(setup: Setup, n: int) -> ModeClassification:
    """Place the n-th free mode: shared point (tag Z) or its open interval.

    The counts of under and over points below the mode are computed as
    floor(n (q+p)/(2q)) and floor(n (q-p)/(2q)) in exact integer arithmetic
    (the case analysis is discontinuous in these floors, so floats would
    misclassify boundary configurations).
    """
    if n < 1:
        raise DomainError(f"mode index must be >= 1, got n={n}")
    base = kappa_base(setup)
    if n % base == 0:
        return ModeClassification(n=n, case_tag="Z", interval=None)
    p, q = setup.p, setup.q
    k_hat = (n * (q + p)) // (2 * q)
    l_hat = (n * (q - p)) // (2 * q)
    lower = _bounding_point(setup, k_hat, l_hat, max)
    upper = _bounding_point(setup, k_hat + 1, l_hat + 1, min)
    interval = _interval(k_hat + l_hat - (n - 1) // base, *lower, *upper)
    return ModeClassification(n=n, case_tag=interval.case_tag, interval=interval)


def _bounding_point(setup: Setup, k: int, l: int, pick) -> tuple[Optional[LatticePoint], int, int]:
    # The lattice point bounding a mode and its position: pick=max of the
    # candidates below it (k-th under, l-th over), pick=min of those above
    # it.  Index 0 means no candidate of that kind.
    if k < 1 and l < 1:
        return None, 0, 1
    if l < 1:
        return _point(setup, k, None)
    if k < 1:
        return _point(setup, None, l)
    a, b = k * (setup.q - setup.p), l * (setup.q + setup.p)
    if a == b:
        return _point(setup, k, l)
    if pick(a, b) == a:
        return _point(setup, k, None)
    return _point(setup, None, l)


def _point(setup: Setup, k: Optional[int], l: Optional[int]) -> tuple[LatticePoint, int, int]:
    # The point with under index k and/or over index l (the other None) and
    # its exact position num/den in units of 2 pi / L.
    num, den = 2 * (k or l) * setup.q, (setup.q + setup.p if k else setup.q - setup.p)
    return _make_point(num / den * (2 * math.pi / setup.L), k, l), num, den


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


# ============================================================
# Expansion tails
# ============================================================


def tail_bound(expansion: FourierExpansion) -> float:
    """Estimate of the sup-norm of the tail an expansion drops after its M terms.

    sqrt(2/L) * max_m |a_m| m**2 / M, from the measured 1/m**2 envelope.
    The one-hot expansion of a free mode (a single nonzero coefficient, 1.0)
    is exact, and its bound is 0.0.
    """
    values = expansion.values
    if [a for a in values if a] == [1.0]:
        return 0.0
    envelope = max((abs(a) * m * m for m, a in enumerate(values, 1)), default=0.0)
    return math.sqrt(2 / expansion.setup.L) * envelope / max(len(values), 1)


def parseval_defect(expansion: FourierExpansion) -> float:
    """1 - sum a_m**2, the truncated mass deficit of a unit-norm state."""
    return 1.0 - math.fsum(a * a for a in expansion.values)
