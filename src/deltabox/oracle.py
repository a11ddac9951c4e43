"""Finite-difference cross-check of the analytic spectrum.

Discretizing the box on a uniform interior grid turns the Hamiltonian into a
symmetric tridiagonal matrix; the point interaction becomes a single
diagonal weight alpha/dx at the node holding x0.  The eigensolver here is
deliberately self-contained (Sturm bisection to isolation, then bracketed
Newton on the same recurrence, plus inverse iteration in the manner of
LAPACK dstein) so that the oracle shares no code path, and no third-party
solver, with the analytic side it validates.

Both recurrences are inherently sequential over the N grid nodes, so they
run on Python floats with the standard library alone; vector work goes
through C-level builtins (map, max, math.hypot).  Each eigenvalue is solved
on its own and all of them share one cache of Sturm passes, so the
midpoints common to every target are run once.  Every eigenpair must pass a
residual check max|T v - lambda v| <= 1e-10 * max|T_ij| * max|v|, else
ConvergenceError; max|T_ij| is max|diag| for every grid Hamiltonian.

Accuracy expectations: O(dx**2) for smooth states, degrading to O(dx) when
the interaction is on (the delta weight is a first-order approximation), so
comparisons pin tolerances accordingly.
"""

from __future__ import annotations

import math
import sys
from itertools import chain, islice, repeat
from operator import add, mul, sub, truediv
from typing import Dict, List, NamedTuple, Tuple

from .errors import ConvergenceError, DomainError, GridMismatch
from .lattice import POINT_BUDGET
from .model import RationalX0, Setup, energy_from_nu, nu_n, phi_mode
from .spectrum import analytic_levels
from .wavefn import general_state


class Tridiagonal(NamedTuple):
    """Symmetric tridiagonal interior discretization of the Hamiltonian."""

    diag: List[float]
    offdiag: List[float]
    N: int
    dx: float


class LevelComparison(NamedTuple):
    """Analytic level versus oracle level, with relative errors."""

    index: int
    nu: float
    is_mode: bool
    analytic_energy: float
    oracle_energy: float
    rel_energy_error: float
    sup_wave_error: float


class OracleComparison(NamedTuple):
    levels: List[LevelComparison]
    max_rel_energy_error: float
    max_sup_wave_error: float


# ============================================================
# Discretization
# ============================================================


def _site_node(setup: Setup, N: int) -> int:
    """1-based grid node carrying the interaction site."""
    if isinstance(setup.x0, RationalX0):
        p, q = setup.x0.p, setup.x0.q
        num, den = (N + 1) * (p + q), 2 * q
        if num % den:
            raise GridMismatch(
                f"x0 is off-grid for N={N}; choose N+1 a multiple of "
                f"{den // math.gcd(p + q, den)}"
            )
        return num // den
    pos = (setup.x0_value + setup.L / 2) / setup.L * (N + 1)
    j = round(pos)
    if abs(pos - j) > 1e-9:
        raise GridMismatch(
            f"x0 is off-grid for N={N} (offset {abs(pos - j):.3e} nodes); "
            "choose a grid with the site on a node"
        )
    return int(j)


def build_hamiltonian(setup: Setup, alpha: float, N: int) -> Tridiagonal:
    """Interior tridiagonal matrix of the discretized Hamiltonian.

    Dirichlet walls are eliminated; the interaction contributes alpha/dx on
    the diagonal at the node holding x0.  The site must land on a grid node
    (exactly for rational sites; within 1e-9 nodes for real ones).
    """
    if N < 16:
        raise DomainError(f"N must be >= 16, got {N!r}")
    if N > POINT_BUDGET:
        raise DomainError(f"grid size N (--grid) = {N} is beyond the budget of {POINT_BUDGET:.0e}")
    dx = setup.L / (N + 1)
    j = _site_node(setup, N)
    if j < 1 or j > N:
        raise GridMismatch(f"x0 lands on a wall node for N={N}")
    if dx**2 == 0.0:
        raise ZeroDivisionError(f"the squared grid spacing dx**2 underflows to 0 at L = {setup.L!r}")
    diag = [2 * setup.c / dx**2] * N
    diag[j - 1] += alpha / dx
    offdiag = [-setup.c / dx**2] * (N - 1)
    return Tridiagonal(diag, offdiag, N, dx)


# ============================================================
# Sturm-sequence bisection and inverse iteration
# ============================================================


def _pivmin(e2: List[float]) -> float:
    """Smallest pivot magnitude the Sturm recurrence may divide by."""
    safmin = sys.float_info.min
    return max(max(e2, default=0.0) * safmin, safmin)


def _sturm(d: List[float], e2: List[float], shift: float, pivmin: float) -> Tuple[int, float]:
    """Eigenvalues strictly below `shift`, and d/dshift log|det(T - shift)|.

    Runs the LDL^T pivot recurrence q_i = d_i - shift - e2_i / q_{i-1} on
    Python floats; pivots with magnitude below pivmin are clamped to -pivmin
    before they are counted or divided by, which keeps the count exact in the
    presence of underflow.  The slope s_i of each leading block follows the
    determinant recurrence divided through by the determinant, s_i =
    ((d_i - shift) s_{i-1} - 1 - e2_i s_{i-2} / q_{i-1}) / q_i, which unlike a
    sum of per-pivot terms does not cancel where a pivot nears zero.  A
    clamped pivot can overflow it to inf or nan.
    """
    q = d[0] - shift
    count = 0
    if q < pivmin:
        if q > -pivmin:
            q = -pivmin
        count = 1
    slope, before = -1.0 / q, 0.0
    for di, e2i in zip(islice(d, 1, None), e2):
        a = di - shift
        t = e2i / q
        q = a - t
        if q < pivmin:
            if q > -pivmin:
                q = -pivmin
            count += 1
        slope, before = (a * slope - 1.0 - t * before) / q, slope
    return count, slope


# Passes allowed to _bisect's Newton phase on top of its halvings.  Once an
# eigenvalue is isolated Newton converges quadratically; no oracle test or
# benchmark request takes more than 20 steps.
_NEWTON_PASSES = 64


def _bisect(
    d: List[float],
    e2: List[float],
    pivmin: float,
    k: int,
    lo: float,
    hi: float,
    passes: Dict[float, Tuple[int, float]],
    budget: int,
) -> float:
    """k-th smallest eigenvalue (1-based) of T inside [lo, hi].

    Bisects until lambda_k is alone in the bracket, then steps shift - 1/slope
    (Newton on det(T - shift): Barth, Martin & Wilkinson 1967; Li & Zeng
    1994); every pass's count still narrows the bracket.
    A Newton step that leaves the bracket, or exceeds half the step of two
    passes before, falls back to the midpoint.  Stops at a Newton step within
    1e-8 of the shift (rounding level after quadratic convergence), at
    relative width 1e-12, or when the midpoint cannot split the bracket.
    `passes` caches the Sturm pass of every shift, so targets share midpoints.
    More than `budget` passes raise ConvergenceError.
    """
    below_lo, below_hi = 0, len(d)
    x = 0.5 * (lo + hi)
    step = older = hi - lo
    for _ in range(budget):
        if x not in passes:
            passes[x] = _sturm(d, e2, x, pivmin)
        below, slope = passes[x]
        if below >= k:
            hi, below_hi = x, below
        else:
            lo, below_lo = x, below
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            return mid
        # An infinite slope (a clamped pivot) gives a zero step; it is not taken.
        newton = -1.0 / slope if slope else math.inf
        isolated = below_lo == k - 1 and below_hi == k
        if isolated and 0 < abs(newton) <= 0.5 * abs(older) and lo <= x + newton <= hi:
            if abs(newton) <= 1e-8 * abs(x):
                return x + newton
            older, step = step, newton
        else:
            older, step = step, mid - x
        x += step
    raise ConvergenceError(f"eigenvalue {k} did not converge in {budget} Sturm passes")


def eig_lowest(T: Tridiagonal, count: int) -> List[Tuple[float, List[float]]]:
    """Lowest `count` eigenpairs of the tridiagonal matrix.

    Each eigenvalue is found on its own inside Gershgorin bounds by Sturm
    bisection to isolation, then bracketed Newton on the same recurrence
    (`_bisect`); one cache of Sturm passes serves all targets, so the
    midpoints they share are run once and no result depends on `count`.
    Eigenvectors come from `_inverse_iteration`, normalized so that
    sum(v**2) * dx = 1 and positive at the last node carrying appreciable
    amplitude.  A pair whose residual max|T v - lambda v| exceeds
    1e-10 * max(max|diag|, max|offdiag|) * max|v|, or whose v has no finite
    nonzero norm, raises ConvergenceError.
    """
    if count < 1 or count > 12:
        raise DomainError(f"count must be in 1..12, got {count!r}")
    if count > T.N:
        raise DomainError(f"count={count} exceeds matrix size N={T.N}")
    d, e = T.diag, T.offdiag
    abs_e = list(map(abs, e))
    radius = list(map(add, chain(abs_e, (0.0,)), chain((0.0,), abs_e)))
    lo_bound = min(map(sub, d, radius))
    hi_bound = max(map(add, d, radius))
    width = hi_bound - lo_bound
    lo = lo_bound - 1e-12 * width
    hi = hi_bound + 1e-12 * width
    e2 = list(map(mul, e, e))
    pivmin = _pivmin(e2)
    # Bisection halves the bracket at most until its width reaches the
    # spacing of doubles at the Gershgorin bound nearer zero.
    spacing = min(math.ulp(lo_bound), math.ulp(hi_bound))
    budget = max(math.frexp(hi - lo)[1] - math.frexp(spacing)[1], 0) + _NEWTON_PASSES
    passes: Dict[float, Tuple[int, float]] = {}
    values = [_bisect(d, e2, pivmin, k, lo, hi, passes, budget) for k in range(1, count + 1)]
    residual_scale = 1e-10 * max(max(map(abs, d)), max(abs_e, default=0.0))
    pairs: List[Tuple[float, List[float]]] = []
    for lam in values:
        v = _inverse_iteration(d, e, lam)
        vmax = max(map(abs, v))
        # (T - lam I) v in one pass: e[i-1] v[i-1] + (d[i] - lam) v[i] + e[i] v[i+1].
        below = chain((0.0,), map(mul, e, v))
        above = chain(map(mul, e, islice(v, 1, None)), (0.0,))
        on = map(mul, map(sub, d, repeat(lam)), v)
        residual = max(map(abs, map(add, map(add, below, on), above)))
        # hypot carries a nan or inf of v into norm; max, above, may skip a nan.
        norm = math.hypot(*v) * math.sqrt(T.dx)
        if not (residual <= residual_scale * vmax and 0.0 < norm < math.inf):
            raise ConvergenceError(
                f"inverse iteration left residual {residual:.3e} at eigenvalue {lam!r}"
            )
        cutoff = 1e-8 * vmax
        if next(x for x in reversed(v) if abs(x) > cutoff) < 0:
            norm = -norm
        pairs.append((lam, list(map(truediv, v, repeat(norm)))))
    return pairs


def _inverse_iteration(d: List[float], e: List[float], sigma: float) -> List[float]:
    """Two steps of inverse iteration with T - sigma*I, with 0.5 <= max|x| < 1.

    T - sigma*I is factored once by Gaussian elimination with row pivoting;
    row swaps introduce a second superdiagonal, so the upper factor U keeps
    three bands.  Near-singular shifts (inverse iteration's normal operating
    point) are handled by the pivoting, not by perturbing sigma; an exactly
    zero pivot is replaced by 1e-300.  Step 1 back-substitutes
    U x = (1, ..., 1), Wilkinson's start as in EISPACK tinvit; step 2 solves
    (T - sigma*I) x' = x in full.  After each step x is rescaled by a power
    of two to 0.5 <= max|x| < 1, so the entries near 1e300 of an exactly
    singular shift cannot overflow.
    """
    u0: List[float] = []
    u1: List[float] = []
    u2: List[float] = []
    swaps: List[bool] = []  # per elimination: row swap or not,
    mults: List[float] = []  # and the multiplier
    # Current row i of the reduced system: (b, c1, 0); row i+1 below it is
    # (a, d_next - sigma, c1_next).  The row with the larger lead pivots.
    b = d[0] - sigma
    c1 = e[0] if e else 0.0
    for a, d_next, c1_next in zip(e, islice(d, 1, None), chain(islice(e, 1, None), (0.0,))):
        b_next = d_next - sigma
        swap = abs(a) > abs(b)
        if swap:
            m = b / a
            u0.append(a)
            u1.append(b_next)
            u2.append(c1_next)
            b, c1 = c1 - m * b_next, -m * c1_next
        else:
            if b == 0.0:
                b = 1e-300
            m = a / b
            u0.append(b)
            u1.append(c1)
            u2.append(0.0)
            b, c1 = b_next - m * c1, c1_next
        swaps.append(swap)
        mults.append(m)
    u0.append(b if b != 0.0 else 1e-300)
    u1.append(0.0)
    u2.append(0.0)
    x = [1.0] * len(d)
    for step in range(2):
        if step:
            # Step 2's right-hand side: the factorization's eliminations.
            y = []
            carry = x[0]
            for swap, m, nxt in zip(swaps, mults, islice(x, 1, None)):
                if swap:
                    carry, nxt = nxt, carry
                y.append(carry)
                carry = nxt - m * carry
            y.append(carry)
            x = y
        solved = []
        x1 = x2 = 0.0
        for yi, p0, p1, p2 in zip(reversed(x), reversed(u0), reversed(u1), reversed(u2)):
            x1, x2 = (yi - p1 * x1 - p2 * x2) / p0, x1
            solved.append(x1)
        solved.reverse()
        # An exact power-of-two rescaling: dividing by max|x| itself rounds
        # every entry and measurably doubles the error of near-degenerate pairs.
        exponent = math.frexp(max(map(abs, solved)))[1]
        x = list(map(math.ldexp, solved, repeat(-exponent)))
    return x


# ============================================================
# Comparison with the closed forms
# ============================================================


def compare(setup: Setup, alpha: float, N: int, count: int) -> OracleComparison:
    """Lowest `count` levels: analytic closed forms versus the grid oracle.

    Reports, per level, the relative eigenvalue error and the sup-norm
    eigenvector discrepancy (relative to the eigenfunction's amplitude) on
    the interior nodes.
    """
    T = build_hamiltonian(setup, alpha, N)
    pairs = eig_lowest(T, count)
    levels = analytic_levels(setup, alpha, count)
    xs = [-setup.L / 2 + (i + 1) * T.dx for i in range(N)]
    out: List[LevelComparison] = []
    for idx, ((nu, is_mode), (lam, vec)) in enumerate(zip(levels, pairs), start=1):
        energy = energy_from_nu(setup, nu)
        scale = max(abs(energy), abs(lam), setup.c * (math.pi / setup.L) ** 2)
        rel_energy = abs(lam - energy) / scale
        if is_mode:
            n_mode = round(nu / nu_n(setup, 1))
            psi = [phi_mode(setup, n_mode, x) for x in xs]
        else:
            psi = general_state(setup, nu).sample(xs)
        # eig_lowest signs v by its last node above 1e-8 max|v|, which can lie
        # left of a strongly coupled state's right compartment: align it to psi.
        if sum(map(mul, vec, psi)) < 0:
            vec = [-v for v in vec]
        sup_wave = max(map(abs, map(sub, vec, psi))) / max(map(abs, psi))
        out.append(LevelComparison(idx, nu, is_mode, energy, lam, rel_energy, sup_wave))
    return OracleComparison(
        out,
        max(lv.rel_energy_error for lv in out),
        max(lv.sup_wave_error for lv in out),
    )
