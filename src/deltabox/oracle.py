"""Finite-difference cross-check of the analytic spectrum.

Discretizing the box on a uniform interior grid turns the Hamiltonian into a
symmetric tridiagonal matrix; the point interaction becomes a single
diagonal weight alpha/dx at the node holding x0.  The eigensolver here is
deliberately self-contained (Sturm-sequence bisection plus inverse
iteration, in the manner of LAPACK dstebz/dstein) so that the oracle shares
no code path, and no third-party solver, with the analytic side it validates.

Both recurrences are inherently sequential over the N grid nodes, so they
run on Python floats: numpy's per-call overhead on scalar-sized operands
would cost more than the arithmetic.  Each eigenvalue is bisected on its own
and all of them share one cache of Sturm counts, so the midpoints common to
every target are counted once.  Every eigenpair must pass a residual check
max|T v - lambda v| <= 1e-10 * max|diag| * max|v|, else ConvergenceError.

Accuracy expectations: O(dx**2) for smooth states, degrading to O(dx) when
the interaction is on (the delta weight is a first-order approximation), so
comparisons pin tolerances accordingly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Dict, List, Tuple

import numpy as np

from .errors import ConvergenceError, DomainError, GridMismatch
from .lattice import kappa_base, partition
from .model import RationalX0, Setup, energy_from_nu, nu_n, phi_mode
from .spectrum import solve_nu
from .wavefn import sample_wave

_INVERSE_ITERATION_SEED = 1729


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal interior discretization of the Hamiltonian."""

    diag: np.ndarray
    offdiag: np.ndarray
    N: int
    dx: float


@dataclass(frozen=True)
class LevelComparison:
    """Analytic level versus oracle level, with relative errors."""

    index: int
    nu: float
    is_mode: bool
    analytic_energy: float
    oracle_energy: float
    rel_energy_error: float
    sup_wave_error: float


@dataclass(frozen=True)
class OracleComparison:
    levels: List[LevelComparison]
    max_rel_energy_error: float
    max_sup_wave_error: float


# ============================================================
# Discretization
# ============================================================


def _site_node(setup: Setup, N: int, allow_snap: bool) -> int:
    """1-based grid node carrying the interaction site."""
    if isinstance(setup.x0, RationalX0):
        p, q = setup.x0.p, setup.x0.q
        pos = Fraction((N + 1) * (p + q), 2 * q)
        if pos.denominator != 1:
            g = math.gcd(p + q, 2 * q)
            raise GridMismatch(
                f"x0 is off-grid for N={N}; choose N+1 a multiple of {2 * q // g}"
            )
        return int(pos)
    pos = (setup.x0_value + setup.L / 2) / setup.L * (N + 1)
    j = round(pos)
    if abs(pos - j) > 1e-9 and not allow_snap:
        raise GridMismatch(
            f"x0 is off-grid for N={N} (offset {abs(pos - j):.3e} nodes); "
            "pass allow_snap=True to accept the nearest node"
        )
    return int(j)


def build_hamiltonian(
    setup: Setup, alpha: float, N: int, allow_snap: bool = False
) -> Tridiagonal:
    """Interior tridiagonal matrix of the discretized Hamiltonian.

    Dirichlet walls are eliminated; the interaction contributes alpha/dx on
    the diagonal at the node holding x0.  The site must land on a grid node
    (exactly for rational sites; within 1e-9 nodes for real ones unless
    allow_snap accepts the nearest node).
    """
    if N < 16:
        raise DomainError(f"N must be >= 16, got {N!r}")
    dx = setup.L / (N + 1)
    j = _site_node(setup, N, allow_snap)
    if j < 1 or j > N:
        raise GridMismatch(f"x0 lands on a wall node for N={N}")
    diag = np.full(N, 2 * setup.c / dx**2)
    diag[j - 1] += alpha / dx
    offdiag = np.full(N - 1, -setup.c / dx**2)
    return Tridiagonal(diag, offdiag, N, dx)


# ============================================================
# Sturm-sequence bisection and inverse iteration
# ============================================================


def _pivmin(e2: List[float]) -> float:
    """Smallest pivot magnitude the Sturm recurrence may divide by."""
    safmin = sys.float_info.min
    return max(max(e2, default=0.0) * safmin, safmin)


def _sturm_count(d: List[float], e2: List[float], shift: float, pivmin: float) -> int:
    """Number of eigenvalues strictly below `shift`.

    Runs the LDL^T pivot recurrence on Python floats; pivots with magnitude
    below pivmin are clamped to -pivmin before they are counted or divided
    by, which keeps the count exact in the presence of underflow.
    """
    q = d[0] - shift
    if abs(q) < pivmin:
        q = -pivmin
    count = int(q < 0)
    for di, e2i in zip(islice(d, 1, None), e2):
        q = di - shift - e2i / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0:
            count += 1
    return count


def _sturm_counts(diag: np.ndarray, e2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift."""
    d = np.asarray(diag, dtype=float).tolist()
    e2_list = np.asarray(e2, dtype=float).tolist()
    pivmin = _pivmin(e2_list)
    shift_list = np.asarray(shifts, dtype=float).tolist()
    return np.array([_sturm_count(d, e2_list, s, pivmin) for s in shift_list], dtype=int)


def _bisect(
    d: List[float],
    e2: List[float],
    pivmin: float,
    k: int,
    lo: float,
    hi: float,
    counts: Dict[float, int],
) -> float:
    """k-th smallest eigenvalue (1-based) by Sturm bisection of [lo, hi].

    Stops at relative width 1e-12 or when the midpoint can no longer split
    the bracket.  `counts` caches the Sturm count of every shift tried, so
    targets that share a bracket share its midpoints.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        stuck = mid == lo or mid == hi
        below = counts.get(mid)
        if below is None:
            below = counts[mid] = _sturm_count(d, e2, mid, pivmin)
        if below >= k:
            hi = mid
        else:
            lo = mid
        if stuck or hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
    raise ConvergenceError("Sturm bisection did not converge in 200 steps")


def _tridiag_apply(T: Tridiagonal, v: np.ndarray) -> np.ndarray:
    """Matrix-vector product T @ v."""
    out = T.diag * v
    out[:-1] += T.offdiag * v[1:]
    out[1:] += T.offdiag * v[:-1]
    return out


def eig_lowest(T: Tridiagonal, count: int) -> List[Tuple[float, np.ndarray]]:
    """Lowest `count` eigenpairs of the tridiagonal matrix.

    Each eigenvalue is bisected on its own inside Gershgorin bounds to
    relative 1e-12, counting eigenvalues below each midpoint with the scalar
    Sturm recurrence; one count cache serves all targets, so the midpoints
    they share are counted once and no result depends on `count`.
    Eigenvectors come from two steps of inverse iteration with a
    partial-pivot tridiagonal solve, normalized so that sum(v**2) * dx = 1
    and positive at the last node carrying appreciable amplitude.  A pair
    whose residual max|T v - lambda v| exceeds 1e-10 * max|diag| * max|v|
    raises ConvergenceError.
    """
    if count < 1 or count > 12:
        raise DomainError(f"count must be in 1..12, got {count!r}")
    if count > T.N:
        raise DomainError(f"count={count} exceeds matrix size N={T.N}")
    diag = np.asarray(T.diag, dtype=float)
    offdiag = np.asarray(T.offdiag, dtype=float)
    radius = np.zeros(T.N)
    radius[:-1] += np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    lo_bound = float(np.min(diag - radius))
    hi_bound = float(np.max(diag + radius))
    width = hi_bound - lo_bound
    lo = lo_bound - 1e-12 * width
    hi = hi_bound + 1e-12 * width
    d = diag.tolist()
    e = offdiag.tolist()
    e2 = (offdiag * offdiag).tolist()
    pivmin = _pivmin(e2)
    counts: Dict[float, int] = {}
    values = [_bisect(d, e2, pivmin, k, lo, hi, counts) for k in range(1, count + 1)]
    residual_scale = 1e-10 * float(np.max(np.abs(diag)))
    rng = np.random.default_rng(_INVERSE_ITERATION_SEED)
    pairs: List[Tuple[float, np.ndarray]] = []
    for lam in values:
        v = rng.standard_normal(T.N)
        for _ in range(2):
            v = _solve_shifted(d, e, lam, v)
            # Scale by max|v| first: at an exactly singular shift the 1e-300
            # pivot stand-in makes entries near 1e300 and v @ v would overflow.
            v /= float(np.max(np.abs(v)))
            v /= math.sqrt(float(v @ v))
        v /= math.sqrt(T.dx)
        vmax = float(np.max(np.abs(v)))
        residual = float(np.max(np.abs(_tridiag_apply(T, v) - lam * v)))
        if not residual <= residual_scale * vmax:
            raise ConvergenceError(
                f"inverse iteration left residual {residual:.3e} at eigenvalue {lam!r}"
            )
        support = np.flatnonzero(np.abs(v) > 1e-8 * vmax)
        if v[support[-1]] < 0:
            v = -v
        pairs.append((lam, v))
    return pairs


def _solve_shifted(
    d: List[float], e: List[float], sigma: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (T - sigma*I) x = rhs by Gaussian elimination with row pivoting.

    Row swaps introduce a second superdiagonal; the three-band upper factor
    is kept explicitly.  Near-singular shifts (inverse iteration's normal
    operating point) are handled by the pivoting, not by perturbing sigma.
    The elimination runs on Python floats.
    """
    n = len(d)
    u0 = [0.0] * n
    u1 = [0.0] * n
    u2 = [0.0] * n
    y = np.asarray(rhs, dtype=float).tolist()
    # Current row i of the reduced system: (b, c1, 0); row i+1 below it.
    b = d[0] - sigma
    c1 = e[0] if n > 1 else 0.0
    for i in range(n - 1):
        b_next = d[i + 1] - sigma
        c1_next = e[i + 1] if i + 1 < n - 1 else 0.0
        a = e[i]
        if abs(a) > abs(b):
            p0, p1, p2 = a, b_next, c1_next
            row_b, row_c1, row_c2 = b, c1, 0.0
            y[i], y[i + 1] = y[i + 1], y[i]
        else:
            p0, p1, p2 = b, c1, 0.0
            row_b, row_c1, row_c2 = a, b_next, c1_next
        if p0 == 0.0:
            p0 = 1e-300
        u0[i], u1[i], u2[i] = p0, p1, p2
        m = row_b / p0
        y[i + 1] -= m * y[i]
        b = row_c1 - m * p1
        c1 = row_c2 - m * p2
    if b == 0.0:
        b = 1e-300
    u0[n - 1] = b
    x = [0.0] * n
    x[n - 1] = y[n - 1] / u0[n - 1]
    if n > 1:
        x[n - 2] = (y[n - 2] - u1[n - 2] * x[n - 1]) / u0[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (y[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return np.array(x)


# ============================================================
# Analytic reference spectrum
# ============================================================


def analytic_levels(
    setup: Setup, alpha: float, count: int
) -> List[Tuple[float, bool]]:
    """Lowest `count` analytic levels as (nu, is_mode) pairs.

    An eigenvalue is either the root of the coupling equation inside one
    partition interval, or a free mode on the shared lattice, which solves
    the problem for every coupling because it vanishes at the site.
    """
    nu_max = (1.5 * count + 8) * 2 * math.pi / setup.L
    _, intervals = partition(setup, nu_max)
    levels = [(solve_nu(setup, alpha, iv), False) for iv in intervals]
    base = kappa_base(setup)
    n = base
    while nu_n(setup, n) <= nu_max:
        levels.append((nu_n(setup, n), True))
        n += base
    levels.sort(key=lambda item: item[0])
    if len(levels) < count:
        raise DomainError(f"internal level budget too small for count={count}")
    return levels[:count]


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
            psi = np.array([phi_mode(setup, n_mode, x) for x in xs])
        else:
            psi = np.array([sample.value for sample in sample_wave(setup, nu, xs)])
        sup_wave = float(np.max(np.abs(vec - psi))) / float(np.max(np.abs(psi)))
        out.append(
            LevelComparison(idx, nu, is_mode, energy, float(lam), rel_energy, sup_wave)
        )
    return OracleComparison(
        out,
        max(lv.rel_energy_error for lv in out),
        max(lv.sup_wave_error for lv in out),
    )
